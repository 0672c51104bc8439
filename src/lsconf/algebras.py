"""Structure-constant algebras with several named bilinear products.

An algebra lives on Q^dim.  Each stored product is a dim x dim x dim tensor
``c`` with e_i op e_j = sum_k c[i][j][k] e_k; an absent tensor means the
product is identically zero.  Stored op names:

    ld      left-type product  a <| b
    rd      right-type product a |> b
    circ    the left-symmetric product a o b
    dot     a commutative (Zinbiel / associative) product a . b
    bracket a Lie bracket, only present on associated GD output

Derived (never stored, except bracket on GD output):

    ast      a * b = a <| b + a |> b
    star     a (*) b = a |> b + b <| a
    bracket  [a, b] = a o b - b o a   (when no bracket tensor is stored)

A spec stores each op once, as sparse integer rows scaled by `den`, the
lcm of all stored denominators: only the nonzero entries, so its size
follows them and not dim^3.  `rows(op)` gives them, and builds a derived op
the same way on first use.  Every kernel reads the rows.  Spans, kernels and
ranks (ideal closures, envelopes, cocycle systems) read the integers;
readers whose values reach an answer divide back.  `ops` is a read-only
dense view derived from the rows, for callers that want tensors.

The identity catalog evaluates residuals on basis triples; by
multilinearity that is exhaustive.  Its product tables hold only their
nonzero entries (an absent entry is zero), so the work follows the nonzero
structure constants rather than dim^3 index tuples per term.  The same
evaluator turns a bilinear formula in that notation into a structure tensor
(`product_tensor`); the constructions build their outputs so.  A module M
of an algebra A is checked through the same catalog, as the split null
extension A + M (`semidirect`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from operator import itemgetter
from types import MappingProxyType

from .linalg import ZERO, DimensionMismatch, Subspace, exact, exact_array, vzero


class AlgebraError(Exception):
    pass


class UnknownOp(AlgebraError):
    pass


class UnknownIdentity(AlgebraError):
    pass


class MissingAuxMap(AlgebraError):
    pass


class MissingOps(AlgebraError):
    pass


class MissingMaps(AlgebraError):
    pass


class IdentityError(AlgebraError):
    """A required identity system failed; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


STORED_OPS = ("ld", "rd", "circ", "dot", "bracket")
# derived op -> its signed parts (sign, stored op, arguments swapped?)
DERIVED = {"ast": ((1, "ld", False), (1, "rd", False)),
           "star": ((1, "rd", False), (1, "ld", True)),
           "bracket": ((1, "circ", False), (-1, "circ", True))}


def tensor(dim, entries=None):
    """Dense mutable dim^3 tensor from a {(i, j, k): int or Fraction} dict."""
    t = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), v in (entries or {}).items():
        t[i][j][k] = exact(v)
    return t


@dataclass(frozen=True, init=False)
class AlgebraSpec:
    """Immutable algebra: basis labels plus, per stored op, the sparse
    integer rows of its structure tensor scaled by `den`, the lcm of all
    stored denominators (see `rows`).  An op with no nonzero entry is not
    stored.  `AlgebraSpec(name, dim, basis, ops)` takes dense tensors (see
    `tensor`), whose entries are ints or Fractions (a float or a bool raises
    TypeError), and converts them once; `from_rows` takes rows.  Two specs
    are equal when name, dim, basis, den and the stored rows are: the
    integer form is canonical, so that is equality of the tensors."""

    name: str
    dim: int
    basis: tuple
    den: int
    stored_rows: MappingProxyType

    def __init__(self, name, dim, basis, ops=None):
        frozen = {op: exact_array(t, (dim, dim, dim)) for op, t in (ops or {}).items()}
        den = lcm(*{x.denominator for t in frozen.values() for plane in t
                    for row in plane for x in row})
        self._init(name, dim, basis, den,
                   {op: tuple(tuple(tuple((k, int(x * den)) for k, x in enumerate(row) if x)
                                    for row in plane) for plane in t)
                    for op, t in frozen.items()})

    @classmethod
    def from_rows(cls, name, dim, basis, den, rows):
        """The spec whose op has the integer rows rows[op], scaled by den,
        laid out as `rows` gives them (entries sorted by coordinate, none
        zero).  den may be any common denominator; it is reduced here."""
        spec = cls.__new__(cls)
        spec._init(name, dim, basis, den, rows)
        return spec

    def _init(self, name, dim, basis, den, rows):
        basis = tuple(basis)
        if len(basis) != dim:
            raise DimensionMismatch(f"{len(basis)} labels for dim {dim}")
        if len(set(basis)) != dim:
            raise ValueError("basis labels must be pairwise distinct")
        for op in rows:
            if op not in STORED_OPS:
                raise UnknownOp(f"cannot store op {op!r}")
        rows = {op: r for op, r in rows.items() if any(row for plane in r for row in plane)}
        # the least den divides out whatever den shares with every entry
        g = gcd(den, *(x for r in rows.values() for plane in r for row in plane for _, x in row))
        if g > 1:
            den //= g
            rows = {op: tuple(tuple(tuple((k, x // g) for k, x in row) for row in plane)
                              for plane in r) for op, r in rows.items()}
        for attr, value in (("name", name), ("dim", dim), ("basis", basis), ("den", den),
                            ("stored_rows", MappingProxyType(rows)), ("_rows", dict(rows))):
            object.__setattr__(self, attr, value)

    def rows(self, op):
        """e_i op e_j scaled by den, as rows[i][j] = ((k, int), ...) over
        its nonzero coordinates k in increasing order: stored, or for a
        derived op built on first use and kept."""
        rows = self._rows.get(op)
        if rows is None:
            rows = self._rows[op] = _int_rows(self, op)
        return rows

    @cached_property
    def ops(self):
        """A read-only dense view of the stored ops, as dim^3 nested tuples
        of Fractions built from the rows on first read.  No kernel reads
        it."""
        return MappingProxyType({op: tuple(tuple(tuple(_dense(self, row)) for row in plane)
                                           for plane in r)
                                 for op, r in self.stored_rows.items()})

    def index(self, label):
        try:
            return self.basis.index(label)
        except ValueError:
            raise KeyError(f"unknown basis label {label!r}") from None

    def has(self, op):
        return op in self.stored_rows


@dataclass(frozen=True)
class LinearMapSpec:
    """A linear map on coordinates, as a dense dim x dim matrix."""

    matrix: tuple

    def __post_init__(self):
        n = len(self.matrix)
        object.__setattr__(self, "matrix", exact_array(self.matrix, (n, n)))

    @property
    def dim(self):
        return len(self.matrix)


@dataclass(frozen=True)
class RepresentationSpec:
    """Module of dimension module_dim with named map families l, r, rho."""

    module_dim: int
    maps: dict

    def __post_init__(self):
        n = self.module_dim
        object.__setattr__(self, "maps", {key: exact_array(mats, (len(mats), n, n))
                                          for key, mats in self.maps.items()})


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    passed: bool
    violations: tuple = ()
    skipped: int = 0


# ---------------------------------------------------------------------------
# products

def _int_rows(alg, op):
    """The rows of AlgebraSpec.rows for an op it does not store."""
    if op not in STORED_OPS and op not in DERIVED:
        raise UnknownOp(f"unknown op {op!r}")
    n = range(alg.dim)
    # an absent stored op has no parts: it is zero
    parts = [(sign, alg.rows(base), swap) for sign, base, swap in DERIVED.get(op, ())]
    return tuple(tuple(tuple(sorted(_lincomb((sign, r[j][i] if swap else r[i][j])
                                             for sign, r, swap in parts)))
                       for j in n) for i in n)


def _dense(alg, row):
    """A sparse integer row of alg.rows divided back to exact coordinates."""
    out = vzero(alg.dim)
    for k, c in row:
        out[k] = Fraction(c, alg.den)
    return out


# prod_basis and eval_product have no caller in the library; the benchmark's
# tracer (perfbench/spans.py) counts their calls by name.

def prod_basis(alg, op, i, j):
    """e_i op e_j as a coordinate vector (derived ops included)."""
    return _dense(alg, alg.rows(op)[i][j])


def eval_product(alg, op, x, y):
    """Bilinear extension of op to coordinate vectors."""
    if len(x) != alg.dim or len(y) != alg.dim:
        raise DimensionMismatch("operand length does not match algebra dim")
    rows = alg.rows(op)
    out = [0] * alg.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if yj:
                c = xi * yj
                for k, v in rows[i][j]:
                    out[k] += c * v
    return [Fraction(v, alg.den) for v in out]


def novikov_star(alg):
    """Which stored/derived op carries the Novikov product of this spec."""
    if alg.has("ld") or alg.has("rd"):
        return "ast"
    return "circ"


def op_tensor(alg, op):
    """Dense tensor of any op (derived ones materialized)."""
    return [[_dense(alg, row) for row in plane] for plane in alg.rows(op)]


def products_span(alg, op):
    """Do the products e_i op e_j span the whole space?  Not when some
    coordinate occurs in none of them; else they are added to one span
    until it is full."""
    rows = [row for plane in alg.rows(op) for row in plane if row]
    if len({k for row in rows for k, _ in row}) < alg.dim:
        return False
    span = Subspace(alg.dim)
    return any(span.add(dict(row)) and span.is_full() for row in rows)


# ---------------------------------------------------------------------------
# identity catalog
#
# Each law is (label, terms): a sum of nested products in the argument letters
# a, b, c with int or Fraction coefficients, read like the formula it
# transcribes.  A product node is (op, left, right); ("aux", x) applies the
# aux linear map.  Op names are the stored and derived ops plus two resolved
# per algebra: "nov" is the Novikov product novikov_star(alg), "s1" is ld with
# its arguments swapped, s1(x, y) = y ld x.  bracket reads a stored tensor
# when there is one, so laws about the circ commutator spell it as two circ
# terms.

_LS = ("left_symmetry", [(1, ("circ", ("circ", "a", "b"), "c")),
                         (-1, ("circ", "a", ("circ", "b", "c"))),
                         (-1, ("circ", ("circ", "b", "a"), "c")),
                         (1, ("circ", "b", ("circ", "a", "c")))])
_RC = ("right_commutativity", [(1, ("circ", ("circ", "a", "b"), "c")),
                               (-1, ("circ", ("circ", "a", "c"), "b"))])
_COMM = [(1, ("dot", "a", "b")), (-1, ("dot", "b", "a"))]
_ASSOC = [(1, ("dot", ("dot", "a", "b"), "c")), (-1, ("dot", "a", ("dot", "b", "c")))]

# a |> (b |> c) = (a * b) |> c - (b * a) |> c + b |> (a |> c)
_PN1 = ("pn1", [(1, ("rd", "a", ("rd", "b", "c"))), (-1, ("rd", ("ast", "a", "b"), "c")),
                (1, ("rd", ("ast", "b", "a"), "c")), (-1, ("rd", "b", ("rd", "a", "c")))])
# a |> (b <| c) = (a |> b) <| c + b <| (a * c) - (b <| a) <| c
_PN2 = ("pn2", [(1, ("rd", "a", ("ld", "b", "c"))), (-1, ("ld", ("rd", "a", "b"), "c")),
                (-1, ("ld", "b", ("ast", "a", "c"))), (1, ("ld", ("ld", "b", "a"), "c"))])
# (a * b) |> c = (a |> c) <| b
_PN3 = ("pn3", [(1, ("rd", ("ast", "a", "b"), "c")), (-1, ("ld", ("rd", "a", "c"), "b"))])
# (a <| b) <| c = (a <| c) <| b
_PN4 = ("pn4", [(1, ("ld", ("ld", "a", "b"), "c")), (-1, ("ld", ("ld", "a", "c"), "b"))])
# c <| [a, b] - a o (c <| b) - (b o c) <| a = -b o (c <| a) - (a o c) <| b
_PG1 = ("pg1", [(1, ("ld", "c", ("circ", "a", "b"))), (-1, ("ld", "c", ("circ", "b", "a"))),
                (-1, ("circ", "a", ("ld", "c", "b"))), (-1, ("ld", ("circ", "b", "c"), "a")),
                (1, ("circ", "b", ("ld", "c", "a"))), (1, ("ld", ("circ", "a", "c"), "b"))])
# [a, b] |> c + (a * b) o c = a |> (b o c) - b o (a |> c) + (a o c) <| b
_PG2 = ("pg2", [(1, ("rd", ("circ", "a", "b"), "c")), (-1, ("rd", ("circ", "b", "a"), "c")),
                (1, ("circ", ("ast", "a", "b"), "c")), (-1, ("rd", "a", ("circ", "b", "c"))),
                (1, ("circ", "b", ("rd", "a", "c"))), (-1, ("ld", ("circ", "a", "c"), "b"))])
# (a . b) o c = a . (b o c)
_LSP1 = ("lsp1", [(1, ("circ", ("dot", "a", "b"), "c")), (-1, ("dot", "a", ("circ", "b", "c")))])
# (a o b) . c - a o (b . c) = (b o a) . c - b o (a . c)
_LSP2 = ("lsp2", [(1, ("dot", ("circ", "a", "b"), "c")), (-1, ("circ", "a", ("dot", "b", "c"))),
                  (-1, ("dot", ("circ", "b", "a"), "c")), (1, ("circ", "b", ("dot", "a", "c")))])

CATALOG = {
    "LEFT_SYMMETRIC": (_LS,),
    "NOVIKOV": (_LS, _RC),
    # a . (b . c) = (a . b + b . a) . c
    "ZINBIEL": (("zinbiel", [(1, ("dot", "a", ("dot", "b", "c"))),
                             (-1, ("dot", ("dot", "a", "b"), "c")),
                             (-1, ("dot", ("dot", "b", "a"), "c"))]),),
    "COMM_ASSOC": (("commutativity", _COMM), ("associativity", _ASSOC)),
    "PRE_NOVIKOV": (_PN1, _PN2, _PN3, _PN4),
    "PRE_GD_COMPAT": (_PG1, _PG2),
    "PRE_GD": (_PN1, _PN2, _PN3, _PN4, _LS, _PG1, _PG2),
    "GD_COMPAT": (
        ("skew", [(1, ("bracket", "a", "b")), (1, ("bracket", "b", "a"))]),
        ("jacobi", [(1, ("bracket", ("bracket", "a", "b"), "c")),
                    (1, ("bracket", ("bracket", "b", "c"), "a")),
                    (1, ("bracket", ("bracket", "c", "a"), "b"))]),
        ("novikov_left_symmetry", [(1, ("nov", ("nov", "a", "b"), "c")),
                                   (-1, ("nov", "a", ("nov", "b", "c"))),
                                   (-1, ("nov", ("nov", "b", "a"), "c")),
                                   (1, ("nov", "b", ("nov", "a", "c")))]),
        ("novikov_right_commutativity", [(1, ("nov", ("nov", "a", "b"), "c")),
                                         (-1, ("nov", ("nov", "a", "c"), "b"))]),
        # [a * b, c] - [a * c, b] + [a, b] * c - [a, c] * b - a * [b, c]
        ("mixed_compat", [(1, ("bracket", ("nov", "a", "b"), "c")),
                          (-1, ("bracket", ("nov", "a", "c"), "b")),
                          (1, ("nov", ("bracket", "a", "b"), "c")),
                          (-1, ("nov", ("bracket", "a", "c"), "b")),
                          (-1, ("nov", "a", ("bracket", "b", "c")))])),
    "LS_POISSON": (_LS, ("dot_commutativity", _COMM), ("dot_associativity", _ASSOC),
                   _LSP1, _LSP2),
    "NOVIKOV_POISSON": (_LS, _RC, ("dot_commutativity", _COMM),
                        ("dot_associativity", _ASSOC), _LSP1, _LSP2),
    # D(a . b) = D(a) . b + a . D(b)
    "DERIVATION": (("leibniz", [(1, ("aux", ("dot", "a", "b"))),
                                (-1, ("dot", ("aux", "a"), "b")),
                                (-1, ("dot", "a", ("aux", "b")))]),),
    # the nine quadratic identities in s1, s2 = star and circ
    "QUADRATIC_9": (
        ("q1", [(1, ("s1", "a", ("s1", "b", "c"))), (-1, ("s1", "b", ("s1", "a", "c")))]),
        ("q2", [(1, ("s1", ("s1", "a", "b"), "c")), (-1, ("s1", ("star", "a", "b"), "c")),
                (1, ("s1", "a", ("s1", "b", "c"))), (1, ("star", "a", ("s1", "b", "c"))),
                (-1, ("s1", ("s1", "b", "a"), "c")), (-1, ("s1", "b", ("star", "a", "c")))]),
        ("q3", [(1, ("s1", ("s1", "a", "b"), "c")), (1, ("s1", "a", ("star", "b", "c"))),
                (-1, ("s1", ("s1", "b", "a"), "c")), (1, ("s1", ("star", "b", "a"), "c")),
                (-1, ("s1", "b", ("s1", "a", "c"))), (-1, ("star", "b", ("s1", "a", "c")))]),
        ("q4", [(1, ("star", ("s1", "a", "b"), "c")), (-1, ("star", ("star", "a", "b"), "c")),
                (1, ("star", "a", ("s1", "b", "c"))), (-1, ("star", ("s1", "b", "a"), "c"))]),
        ("q5", [(2, ("star", ("s1", "a", "b"), "c")), (-1, ("star", ("star", "a", "b"), "c")),
                (1, ("star", "a", ("star", "b", "c"))), (-2, ("star", ("s1", "b", "a"), "c")),
                (1, ("star", ("star", "b", "a"), "c")), (-1, ("star", "b", ("star", "a", "c")))]),
        ("q6", [(1, ("star", ("s1", "a", "b"), "c")), (-1, ("star", ("s1", "b", "a"), "c")),
                (1, ("star", ("star", "b", "a"), "c")), (-1, ("star", "b", ("s1", "a", "c")))]),
        ("q7", [(1, ("s1", ("circ", "a", "b"), "c")), (-1, ("circ", "a", ("s1", "b", "c"))),
                (-1, ("s1", "a", ("circ", "b", "c"))), (-1, ("s1", ("circ", "b", "a"), "c")),
                (1, ("circ", "b", ("s1", "a", "c"))), (1, ("s1", "b", ("circ", "a", "c")))]),
        ("q8", [(1, ("circ", ("s1", "a", "b"), "c")), (-1, ("star", ("circ", "a", "b"), "c")),
                (-1, ("circ", ("star", "a", "b"), "c")), (1, ("circ", "a", ("s1", "b", "c"))),
                (1, ("star", "a", ("circ", "b", "c"))), (-1, ("circ", ("s1", "b", "a"), "c")),
                (1, ("star", ("circ", "b", "a"), "c")), (-1, ("circ", "b", ("star", "a", "c")))]),
        ("q9", [(1, ("circ", ("s1", "a", "b"), "c")), (-1, ("star", ("circ", "a", "b"), "c")),
                (1, ("circ", "a", ("star", "b", "c"))), (-1, ("circ", ("s1", "b", "a"), "c")),
                (1, ("star", ("circ", "b", "a"), "c")), (1, ("circ", ("star", "b", "a"), "c")),
                (-1, ("circ", "b", ("s1", "a", "c"))), (-1, ("star", "b", ("circ", "a", "c")))])),
}


def normalize_identity_id(identity_id):
    return identity_id.strip().replace("-", "_").upper()


def _sparse(vec):
    return tuple((k, x) for k, x in enumerate(vec) if x)


def _lincomb(pairs):
    """Sparse sum of c * vec over (c, sparse vec) pairs."""
    acc = {}
    for c, vec in pairs:
        for k, x in vec:
            acc[k] = acc.get(k, 0) + c * x
    return tuple((k, x) for k, x in acc.items() if x)


def _shape(tree):
    """(tree with its letters blanked to None, the letters' positions in abc)."""
    if isinstance(tree, str):
        return None, ("abc".index(tree),)
    parts = [_shape(t) for t in tree[1:]]
    return ((tree[0],) + tuple(shape for shape, _ in parts),
            sum((letters for _, letters in parts), ()))


def _products(shape):
    """How many op nodes, aux excluded, a shape nests."""
    return 0 if shape is None else (shape[0] != "aux") + sum(map(_products, shape[1:]))


class _Scaled(dict):
    """x -> Fraction(x, scale) for integers x, each built on first use and
    then shared; 0 maps to ZERO."""

    def __init__(self, scale):
        super().__init__({0: ZERO})
        self.scale = scale

    def __missing__(self, x):
        value = self[x] = Fraction(x, self.scale)
        return value


def _plan(laws):
    """The laws of an identity system (or one ad-hoc law) shaped for
    `_residuals`: per law (label, arity, top, terms, done), with top the
    most op nodes in one of its terms, a term (coef, shape, top minus the
    term's op nodes, the getter that maps a table key back to its idx), and
    done the shapes that no later law reads."""
    shaped = [(label, [(coef, *_shape(tree)) for coef, tree in terms])
              for label, terms in laws]
    last_use = {shape: n for n, (_, law) in enumerate(shaped) for _, shape, _ in law}
    plan = []
    for n, (label, law) in enumerate(shaped):
        top = max(_products(shape) for _, shape, _ in law)
        terms = tuple((coef, shape, top - _products(shape),
                       itemgetter(*sorted(range(len(letters)), key=letters.__getitem__)))
                      for coef, shape, letters in law)
        plan.append((label, len(law[0][2]), top, terms,
                     tuple(shape for shape, last in last_use.items() if last == n)))
    return tuple(plan)


@cache
def _catalog_plan(key):
    """The plan of CATALOG[key], shaped on first use."""
    return _plan(CATALOG[key])


def _residuals(alg, plan, aux, leaves, domains):
    """Yield (label, idx, residual) for each law of plan (see `_plan`) and
    each index tuple idx, picking the law's arguments a, b, c from leaves,
    at which the residual is nonzero; a zero residual is never yielded.
    domains maps an arity to the index tuples to visit, in their order, or
    to None for every tuple, in sorted (= itertools.product) order.

    Every distinct nested product is tabulated once over all tuples of
    leaves, from the integer rows (scaled by alg.den per op node).  A table
    holds its nonzero entries only, so an absent key means zero.  A binary
    node's table is a sparse join, Gustavson's row-by-row product: the
    right operand's table is indexed by coordinate (j -> [(entry, y)]) and
    the op's rows by their nonempty (j, row) pairs per i, so a left entry
    visits only the pairs that meet a nonzero product.  A law's residuals
    are summed by walking each term's table, every key mapped back to its
    idx through the inverse of the permutation the term's letters spell; a
    nonzero residual is divided back once, its entries read from one
    `_Scaled` table per scale, shared by the laws of the call, so residuals
    share their Fractions: a report holds only a few distinct values.
    """
    tensors = {} if aux is None else {"aux": [_sparse(col) for col in zip(*aux.matrix)]}
    tables = {None: {(x,): v for x, v in enumerate(map(_sparse, leaves)) if v}}

    def op_pairs(op):
        # per i, the (j, row) of e_i op e_j over the nonempty rows only
        if op not in tensors:
            t = alg.rows({"nov": novikov_star(alg), "s1": "ld"}.get(op, op))
            tensors[op] = [tuple((j, row) for j, row in enumerate(plane) if row)
                           for plane in (zip(*t) if op == "s1" else t)]
        return tensors[op]

    def table(shape):
        if shape not in tables:
            if len(shape) == 2:
                t = tensors["aux"]
                tables[shape] = {key: w for key, v in table(shape[1]).items()
                                 if (w := _lincomb((x, t[j]) for j, x in v))}
            else:
                t = op_pairs(shape[0])
                right = list(table(shape[2]).items())
                by_j = [[] for _ in range(alg.dim)]
                for r, (_, v) in enumerate(right):
                    for j, y in v:
                        by_j[j].append((r, y))
                out = {}
                for kl, u in table(shape[1]).items():
                    accs = {}
                    for i, x in u:
                        for j, row in t[i]:
                            for r, y in by_j[j]:
                                acc = accs.get(r)
                                if acc is None:
                                    acc = accs[r] = {}
                                c = x * y
                                for k, z in row:
                                    acc[k] = acc.get(k, 0) + c * z
                    for r, acc in accs.items():
                        if w := tuple((k, z) for k, z in acc.items() if z):
                            out[kl + right[r][0]] = w
                tables[shape] = out
        return tables[shape]

    dim, den, scaled_by = alg.dim, alg.den, {}
    for label, arity, top, terms, done in plan:
        acc = {}
        for coef, shape, power, back in terms:
            coef *= den ** power
            for key, vec in table(shape).items():
                idx = back(key)
                row = acc.get(idx)
                if row is None:
                    row = acc[idx] = [0] * dim
                for k, x in vec:
                    row[k] += coef * x
        scale = den ** top
        scaled = scaled_by.setdefault(scale, _Scaled(scale)).__getitem__
        given = domains[arity]
        for idx in sorted(acc) if given is None else given:
            row = acc.get(idx)
            if row and any(row):
                yield label, idx, tuple(map(scaled, row))
        # drop what no later law reads, which bounds the peak memory
        for shape in done:
            del tables[shape]


def _laws(alg, identity_id, aux):
    key = normalize_identity_id(identity_id)
    if key not in CATALOG:
        raise UnknownIdentity(f"unknown identity {identity_id!r}")
    if key == "DERIVATION" and aux is None:
        raise MissingAuxMap("DERIVATION needs --derivation / aux=LinearMapSpec")
    if aux is not None and aux.dim != alg.dim:
        raise DimensionMismatch("aux map dimension does not match the algebra")
    return key, CATALOG[key]


def check_identity(alg, identity_id, aux=None, triples=None, pairs=None):
    """Evaluate an identity system on basis tuples.

    triples / pairs restrict the checked index tuples (used for truncated
    instances whose products are only faithful on a sub-domain); by default
    everything over basis^arity is checked, which is complete by
    multilinearity.  Each law reads the whole domain, so an iterator is
    read once, up front.  A tuple of another length, or with an index outside
    range(dim), names no basis tuple and would pass unchecked: it is refused.
    """
    key, _ = _laws(alg, identity_id, aux)
    domains = {arity: None if given is None else tuple(map(tuple, given))
               for arity, given in ((2, pairs), (3, triples))}
    for arity, given in domains.items():
        for idx in given or ():
            if len(idx) != arity or not all(i in range(alg.dim) for i in idx):
                raise DimensionMismatch(f"{idx!r} is not a tuple of {arity} basis indices")
    units = [[int(i == k) for k in range(alg.dim)] for i in range(alg.dim)]
    violations = tuple(_residuals(alg, _catalog_plan(key), aux, units, domains))
    return IdentityReport(key, not violations, violations)


def identity_residuals(alg, identity_id, vectors, aux=None):
    """[(label, residual)] for each law of an identity system at the
    arguments a, b, c = vectors, arbitrary coordinate vectors, computed by
    the same contraction check_identity runs on basis tuples."""
    key, laws = _laws(alg, identity_id, aux)
    if len(vectors) != 3:
        raise DimensionMismatch(f"need the three vectors a, b, c, got {len(vectors)}")
    if any(len(v) != alg.dim for v in vectors):
        raise DimensionMismatch("operand length does not match algebra dim")
    found = {label: res for label, _, res in _residuals(
        alg, _catalog_plan(key), aux, vectors, {2: [(0, 1)], 3: [(0, 1, 2)]})}
    return [(label, found.get(label, (ZERO,) * alg.dim)) for label, _ in laws]


def product_tensor(alg, terms, aux=None):
    """The dense dim^3 tensor of sum coef * tree(a, b) over terms: a
    bilinear formula in the catalog's notation (the letters a and b once
    each, stored and derived ops, ("aux", x) for the aux map), with int or
    Fraction coefficients.  It is the catalog's contraction at the unit
    vectors, so only the nonzero pairs are visited."""
    if aux is not None and aux.dim != alg.dim:
        raise DimensionMismatch("aux map dimension does not match the algebra")
    terms = [(exact(coef), tree) for coef, tree in terms]
    for _, tree in terms:
        if sorted(_shape(tree)[1]) != [0, 1]:
            raise ValueError(f"{tree!r} is not bilinear in the letters a and b")
    units = [[int(i == k) for k in range(alg.dim)] for i in range(alg.dim)]
    out = tensor(alg.dim)
    if terms:  # an empty sum is zero, and has no letters to read the arity from
        for _, (i, j), res in _residuals(alg, _plan([("product", terms)]), aux, units,
                                             {2: None}):
            out[i][j] = list(res)
    return out


def require_identity(alg, identity_id, aux=None, triples=None, pairs=None):
    rep = check_identity(alg, identity_id, aux=aux, triples=triples, pairs=pairs)
    if not rep.passed:
        label, idx, res = rep.violations[0]
        raise IdentityError(
            f"{alg.name or 'algebra'} fails {rep.identity_id}/{label} at {idx}: residual {res}",
            rep)
    return rep


# ---------------------------------------------------------------------------
# representations

def mult_columns(alg, op, i, side):
    """The columns of v -> e_i op v (side "l") or v -> v op e_i (side "r"),
    as the sparse integer rows of alg.rows (scaled by alg.den)."""
    rows = alg.rows(op)
    return rows[i] if side == "l" else tuple(r[i] for r in rows)


def _regular(alg, op, side):
    """For every a, the exact matrix of the multiplication by e_a (see mult_columns)."""
    return tuple(tuple(zip(*(_dense(alg, c) for c in mult_columns(alg, op, a, side))))
                 for a in range(alg.dim))


def regular_novikov_representation(alg):
    return RepresentationSpec(alg.dim, {"l": _regular(alg, "rd", "l"),
                                        "r": _regular(alg, "ld", "r")})


def regular_gd_representation(alg):
    base = regular_novikov_representation(alg)
    return RepresentationSpec(alg.dim, {**base.maps, "rho": _regular(alg, "circ", "l")})


def _maps(alg, rep, keys):
    """rep's map families under keys, each holding one matrix per basis element of alg."""
    for key in keys:
        if key not in rep.maps or len(rep.maps[key]) != alg.dim:
            raise MissingMaps(f"representation lacks map family {key!r}")
    return [rep.maps[key] for key in keys]


def semidirect(alg, rep):
    """The split null extension A + M of alg by the module rep.

    circ is the Novikov product of alg extended by a o m = l(a)m and
    m o a = r(a)m; when rep has rho, bracket is alg's bracket extended by
    [a, m] = rho(a)m = -[m, a]; M . M = 0.  Basis: ("a", label) for alg's,
    then ("m", k) for the module's.
    """
    l, r = _maps(alg, rep, ("l", "r"))
    n, m = alg.dim, rep.module_dim
    dim = n + m

    def extend(op, left, right, sign):
        t = tensor(dim)
        for i, plane in enumerate(op_tensor(alg, op)):
            for j, row in enumerate(plane):
                t[i][j][:n] = row
        for a, p, q in itertools.product(range(n), range(m), range(m)):
            t[a][n + p][n + q] = left[a][q][p]
            t[n + p][a][n + q] = sign * right[a][q][p]
        return t

    ops = {"circ": extend(novikov_star(alg), l, r, 1)}
    if "rho" in rep.maps:
        (rho,) = _maps(alg, rep, ("rho",))
        ops["bracket"] = extend("bracket", rho, rho, -1)
    basis = tuple(("a", b) for b in alg.basis) + tuple(("m", k) for k in range(m))
    return AlgebraSpec(f"{alg.name}~semidirect", dim, basis, ops)


def check_representation(alg, rep, kind):
    """Module axioms: the laws of kind on the split null extension A + M,
    at every index tuple with exactly one module index."""
    need = {"novikov": ("l", "r"), "gd": ("l", "r", "rho")}.get(kind)
    if need is None:
        raise ValueError(f"kind must be novikov or gd, got {kind!r}")
    _maps(alg, rep, need)
    semi = semidirect(alg, rep)
    # a zero bracket is dropped and read as the circ commutator; the GD laws
    # with a zero bracket are exactly the Novikov laws
    key = "GD_COMPAT" if kind == "gd" and semi.has("bracket") else "NOVIKOV"

    def one_module_index(arity):
        return [idx for idx in itertools.product(range(semi.dim), repeat=arity)
                if sum(i >= alg.dim for i in idx) == 1]

    report = check_identity(semi, key, triples=one_module_index(3), pairs=one_module_index(2))
    return IdentityReport("REPRESENTATION_" + kind.upper(), report.passed, report.violations)


# ---------------------------------------------------------------------------
# associated ordinary algebras

def associated(alg, which):
    """The Novikov algebra (ast) or GD algebra (ast, bracket) of a pre-spec."""
    if which not in ("novikov", "gd"):
        raise MissingOps(f"associated() takes 'novikov' or 'gd', got {which!r}")
    rows = {"circ": alg.rows("ast")}
    if which == "gd":
        rows["bracket"] = alg.rows("bracket")
    return AlgebraSpec.from_rows(f"{alg.name}~{which}", alg.dim, alg.basis, alg.den, rows)
