"""Formal lambda-calculus for quadratic left-symmetric conformal algebras.

The conformal algebra is the free C[d]-module over the algebra's basis,
plus a one-dimensional torsion centre with d acting as multiplication by
beta.  Elements carry explicit d-degrees per basis slot; products are
polynomials in formal variables lam (and mu in the left-symmetry check) and
are never evaluated numerically.

For basis elements the product is

    a_lam b  =  d(b ld a) + (a circ b) + lam * (a star b) + alpha_lam(a, b) c

with the central coefficient alpha from an optional cocycle (any object
with forms, see cohomology.CocycleFamily).  _brackets writes it out once: the
lam^n parts of e_i _lam e_j for every basis pair, as sparse integers scaled
by alg.den.  Four readers share that table:

* the lam-product, extended to the whole module by the sesquilinearity rules
  (d x)_lam y = -lam x_lam y and x_lam (d y) = (d + lam) x_lam y;
* the windowed coefficient algebra, the mode algebra of the bracket: basis
  a (x) t^m with |m| bounded, product

      (a (x) t^m)(b (x) t^n) = sum_q m(m-1)...(m-q+1) (lam^q part of a_lam b) (x) t^{m+n-q}

  with d x (x) t^e = -e x (x) t^{e-1} and the centre at t^{-1}; products
  leaving the window are tracked separately, never dropped;
* cohomology.coboundary_space, which applies functionals to the V-part;
* cohomology.generate_cocycle_system, which reads d inside the forms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, prod

from .algebras import (AlgebraError, AlgebraSpec, IdentityReport,
                       require_identity, tensor)
from .linalg import ZERO, ONE, DimensionMismatch, exact

PARTIAL = "∂"
LAM = "λ"
CDOT = "·"
CENTRAL_SYMBOL = "c"


class CentralInputError(Exception):
    pass


class WindowMismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# module elements and lambda-polynomials

class ModuleElement:
    """Element of C[d]V + C*centre: terms keyed (d-degree, basis index)."""

    __slots__ = ("terms", "central")

    def __init__(self, terms=None, central=ZERO):
        self.terms = {k: x for k, v in (terms or {}).items() if (x := exact(v))}
        self.central = exact(central)

    @classmethod
    def basis(cls, i, ddeg=0):
        return cls({(ddeg, i): ONE})

    @classmethod
    def from_vector(cls, vec, ddeg=0):
        return cls({(ddeg, i): c for i, c in enumerate(vec) if c})

    def is_zero(self):
        return not self.terms and not self.central

    def scaled(self, c):
        if not c:
            return ModuleElement()
        return ModuleElement({k: c * v for k, v in self.terms.items()}, c * self.central)

    def plus(self, other):
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t.get(k, ZERO) + v
        return ModuleElement(t, self.central + other.central)

    def __eq__(self, other):
        return (isinstance(other, ModuleElement)
                and self.terms == other.terms and self.central == other.central)

    def __repr__(self):
        return f"ModuleElement({self.terms!r}, central={self.central!r})"


class LambdaPoly:
    """Polynomial with ModuleElement coefficients, keyed by the lam-degree or,
    in two variables, by the (lam-degree, mu-degree) pair."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if not v.is_zero()}

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, LambdaPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"LambdaPoly({self.coeffs!r})"


# ---------------------------------------------------------------------------
# the bracket on basis pairs

def _brackets(alg, cocycle=None):
    """{(i, j): the nonzero lam^n parts of e_i _lam e_j} for every basis
    pair, each part (n, row, central) with row holding ((d-degree, k), int)
    pairs, all scaled by alg.den: d(e_j ld e_i) + e_i circ e_j + alpha_0 c at
    n = 0, e_i star e_j + alpha_1 c at n = 1 and alpha_n c above.  The table
    without a cocycle is kept, read-only, in alg._rows."""
    if cocycle is None:
        if _brackets in alg._rows:
            return alg._rows[_brackets]
    elif cocycle.dim != alg.dim:
        raise DimensionMismatch(f"cocycle forms are {cocycle.dim}-dimensional, "
                                f"the algebra {alg.dim}-dimensional")
    den = alg.den
    ld, circ, star = alg.rows("ld"), alg.rows("circ"), alg.rows("star")
    forms = cocycle.forms if cocycle is not None else ()
    table = {}
    for i, j in itertools.product(range(alg.dim), repeat=2):
        v0 = tuple(((1, k), v) for k, v in ld[j][i]) + tuple(((0, k), v) for k, v in circ[i][j])
        v1 = tuple(((0, k), v) for k, v in star[i][j])
        parts = ((q, (v0, v1)[q] if q < 2 else (), den * forms[q][i][j] if q < len(forms) else 0)
                 for q in range(max(2, len(forms))))
        table[i, j] = tuple(p for p in parts if p[1] or p[2])
    if cocycle is None:
        alg._rows[_brackets] = table
    return table


def _acc(store, key, elt):
    store[key] = store[key].plus(elt) if key in store else elt


def _product(alg, table, x, y, beta):
    """x_lam y as {lam-degree: ModuleElement}; the central coordinates of x
    and y are not read (the centre annihilates)."""
    acc = {}
    for (d, i), cx in x.terms.items():
        for (e, j), cy in y.terms.items():
            # the table is scaled by alg.den; dividing s back is exact
            s = cx * cy * (-1) ** d / alg.den
            for n, row, cen in table[i, j]:
                # (d^d x)_lam (d^e y) = (-lam)^d (d+lam)^e (x_lam y)
                for k in range(e + 1):
                    c = s * comb(e, k)
                    part = acc.setdefault(n + d + e - k, {})
                    for (dd, kk), v in row:
                        part[dd + k, kk] = part.get((dd + k, kk), 0) + c * v
                    if cen:
                        part[None] = part.get(None, 0) + c * cen * beta ** k
    return {n: ModuleElement({key: v for key, v in part.items() if key is not None},
                             part.get(None, ZERO))
            for n, part in acc.items()}


def lambda_product(alg, x, y, cocycle=None, beta=ZERO):
    if x.central or y.central:
        raise CentralInputError("lambda products of central elements vanish; "
                                "pass the V-part explicitly")
    return LambdaPoly(_product(alg, _brackets(alg, cocycle), x, y, exact(beta)))


# ---------------------------------------------------------------------------
# conformal left-symmetry

def _defect(alg, table, a, b, c, beta):
    out = {}
    for x, y, swap, sign in ((a, b, False, 1), (b, a, True, -1)):
        # (x_v y)_{lam+mu} c - x_v (y_w c), (v, w) = (lam, mu), or (mu, lam) if swap
        for n, u in _product(alg, table, x, y, beta).items():
            for q, elt in _product(alg, table, u, c, beta).items():
                # substitute the outer variable nu -> lam + mu binomially
                for s in range(q + 1):
                    _acc(out, (s, q - s + n) if swap else (s + n, q - s),
                         elt.scaled(sign * comb(q, s)))
        for m, u in _product(alg, table, y, c, beta).items():
            for q, elt in _product(alg, table, x, u, beta).items():
                _acc(out, (m, q) if swap else (q, m), elt.scaled(-sign))
    return LambdaPoly(out)


def conformal_associator_defect(alg, a, b, c, cocycle=None, beta=ZERO):
    """(a_lam b)_{lam+mu} c - a_lam (b_mu c), minus the same with a,b and
    lam,mu swapped, keyed by (lam-degree, mu-degree); zero iff the
    left-symmetry axiom holds on (a, b, c)."""
    return _defect(alg, _brackets(alg, cocycle), a, b, c, exact(beta))


def check_conformal_left_symmetry(alg, cocycle=None, beta=ZERO):
    beta = exact(beta)
    table = _brackets(alg, cocycle)
    violations = []
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        defect = _defect(alg, table, ModuleElement.basis(i), ModuleElement.basis(j),
                         ModuleElement.basis(k), beta)
        for key in sorted(defect.coeffs):
            elt = defect.coeffs[key]
            residual = tuple(sorted(elt.terms.items()))
            if elt.central:
                residual += ((("central",), elt.central),)
            violations.append(("left_symmetry", (i, j, k) + key, residual))
    return IdentityReport("CONFORMAL_LEFT_SYMMETRIC", not violations, tuple(violations))


# ---------------------------------------------------------------------------
# builders

def build_rank_one(c):
    c = exact(c)
    return AlgebraSpec(f"rank_one({c})", 1, ("L",),
                       {"ld": tensor(1, {(0, 0, 0): 1}),
                        "circ": tensor(1, {(0, 0, 0): c})})


def build_current(alg):
    """Current-type conformal algebra of a left-symmetric product.  An input
    with any other product is the wrong kind of algebra (AlgebraError); a
    circ that is not left-symmetric fails an identity (IdentityError)."""
    for op in ("ld", "rd", "dot"):
        if alg.has(op):
            raise AlgebraError("current construction expects a single product (circ)")
    require_identity(alg, "LEFT_SYMMETRIC")
    return AlgebraSpec.from_rows(f"{alg.name}~current", alg.dim, alg.basis, alg.den,
                                 {"circ": alg.rows("circ")})


# ---------------------------------------------------------------------------
# windowed coefficient algebra

class WindowedElement:
    """Element of the coefficient algebra restricted to |exponent| <= window.

    terms hold in-window coordinates; escapes hold products that left the
    window (kept so checks can refuse rather than silently truncate);
    central is the coordinate on the adjoined centre (at t^{-1}).
    """

    __slots__ = ("window", "terms", "central", "escapes")

    def __init__(self, window, terms=None, central=ZERO, escapes=None):
        self.window = window
        self.terms = {k: x for k, v in (terms or {}).items() if (x := exact(v))}
        self.central = exact(central)
        self.escapes = {k: x for k, v in (escapes or {}).items() if (x := exact(v))}
        for (_, m) in self.terms:
            if abs(m) > window:
                raise WindowMismatch(f"exponent {m} outside window {window}")

    @classmethod
    def basis(cls, window, i, m):
        return cls(window, {(i, m): ONE})

    def __eq__(self, other):
        return (isinstance(other, WindowedElement) and self.window == other.window
                and self.terms == other.terms and self.central == other.central
                and self.escapes == other.escapes)

    def __repr__(self):
        return (f"WindowedElement(window={self.window}, terms={self.terms!r}, "
                f"central={self.central!r}, escapes={self.escapes!r})")


def _pair_table(alg, window, cocycle, beta):
    """(e_i (x) t^m)(e_j (x) t^n) for the basis elements at the flat indices
    x = i * (2 window + 1) + m + window and y likewise, as a list over all
    pairs, at x * N + y with N = dim * (2 window + 1).  An entry is
    (terms, escapes, central), scaled by alg.den: terms hold (flat index,
    int) pairs inside the window, escapes ((k, exponent), int) pairs outside
    it.  The lam^q part of e_i _lam e_j, times m(m-1)...(m-q+1), lands at
    t^{m+n-q}.  Its central part folds into c t^{-1}: d c = beta c makes
    c t^{-1-j} = (beta^j / j!) c t^{-1} and c t^e = 0 for e >= 0."""
    brackets, width = _brackets(alg, cocycle), 2 * window + 1
    keys = list(itertools.product(range(alg.dim), range(-window, window + 1)))

    def entry(x, y):
        (i, m), (j, n) = keys[x], keys[y]
        out, central = {}, 0
        for q, row, cen in brackets[i, j]:
            f, e = prod(range(m, m - q, -1)), m + n - q
            for (d, k), v in row:
                out[k, e - d] = out.get((k, e - d), 0) + (-e if d else 1) * f * v
            if e == -1:
                central += f * cen
            elif e < -1 and cen and beta:
                central += f * cen * beta ** (-1 - e) / factorial(-1 - e)
        terms = [(key, v) for key, v in out.items() if v]
        return (tuple((k * width + e + window, v) for (k, e), v in terms if abs(e) <= window),
                tuple(((k, e), v) for (k, e), v in terms if abs(e) > window), central)

    return [entry(x, y) for x in range(len(keys)) for y in range(len(keys))]


def _accumulate(table, size, xs, ys, terms, escapes):
    """Add the product of the (flat index, coefficient) sums xs and ys, read
    off the pair table, into terms and escapes; return its central part.
    Escaped terms are summed before anyone looks at them: they can cancel."""
    central = 0
    for u, cu in xs:
        for v, cv in ys:
            s = cu * cv
            inside, outside, c = table[u * size + v]
            for key, w in inside:
                terms[key] = terms.get(key, 0) + s * w
            for key, w in outside:
                escapes[key] = escapes.get(key, 0) + s * w
            if c:
                central += s * c
    return central


def coeff_product(alg, x, y, cocycle=None):
    """x y in the windowed coefficient algebra, the centre at t^-1 (d c = 0)."""
    if x.window != y.window:
        raise WindowMismatch(f"windows differ: {x.window} vs {y.window}")
    if x.escapes or y.escapes:
        raise WindowMismatch("operand carries escaped terms; result undefined")
    window, width = x.window, 2 * x.window + 1
    xs, ys = ([(i * width + m + window, c) for (i, m), c in u.terms.items()] for u in (x, y))
    table = _pair_table(alg, window, cocycle, ZERO)
    terms, escapes = {}, {}
    central = _accumulate(table, alg.dim * width, xs, ys, terms, escapes)
    den = alg.den
    # the table is scaled by alg.den; dividing back is exact
    return WindowedElement(window, {(k // width, k % width - window): Fraction(v, den)
                                    for k, v in terms.items()}, Fraction(central, den),
                           {k: Fraction(v, den) for k, v in escapes.items()})


def check_coeff_left_symmetry(alg, window, cocycle=None, beta=ZERO):
    """Left-symmetry of the windowed coefficient algebra, d c = beta c.

    Exponent triples whose intermediate or final products leave the window
    are skipped (and counted), never truncated.  Basis elements are swept
    by flat index (e_i (x) t^m at i * (2 window + 1) + m + window), and the
    products are integer combinations of pair-table entries, scaled by
    alg.den ** 2.  The residual (xy)z - x(yz) - (yx)z + y(xz) is
    antisymmetric in x and y for any bilinear product, and swapping x and y
    only permutes its four products, so a skip at (x, y, z) is a skip at
    (y, x, z).  So the residual is computed once, at x < y, and negated at
    x > y; at x = y it is zero, and only the skip decision is computed.
    """
    width, scale = 2 * window + 1, alg.den ** 2
    size, table = alg.dim * width, _pair_table(alg, window, cocycle, exact(beta))
    escaping = [bool(entry[1]) for entry in table]

    def outcome(x, y, z):
        # None if skipped, else the residual: () at x = y
        xy, yx, yz, xz = x * size + y, y * size + x, y * size + z, x * size + z
        if escaping[xy] or escaping[yx] or escaping[yz] or escaping[xz]:
            return None
        # (xy)z - x(yz) - (yx)z + y(xz), the signs carried by the basis factor;
        # at x = y the last two products repeat the first two
        products = ((table[xy][0], ((z, 1),)), (((x, -1),), table[yz][0]),
                    (table[yx][0], ((z, -1),)), (((y, 1),), table[xz][0]))
        res, rc = {}, 0
        for xs, ys in products[:2] if x == y else products:
            escapes = {}
            rc += _accumulate(table, size, xs, ys, res, escapes)
            if any(escapes.values()):
                return None
        if x == y:
            return ()
        residual = tuple(((k // width, k % width - window), Fraction(v, scale))
                         for k, v in sorted(res.items()) if v)
        if rc:
            residual += ((("central",), Fraction(rc, scale)),)
        return residual

    violations, skipped, mirrored = [], 0, {}
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        for m, n, p in itertools.product(range(width), repeat=3):
            x, y, z = i * width + m, j * width + n, k * width + p
            # this order visits (x, y, z) before (y, x, z) whenever x < y
            if x > y:
                found = mirrored.pop((x, y, z))
                found = found and tuple((key, -v) for key, v in found)
            else:
                found = outcome(x, y, z)
                if x < y:
                    mirrored[y, x, z] = found
            if found is None:
                skipped += 1
            elif found:
                violations.append(((i, j, k), (m - window, n - window, p - window), found))
    return IdentityReport("COEFF_LEFT_SYMMETRIC", not violations,
                          tuple(violations), skipped)


# ---------------------------------------------------------------------------
# pretty-printing

def _power(symbol, n):
    return "" if not n else symbol if n == 1 else f"{symbol}^{n}"


def _join_terms(terms):
    """terms joined by " + ", or by " - " before a term with a leading minus."""
    return terms[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}"
                              for t in terms[1:])


def format_lambda_poly(lp, basis):
    """Stable rendering: a chunk per basis label, then one for the central
    symbol, each a polynomial in d and lam, d-degree then lam-degree
    descending."""
    labels = (*basis, CENTRAL_SYMBOL)
    polys = [{} for _ in labels]
    for ldeg, elt in lp.coeffs.items():
        for (d, i), coeff in elt.terms.items():
            polys[i][d, ldeg] = coeff
        if elt.central:
            polys[-1][0, ldeg] = elt.central
    chunks = []
    for label, poly in zip(labels, polys):
        monos = []
        for (d, ldeg), c in sorted(poly.items(), reverse=True):
            body = _power(PARTIAL, d) + _power(LAM, ldeg)
            if body and abs(c) == 1:
                monos.append(body if c == 1 else "-" + body)
            else:
                monos.append(f"{c}{body}")
        if len(monos) > 1:
            chunks.append(f"({_join_terms(monos)}){CDOT}{label}")
        elif monos:
            chunks.append(label if monos == ["1"] else f"{monos[0]}{CDOT}{label}")
    return _join_terms(chunks) if chunks else "0"
