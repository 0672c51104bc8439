"""Reference implementations that tests compare the library against.

* `rref` is the dense integer Gauss-Jordan elimination the library used
  before its sparse echelon, with `reduce_against` and
  `quotient_representatives` rebuilding the echelon after every insertion
  as the library once did.
* `ClearChainSubspace` is `lsconf.linalg.Subspace` with the residual the
  library computed before its one-accumulator form: the stored pivots the
  vector meets are cleared one at a time with `_clear`, each step
  re-reduced by its gcd.
* `prod_basis`/`eval_product`, `ideal_closure`, `associative_envelope`
  and `generate_cocycle_system` are the Fraction kernels the library used
  before its memoised integer structure rows: every product is read off
  the stored tensors one basis pair at a time, and the cocycle system is
  emitted as dense Fraction rows.
* `six_expansion_cocycle_system` is the integer cocycle system as the
  library emitted it before it expanded the identity through the products
  of the associated GD algebra: six alpha_{lam+mu} expansions per triple
  (one per ld, rd and circ product on each side) and separate beta and
  circ one-variable terms, each expansion rebuilding its binomial
  coefficients.
* `search` is the random ideal search the library ran before it decided
  ideal existence exactly from the envelope and its trace-form radical,
  with its stages in their first order: unit-vector closures, `trials`
  random closures, envelope, `trials` envelope-kernel probes.  Tests use
  it to check that every ideal it finds is still a `not_simple` verdict.
* `certify_conformal_simplicity` is the conformal certificate flow before
  it searched the (ld, rd) operators first: the three-operation search
  always runs, (ld, rd) is searched after it, and the Novikov-Poisson rule
  runs its own (ld, circ) search.
* `check_star_nonzero` tests the necessary condition that every simple
  pre-Novikov algebra meets, a nonzero star product.  The library carried
  it in `lsconf.ideals` until only the tests called it: its certificate
  reads the stronger spanning rule instead.
* `nullspace`, `coboundary_space` and `h2` are Z2, B2 and H2 as the
  library computed them before it kept them on integer rows: the kernel
  read off the dense `rref`, coboundaries as dense Fraction matrix-vector
  products, and representatives from `quotient_representatives`.
* `check_identity` evaluates the identity catalog as the library did before
  its tables kept only their nonzero entries: every law is summed at every
  index tuple of the domain, each term a lookup in a table that holds every
  tuple of leaves, zero products included.
* `check_representation` checks the module axioms as the library did
  before it read them off the catalog on the split null extension: seven
  matrix laws over basis pairs, written out by hand.
* `lambda_product` and `conformal_associator_defect` are the lam-calculus as
  the library ran it before it read one bracket table: the product of each
  basis pair rebuilt from the integer rows inside every lam-product, and the
  defect as four separately built double products.
* `v_part` (drop the central coordinate) and `apply_partial` (the formal
  d, acting on the centre as beta) are the element methods the library
  carried on ModuleElement and WindowedElement until only these oracles
  and the tests called them.
* `coeff_product`/`check_coeff_left_symmetry` are the windowed coefficient
  algebra as the library ran it before it read the coefficient products off
  the lam-bracket's modes: the explicit formula m (a rd b) - n (b ld a) at
  t^{m+n-1} plus a circ b at t^{m+n}, with `_eta` for the centre, in
  Fractions.  Each basis pair's product is computed once per check (or per
  `memo`); the four second-level products of every exponent triple are
  summed from them.
* `zinbiel_to_pre_novikov`, `pre_novikov_to_pre_gd`, `zinbiel_to_pre_gd`,
  `ls_poisson_to_pre_gd` and `comm_assoc_derivation_to_novikov_poisson`
  are the construction formulas as the library evaluated them before it
  wrote them in the catalog's notation: a dense Fraction loop over basis
  pairs through `eval_product`, with the derivation applied to each basis
  vector.  They build the output's ops and name only, checking nothing;
  `zinbiel_to_pre_gd` takes its circ from the direct formula
  k(a.D(b) - D(a).b), the route the library compares its composite with.
* `mat_vec` and `apply` (a LinearMapSpec on a coordinate vector) are the
  dense matrix-vector product the library carried as `linalg.mat_vec` and
  `LinearMapSpec.apply` until nothing in it used them.
* `dump_json` is the stdlib rendering every written JSON had before the
  library's direct writer: `json.dumps` with sorted keys and indent 2.
* `distinct_up_to_scale` is the filter `h2` ran on the cocycle system
  before it resolved forced-zero columns: it drops every row that is a
  scalar multiple of an earlier one.  Tests use it to compare systems up
  to scale and to count the rows a system repeats.
* `random_basis_change`, `change_basis`, `change_cocycle_basis` and
  `change_map_basis` move an algebra, a cocycle family and a linear map to
  the basis given by the columns of a random P in GL_n(Q), written out
  dense from the definitions, for the basis-change tests.
* `hardcoded_cocycle_system` holds the explicitly listed cap-3 equation
  systems (general, pre-Novikov, pre-Novikov at beta = 0, LS-Poisson),
  written out by hand as a cross-check of the mechanical expansion in
  `lsconf.cohomology.generate_cocycle_system`.
"""

import itertools
import json
import random
from fractions import Fraction
from math import comb, gcd, prod
from operator import itemgetter

from lsconf.algebras import (AlgebraSpec, IdentityReport, LinearMapSpec, MissingMaps,
                             UnknownOp, _laws, _products, _shape,
                             novikov_star, products_span, require_identity, tensor)
from lsconf.cohomology import CocycleFamily, CohomologyError, coord_index, ncols
from lsconf.conformal import LambdaPoly, ModuleElement, WindowedElement, WindowMismatch
from lsconf import ideals, linalg
from lsconf.ideals import PRE_GD_OPS
from lsconf.linalg import ONE, ZERO, DimensionMismatch, Subspace, exact, mat_mul, unit, vzero


def identity_matrix(n):
    return [unit(n, i) for i in range(n)]


def vadd(u, v):
    return [a + b for a, b in zip(u, v)]


def vsub(u, v):
    return [a - b for a, b in zip(u, v)]


def vscale(c, u):
    return [c * a for a in u]


def mat_vec(rows, v):
    if rows and len(rows[0]) != len(v):
        raise DimensionMismatch(f"matrix has {len(rows[0])} columns, vector has {len(v)}")
    return [sum(r[j] * v[j] for j in range(len(v))) for r in rows]


def apply(m, v):
    """The LinearMapSpec m applied to the coordinate vector v."""
    return mat_vec(m.matrix, v)


def distinct_up_to_scale(rows):
    """Integer rows without those that are a scalar multiple of an earlier
    one, compared by their gcd-primitive form with a positive lead."""
    seen, out = set(), []
    for row in rows:
        g = gcd(*row.values())
        if row[min(row)] < 0:
            g = -g
        key = frozenset({c: x // g for c, x in row.items()}.items())
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def dump_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# dense elimination

def _int_row(row):
    """Scale a Fraction row to coprime integers; None for the zero row."""
    den = 1
    for x in row:
        d = x.denominator
        den = den * d // gcd(den, d)
    ints = [int(x * den) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g == 0:
        return None
    return [v // g for v in ints]


def rref(rows, ncols):
    """Reduced row echelon form of `rows` (each of length `ncols`).

    Returns (rref_rows, pivot_cols): rows with leading entry 1, zeros above
    and below every pivot, ordered by pivot column.
    """
    work = []
    for r in rows:
        if len(r) != ncols:
            raise DimensionMismatch(f"row of length {len(r)}, expected {ncols}")
        ir = _int_row(r)
        if ir is not None:
            work.append(ir)
    pivots = []
    nrows = len(work)
    for col in range(ncols):
        npiv = len(pivots)
        hit = None
        for i in range(npiv, nrows):
            if work[i][col]:
                hit = i
                break
        if hit is None:
            continue
        work[npiv], work[hit] = work[hit], work[npiv]
        prow = work[npiv]
        pv = prow[col]
        for i in range(nrows):
            if i == npiv:
                continue
            v = work[i][col]
            if not v:
                continue
            row = work[i]
            comb = [pv * a - v * b for a, b in zip(row, prow)]
            g = 0
            for x in comb:
                g = gcd(g, x)
            if g > 1:
                comb = [x // g for x in comb]
            work[i] = comb
        pivots.append(col)
        if len(pivots) == nrows:
            break
    out = []
    for k, col in enumerate(pivots):
        row = work[k]
        lead = Fraction(row[col])
        out.append([Fraction(x) / lead for x in row])
    return out, pivots


class ClearChainSubspace(Subspace):
    """Subspace whose residual clears one stored pivot at a time."""

    __slots__ = ()

    def _residual(self, v):
        n = self.ambient_dim
        if not isinstance(v, dict) and len(v) != n:
            raise DimensionMismatch(f"vector of length {len(v)} in ambient dimension {n}")
        t, rows = linalg.int_row(v), self._rows
        for p in [c for c in t if c in rows]:
            t = linalg._clear(t, rows[p], p)
        return t


def reduce_against(red, pivots, v):
    """Residual of v after eliminating the pivots of an rref result."""
    w = list(v)
    for row, pc in zip(red, pivots):
        c = w[pc]
        if c:
            for j in range(len(w)):
                w[j] -= c * row[j]
    return w


def quotient_representatives(big_rows, small_rows, ncols):
    """The quotient representatives of span(big) mod span(small),
    re-eliminating from scratch after every accepted vector."""
    big, _ = rref(big_rows, ncols)
    seen, seen_piv = rref(small_rows, ncols)
    reps = []
    for b in big:
        r = reduce_against(seen, seen_piv, b)
        if any(r):
            reps.append(r)
            seen, seen_piv = rref(seen + [r], ncols)
    return reps


# ---------------------------------------------------------------------------
# Fraction kernels, one product at a time

def prod_basis(alg, op, i, j):
    """e_i op e_j as a coordinate vector (derived ops included)."""
    ops = alg.ops
    if op in ("ld", "rd", "circ", "dot"):
        t = ops.get(op)
        return vzero(alg.dim) if t is None else list(t[i][j])
    if op == "ast":
        return vadd(prod_basis(alg, "ld", i, j), prod_basis(alg, "rd", i, j))
    if op == "star":
        return vadd(prod_basis(alg, "rd", i, j), prod_basis(alg, "ld", j, i))
    if op == "bracket":
        t = ops.get("bracket")
        if t is not None:
            return list(t[i][j])
        return vsub(prod_basis(alg, "circ", i, j), prod_basis(alg, "circ", j, i))
    raise UnknownOp(f"unknown op {op!r}")


def eval_product(alg, op, x, y):
    """Bilinear extension of op to coordinate vectors."""
    if len(x) != alg.dim or len(y) != alg.dim:
        raise DimensionMismatch("operand length does not match algebra dim")
    out = vzero(alg.dim)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            p = prod_basis(alg, op, i, j)
            c = xi * yj
            for k in range(alg.dim):
                if p[k]:
                    out[k] += c * p[k]
    return out


# ---------------------------------------------------------------------------
# constructions, one basis pair at a time

def _dot(alg, x, y):
    return eval_product(alg, "dot", x, y)


def _derivation_columns(D):
    return [mat_vec(D.matrix, unit(D.dim, j)) for j in range(D.dim)]


def zinbiel_to_pre_novikov(zin, D, xi):
    """a ld b = D(b).a + xi b.a,  a rd b = a.D(b) + xi a.b"""
    xi = Fraction(xi)
    dim = zin.dim
    dcols = _derivation_columns(D)
    ld, rd = tensor(dim), tensor(dim)
    for i in range(dim):
        ei = unit(dim, i)
        for j in range(dim):
            ej, dj = unit(dim, j), dcols[j]
            ld[i][j] = vadd(_dot(zin, dj, ei), vscale(xi, _dot(zin, ej, ei)))
            rd[i][j] = vadd(_dot(zin, ei, dj), vscale(xi, _dot(zin, ei, ej)))
    return AlgebraSpec(f"{zin.name}~pn(xi={xi})", dim, zin.basis, {"ld": ld, "rd": rd})


def pre_novikov_to_pre_gd(pn, k):
    """Adjoin circ = k(a rd b - b ld a)."""
    k = Fraction(k)
    dim = pn.dim
    circ = tensor(dim)
    for i in range(dim):
        for j in range(dim):
            circ[i][j] = [k * (r - l) for r, l in
                          zip(prod_basis(pn, "rd", i, j), prod_basis(pn, "ld", j, i))]
    ops = {op: pn.ops[op] for op in ("ld", "rd") if pn.has(op)}
    ops["circ"] = circ
    return AlgebraSpec(f"{pn.name}~pregd(k={k})", dim, pn.basis, ops)


def zinbiel_to_pre_gd(zin, D, xi, k):
    """ld and rd of zinbiel_to_pre_novikov, circ = k(a.D(b) - D(a).b)."""
    xi, k = Fraction(xi), Fraction(k)
    dim = zin.dim
    dcols = _derivation_columns(D)
    ops = dict(zinbiel_to_pre_novikov(zin, D, xi).ops)
    ops["circ"] = tensor(dim)
    for i in range(dim):
        for j in range(dim):
            ops["circ"][i][j] = vscale(k, vsub(_dot(zin, unit(dim, i), dcols[j]),
                                               _dot(zin, dcols[i], unit(dim, j))))
    return AlgebraSpec(f"{zin.name}~pregd(xi={xi},k={k})", dim, zin.basis, ops)


def ls_poisson_to_pre_gd(lsp):
    """ld = dot, rd = 0, circ carried over."""
    ops = {new: lsp.ops[old] for old, new in (("dot", "ld"), ("circ", "circ"))
           if lsp.has(old)}
    return AlgebraSpec(f"{lsp.name}~pregd", lsp.dim, lsp.basis, ops)


def comm_assoc_derivation_to_novikov_poisson(A, D):
    """x circ y = x . D(y)."""
    dim = A.dim
    dcols = _derivation_columns(D)
    circ = tensor(dim)
    for i in range(dim):
        for j in range(dim):
            circ[i][j] = _dot(A, unit(dim, i), dcols[j])
    ops = {"circ": circ}
    if A.has("dot"):
        ops["dot"] = A.ops["dot"]
    return AlgebraSpec(f"{A.name}~np", dim, A.basis, ops)


def ideal_closure(alg, seed, ops=PRE_GD_OPS):
    """Least subspace containing seed with x op v, v op x inside, for
    every basis v and listed op."""
    dim = alg.dim
    ops = tuple(sorted(set(ops)))
    closure = seed.copy() if isinstance(seed, Subspace) else Subspace(dim, seed)
    todo = list(closure.basis)
    while todo:
        x = todo.pop()
        for i in range(dim):
            e = unit(dim, i)
            for op in ops:
                for v in (eval_product(alg, op, e, x), eval_product(alg, op, x, e)):
                    if closure.add(v):
                        todo.append(v)
    return closure


def _mult_matrix(alg, op, x, side):
    """Matrix of v -> x op v (side 'l') or v -> v op x (side 'r')."""
    dim = alg.dim
    cols = []
    for j in range(dim):
        e = unit(dim, j)
        cols.append(eval_product(alg, op, x, e) if side == "l"
                    else eval_product(alg, op, e, x))
    return [[cols[j][k] for j in range(dim)] for k in range(dim)]


def multiplication_operators(alg, ops=PRE_GD_OPS):
    """Left and right multiplication by every basis element, per op."""
    out = []
    for op in sorted(set(ops)):
        for i in range(alg.dim):
            e = unit(alg.dim, i)
            out.append(_mult_matrix(alg, op, e, "l"))
            out.append(_mult_matrix(alg, op, e, "r"))
    return out


def associative_envelope(alg, ops=PRE_GD_OPS):
    """Span of all words in the multiplication operators (with identity),
    as a subspace of flattened dim x dim matrices."""
    dim = alg.dim
    gens = multiplication_operators(alg, ops)

    def flat(m):
        return [x for row in m for x in row]

    span = Subspace(dim * dim, [flat(identity_matrix(dim))])
    frontier = [identity_matrix(dim)]
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                gm = mat_mul(g, m)
                if span.add(flat(gm)):
                    if span.is_full():
                        return span
                    fresh.append(gm)
        frontier = fresh
    return span


def _random_vector(rng, dim):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]


def search(alg, ops, trials, rng_seed):
    """The old random search of `lsconf.ideals`, random trials ahead of the
    envelope: (proper ideal or None, envelope_full flag).  Closures,
    envelope and kernels are the library's, each checked against its own
    oracle."""
    def proper(seed):
        closure = ideals.ideal_closure(alg, [seed], ops)
        return closure if 0 < closure.dim < alg.dim else None

    dim = alg.dim
    for i in range(dim):
        found = proper(unit(dim, i))
        if found is not None:
            return found, False
    rng = random.Random(rng_seed)
    for _ in range(trials):
        found = proper(_random_vector(rng, dim))
        if found is not None:
            return found, False
    env = ideals.associative_envelope(alg, ops)
    if env.dim == dim * dim:
        return None, True
    for _ in range(trials):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in env.basis]
        mat = [[sum((c * b[r * dim + s] for c, b in zip(coeffs, env.basis)), ZERO)
                for s in range(dim)] for r in range(dim)]
        for v in linalg.nullspace(mat, dim).basis:
            found = proper(v)
            if found is not None:
                return found, False
    return None, False


def certify_conformal_simplicity(alg, trials=20, rng_seed=0):
    """The conformal certificate flow as the library ran it before it
    searched (ld, rd) first: the three-operation search always, then
    (ld, rd) a second time, and a Novikov-Poisson search of (ld, circ).
    The searches and rules are the library's."""
    log = []
    gd_cert = ideals.simple_on_ops(alg)
    log.append(f"three-operation algebra: {gd_cert.verdict} ({gd_cert.criterion})")
    if gd_cert.verdict == "not_simple":
        log.extend(gd_cert.details)
        log.append("ideal lifts to a polynomial-coefficient ideal of the "
                   "conformal algebra")
        return ideals.SimplicityCertificate("not_simple", "lifted_ideal",
                                            witness=gd_cert.witness,
                                            details=tuple(log))

    if not (alg.has("ld") or alg.has("rd")):
        log.append("two-operation part is trivial; spanning rule skipped")
    else:
        pn_cert = ideals.simple_on_ops(alg, ("ld", "rd"))
        log.append(f"two-operation part: {pn_cert.verdict} ({pn_cert.criterion})")
        if pn_cert.verdict == "simple":
            if products_span(alg, "star"):
                log.append("star products span V")
                return ideals.SimplicityCertificate(
                    "simple", "pre_novikov_simple_spanning", details=tuple(log))
            log.append("star products do not span V")

    if not alg.has("rd"):
        a = ideals._regular_element(alg, trials, rng_seed)
        if a is not None:
            log.append("found a with jointly injective ld multiplications")
            return ideals.SimplicityCertificate(
                "simple", "rd_trivial_regular_element", witness=tuple(a),
                details=tuple(log))
        log.append("no regular element found")

        if alg.has("ld") and alg.has("circ"):
            probe = AlgebraSpec(alg.name + "~np?", alg.dim, alg.basis,
                                {"dot": alg.ops["ld"], "circ": alg.ops["circ"]})
            if ideals.check_identity(probe, "NOVIKOV_POISSON").passed:
                log.append("ld together with circ satisfies the "
                           "Novikov-Poisson laws")
                np_cert = ideals.simple_on_ops(alg, ("ld", "circ"))
                if np_cert.verdict == "simple":
                    return ideals.SimplicityCertificate(
                        "simple", "novikov_poisson_simple", details=tuple(log))
                log.append(f"Novikov-Poisson algebra: {np_cert.verdict}")

    return ideals.SimplicityCertificate("inconclusive", "no_applicable_criterion",
                                        details=tuple(log))


def check_star_nonzero(alg):
    """Some basis pair has a rd b != -(b ld a), i.e. a nonzero star
    product; holds for every simple pre-Novikov algebra."""
    return any(row for plane in alg.rows("star") for row in plane)


def _add(acc, key, col, coeff):
    if not coeff:
        return
    row = acc.setdefault(key, {})
    row[col] = row.get(col, ZERO) + coeff


def generate_cocycle_system(alg, beta, degree_cap):
    """Constraint matrix of the extension identity, one row per basis
    triple and lam^i mu^j monomial (zero rows dropped; duplicates are
    dependent, so elimination drops them)."""
    require_identity(alg, "PRE_GD")
    beta = Fraction(beta)
    cap, dim = degree_cap, alg.dim
    width = ncols(cap, dim)

    def alpha_lm(acc, uvec, cidx, sign, dl, dm):
        # sign * lam^dl mu^dm * alpha_{lam+mu}(u, e_c)
        for i in range(cap + 1):
            for p in range(i + 1):
                co = sign * comb(i, p)
                for a2, cu in enumerate(uvec):
                    if cu:
                        _add(acc, (p + dl, i - p + dm),
                             coord_index(cap, dim, i, a2, cidx), co * cu)

    def alpha_one(acc, fidx, vvec, sign, dl, dm, var):
        # sign * lam^dl mu^dm * alpha_v(e_f, v), v = lam (var 0) or mu (var 1)
        for i in range(cap + 1):
            key = (i + dl, dm) if var == 0 else (dl, i + dm)
            for b2, cv in enumerate(vvec):
                if cv:
                    _add(acc, key, coord_index(cap, dim, i, fidx, b2), sign * cv)

    rows = []
    for a, b, c in itertools.product(range(dim), repeat=3):
        acc = {}
        alpha_lm(acc, prod_basis(alg, "ld", b, a), c, -ONE, 0, 1)
        alpha_lm(acc, prod_basis(alg, "rd", a, b), c, ONE, 1, 0)
        alpha_lm(acc, prod_basis(alg, "circ", a, b), c, ONE, 0, 0)
        alpha_one(acc, a, prod_basis(alg, "ld", c, b), -ONE, 1, 0, 0)
        alpha_one(acc, a, prod_basis(alg, "ld", c, b), -beta, 0, 0, 0)
        alpha_one(acc, a, prod_basis(alg, "star", b, c), -ONE, 0, 1, 0)
        alpha_one(acc, a, prod_basis(alg, "circ", b, c), -ONE, 0, 0, 0)
        # minus the swapped side
        alpha_lm(acc, prod_basis(alg, "ld", a, b), c, ONE, 1, 0)
        alpha_lm(acc, prod_basis(alg, "rd", b, a), c, -ONE, 0, 1)
        alpha_lm(acc, prod_basis(alg, "circ", b, a), c, -ONE, 0, 0)
        alpha_one(acc, b, prod_basis(alg, "ld", c, a), ONE, 0, 1, 1)
        alpha_one(acc, b, prod_basis(alg, "ld", c, a), beta, 0, 0, 1)
        alpha_one(acc, b, prod_basis(alg, "star", a, c), ONE, 1, 0, 1)
        alpha_one(acc, b, prod_basis(alg, "circ", a, c), ONE, 0, 0, 1)
        for key in sorted(acc):
            form = acc[key]
            if any(form.values()):
                rows.append([form.get(col, ZERO) for col in range(width)])
    return rows


def six_expansion_cocycle_system(alg, beta, degree_cap):
    """Constraint rows {col: int} of the extension identity, one per basis
    triple (a, b, c) with a <= b and lam^i mu^j monomial (i < j when
    a = b), scaled by alg.den * beta.denominator.  A triple with a > b, or
    a diagonal monomial with i >= j, would only repeat an emitted row up to
    sign or give zero (see the module docstring).  Zero rows are dropped;
    rows that repeat an earlier one up to scale are kept, and h2 drops them
    before elimination."""
    beta = exact(beta)
    require_identity(alg, "PRE_GD")
    cap, dim = degree_cap, alg.dim
    bn, bd = beta.numerator, beta.denominator
    ld, rd, circ, star = (alg.rows(op) for op in ("ld", "rd", "circ", "star"))

    def alpha_lm(acc, u, cidx, sign, dl, dm):
        # sign * lam^dl mu^dm * alpha_{lam+mu}(u, e_c)
        for i in range(cap + 1):
            for p in range(i + 1):
                co = sign * comb(i, p)
                row = acc.setdefault((p + dl, i - p + dm), {})
                for a2, cu in u:
                    col = coord_index(cap, dim, i, a2, cidx)
                    row[col] = row.get(col, 0) + co * cu

    def alpha_one(acc, fidx, v, sign, dl, dm, var):
        # sign * lam^dl mu^dm * alpha_v(e_f, v), v = lam (var 0) or mu (var 1)
        for i in range(cap + 1):
            row = acc.setdefault((i + dl, dm) if var == 0 else (dl, i + dm), {})
            for b2, cv in v:
                col = coord_index(cap, dim, i, fidx, b2)
                row[col] = row.get(col, 0) + sign * cv

    rows = []
    for (a, b), c in itertools.product(itertools.combinations_with_replacement(range(dim), 2),
                                       range(dim)):
        acc = {}
        alpha_lm(acc, ld[b][a], c, -bd, 0, 1)
        alpha_lm(acc, rd[a][b], c, bd, 1, 0)
        alpha_lm(acc, circ[a][b], c, bd, 0, 0)
        alpha_one(acc, a, ld[c][b], -bd, 1, 0, 0)
        alpha_one(acc, a, ld[c][b], -bn, 0, 0, 0)
        alpha_one(acc, a, star[b][c], -bd, 0, 1, 0)
        alpha_one(acc, a, circ[b][c], -bd, 0, 0, 0)
        # minus the swapped side
        alpha_lm(acc, ld[a][b], c, bd, 1, 0)
        alpha_lm(acc, rd[b][a], c, -bd, 0, 1)
        alpha_lm(acc, circ[b][a], c, -bd, 0, 0)
        alpha_one(acc, b, ld[c][a], bd, 0, 1, 1)
        alpha_one(acc, b, ld[c][a], bn, 0, 0, 1)
        alpha_one(acc, b, star[a][c], bd, 1, 0, 1)
        alpha_one(acc, b, circ[a][c], bd, 0, 0, 1)
        for key in sorted(acc):
            if a == b and key[0] >= key[1]:
                continue
            row = {col: x for col, x in acc[key].items() if x}
            if row:
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# the identity catalog on every index tuple

def _sparse(vec):
    return tuple((k, x) for k, x in enumerate(vec) if x)


def _lincomb(pairs):
    """Sparse sum of c * vec over (c, sparse vec) pairs."""
    acc = {}
    for c, vec in pairs:
        for k, x in vec:
            acc[k] = acc.get(k, 0) + c * x
    return tuple((k, x) for k, x in acc.items() if x)


def _residuals(alg, laws, aux, leaves, domain):
    """Yield (label, idx, residual) per law and per index tuple of
    domain(arity); idx picks the law's arguments a, b, c from leaves.

    Every distinct nested product is tabulated once over all tuples of
    leaves, from the integer rows (scaled by alg.den per op node); a term is
    then a signed lookup under the permutation its letters spell, and a
    nonzero residual is divided back once.
    """
    tensors = {} if aux is None else {"aux": [_sparse(col) for col in zip(*aux.matrix)]}
    tables = {None: {(x,): _sparse(v) for x, v in enumerate(leaves)}}

    def op_table(op):
        if op not in tensors:
            t = alg.rows({"nov": novikov_star(alg), "s1": "ld"}.get(op, op))
            tensors[op] = list(zip(*t)) if op == "s1" else t
        return tensors[op]

    def table(shape):
        if shape not in tables:
            t = op_table(shape[0])
            if len(shape) == 2:
                tables[shape] = {key: _lincomb((x, t[j]) for j, x in v)
                                 for key, v in table(shape[1]).items()}
            else:
                tables[shape] = {
                    kl + kr: _lincomb((x * y, t[i][j]) for i, x in u for j, y in v)
                    for kl, u in table(shape[1]).items()
                    for kr, v in table(shape[2]).items()}
        return tables[shape]

    shaped = [(label, [(coef, *_shape(tree)) for coef, tree in terms])
              for label, terms in laws]
    last_use = {shape: n for n, (_, law) in enumerate(shaped) for _, shape, _ in law}
    for n, (label, law) in enumerate(shaped):
        top = max(_products(shape) for _, shape, _ in law)
        terms = [(coef * alg.den ** (top - _products(shape)), table(shape), itemgetter(*letters))
                 for coef, shape, letters in law]
        zero, scale = (ZERO,) * alg.dim, alg.den ** top
        for idx in domain(len(law[0][2])):
            acc = [0] * alg.dim
            for coef, tab, pick in terms:
                for k, x in tab[pick(idx)]:
                    acc[k] += coef * x
            yield label, tuple(idx), tuple(Fraction(x, scale) for x in acc) if any(acc) else zero
        # drop what no later law reads, which bounds the peak memory
        for shape, last in last_use.items():
            if last == n:
                del tables[shape]


def check_identity(alg, identity_id, aux=None, triples=None, pairs=None):
    """Evaluate an identity system on basis tuples.

    triples / pairs restrict the checked index tuples (used for truncated
    instances whose products are only faithful on a sub-domain); by default
    everything over basis^arity is checked, which is complete by
    multilinearity.
    """
    key, laws = _laws(alg, identity_id, aux)
    dim = alg.dim

    def domain(arity):
        given = pairs if arity == 2 else triples
        return given if given is not None else itertools.product(range(dim), repeat=arity)

    units = [[int(i == k) for k in range(dim)] for i in range(dim)]
    violations = tuple(v for v in _residuals(alg, laws, aux, units, domain) if any(v[2]))
    return IdentityReport(key, not violations, violations)


# ---------------------------------------------------------------------------
# Z2, B2 and H2 on dense Fraction vectors

def nullspace(rows, ncols):
    """Kernel of the matrix as a canonical Subspace of Q^ncols."""
    red, pivots = rref(rows, ncols)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = {f: ONE}
        v.update((pc, -row[f]) for row, pc in zip(red, pivots) if row[f])
        basis.append(v)
    return Subspace(ncols, basis)


def coboundary_space(alg, beta, degree_cap):
    """Image of phi -> (alpha_0 = beta phi(b ld a) + phi(a circ b),
    alpha_1 = phi(a star b), higher forms zero).  At cap 0 there is no
    alpha_1, so phi ranges over the functionals with phi(a star b) = 0."""
    beta = Fraction(beta)
    cap, dim = degree_cap, alg.dim
    ld, circ, star = ([[prod_basis(alg, op, i, j) for j in range(dim)] for i in range(dim)]
                      for op in ("ld", "circ", "star"))
    pairs = list(itertools.product(range(dim), repeat=2))
    alpha0 = [vadd(vscale(beta, ld[b][a]), circ[a][b]) for a, b in pairs]
    alpha1 = [star[a][b] for a, b in pairs]
    phis = identity_matrix(dim) if cap else nullspace(alpha1, dim).basis
    gens = []
    for phi in phis:
        # one dim*dim block per form, highest degree first (coord_index)
        head = [ZERO] * ((cap - 1) * dim * dim) + mat_vec(alpha1, phi) if cap else []
        gens.append(head + mat_vec(alpha0, phi))
    return Subspace(ncols(cap, dim), gens)


def h2(alg, beta, degree_cap):
    """(dim Z2, dim B2, cocycle basis, representatives) at an explicit cap,
    each family as its forms[i][a][b]: Z2 is the kernel of the dense
    cocycle system, B2 is spanned by dense coboundaries, and the
    representatives are reduced by `quotient_representatives`."""
    cap, dim = degree_cap, alg.dim
    width = ncols(cap, dim)
    z2 = nullspace(generate_cocycle_system(alg, beta, cap), width)
    b2 = coboundary_space(alg, beta, cap)
    if not z2.contains_subspace(b2):
        raise CohomologyError("coboundary outside the cocycle space")
    reps = quotient_representatives(z2.basis, b2.basis, width)

    def forms(vec):
        return tuple(tuple(tuple(vec[coord_index(cap, dim, i, a, b)] for b in range(dim))
                           for a in range(dim)) for i in range(cap + 1))

    return z2.dim, b2.dim, [forms(v) for v in z2.basis], [forms(v) for v in reps]


# ---------------------------------------------------------------------------
# lambda-products, each basis pair's product rebuilt per term pair

def v_part(x):
    """x without its central coordinate (a ModuleElement or WindowedElement)."""
    if isinstance(x, WindowedElement):
        return WindowedElement(x.window, x.terms, ZERO, x.escapes)
    return ModuleElement(x.terms)


def apply_partial(x, beta, times=1):
    """Formal d applied `times` times to the ModuleElement x; on the centre
    d acts as beta."""
    if times == 0:
        return x
    t = {(d + times, i): v for (d, i), v in x.terms.items()}
    return ModuleElement(t, x.central * beta ** times)


def _alpha(cocycle, i, a, b):
    if cocycle is None or i > cocycle.degree_cap:
        return ZERO
    return cocycle.forms[i][a][b]


def _base_product(alg, i, j, cocycle):
    """lam-coefficients of e_i _lam e_j as {lam-degree: ModuleElement}."""
    out = {}
    den = alg.den
    deg0 = {(1, k): Fraction(v, den) for k, v in alg.rows("ld")[j][i]}
    deg0.update({(0, k): Fraction(v, den) for k, v in alg.rows("circ")[i][j]})
    e0 = ModuleElement(deg0, _alpha(cocycle, 0, i, j))
    if not e0.is_zero():
        out[0] = e0
    e1 = ModuleElement({(0, k): Fraction(v, den) for k, v in alg.rows("star")[i][j]},
                       _alpha(cocycle, 1, i, j))
    if not e1.is_zero():
        out[1] = e1
    if cocycle is not None:
        for n in range(2, cocycle.degree_cap + 1):
            a = _alpha(cocycle, n, i, j)
            if a:
                out[n] = ModuleElement(central=a)
    return out


def _acc(store, key, elt):
    store[key] = store[key].plus(elt) if key in store else elt


def lambda_product(alg, x, y, cocycle=None, beta=ZERO):
    """x_lam y with central input coordinates ignored (centre annihilates)."""
    acc = {}
    for (d, i), cx in x.terms.items():
        for (e, j), cy in y.terms.items():
            scale = cx * cy * (-ONE) ** d
            for n, elt in _base_product(alg, i, j, cocycle).items():
                # (d^d x)_lam (d^e y) = (-lam)^d (d+lam)^e (x_lam y)
                for k in range(e + 1):
                    c = scale * comb(e, k)
                    _acc(acc, n + d + (e - k), apply_partial(elt, beta, k).scaled(c))
    return LambdaPoly(acc)


def conformal_associator_defect(alg, a, b, c, cocycle=None, beta=ZERO):
    """t1 - t2 - (t3 - t4) keyed (lam-degree, mu-degree), with t1 =
    (a_lam b)_{lam+mu} c, t2 = a_lam (b_mu c), t3 = (b_mu a)_{lam+mu} c and
    t4 = b_mu (a_lam c), each built on its own."""

    def outer(x, y, inner_var):
        out = {}
        for n, m_n in lambda_product(alg, x, y, cocycle, beta).coeffs.items():
            for q, elt in lambda_product(alg, v_part(m_n), c, cocycle, beta).coeffs.items():
                for s in range(q + 1):
                    lm = [s, q - s]
                    lm[inner_var] += n
                    _acc(out, tuple(lm), elt.scaled(comb(q, s)))
        return out

    def nested(x, y, outer_var):
        out = {}
        for m, u in lambda_product(alg, y, c, cocycle, beta).coeffs.items():
            for q, elt in lambda_product(alg, x, v_part(u), cocycle, beta).coeffs.items():
                _acc(out, (q, m) if outer_var == 0 else (m, q), elt)
        return out

    total = {}
    for sign, part in ((1, outer(a, b, 0)), (-1, nested(a, b, 0)),
                       (-1, outer(b, a, 1)), (1, nested(b, a, 1))):
        for key, elt in part.items():
            _acc(total, key, elt.scaled(sign))
    return LambdaPoly(total)


# ---------------------------------------------------------------------------
# windowed coefficient algebra, four Fraction products per exponent triple

def _eta(cocycle, i, j, m, n):
    """Central coefficient of (e_i (x) t^m)(e_j (x) t^n) from a cocycle:
    alpha_d contributes m(m-1)...(m-d+1) when m + n + 1 = d."""
    d = m + n + 1
    if cocycle is None or not 0 <= d <= cocycle.degree_cap:
        return ZERO
    return prod(range(m, m - d, -1)) * cocycle.forms[d][i][j]


def _basis_product(alg, window, cocycle, memo, a, b):
    """(e_i (x) t^m)(e_j (x) t^n) for a = (i, m) and b = (j, n), kept in memo
    for later calls with the same alg, window and cocycle."""
    if (a, b) not in memo:
        (i, m), (j, n) = a, b
        terms, escapes = {}, {}

        def place(vec, exp):
            target = terms if abs(exp) <= window else escapes
            for k, v in vec:
                if v:
                    # the integer rows are scaled by alg.den; dividing back is exact
                    target[k, exp] = target.get((k, exp), ZERO) + Fraction(v, alg.den)

        ld, rd, circ = alg.rows("ld"), alg.rows("rd"), alg.rows("circ")
        drop = {k: m * r for k, r in rd[i][j]}
        for k, l in ld[j][i]:
            drop[k] = drop.get(k, 0) - n * l
        place(sorted(drop.items()), m + n - 1)
        place(circ[i][j], m + n)
        memo[a, b] = WindowedElement(window, terms, _eta(cocycle, i, j, m, n), escapes)
    return memo[a, b]


def coeff_product(alg, x, y, cocycle=None, memo=None):
    """x y, summed over the products of basis pairs; memo as in _basis_product."""
    if x.window != y.window:
        raise WindowMismatch(f"windows differ: {x.window} vs {y.window}")
    if x.escapes or y.escapes:
        raise WindowMismatch("operand carries escaped terms; result undefined")
    window = x.window
    memo = {} if memo is None else memo
    terms, escapes, central = {}, {}, ZERO
    for a, cx in x.terms.items():
        for b, cy in y.terms.items():
            pair = _basis_product(alg, window, cocycle, memo, a, b)
            s = cx * cy
            for source, target in ((pair.terms, terms), (pair.escapes, escapes)):
                for key, v in source.items():
                    target[key] = target.get(key, ZERO) + s * v
            central += s * pair.central
    return WindowedElement(window, terms, central, escapes)


def check_coeff_left_symmetry(alg, window, cocycle=None):
    """Left-symmetry of the windowed coefficient algebra.

    Exponent triples whose intermediate or final products leave the window
    are skipped (and counted), never truncated.  Each basis pair's product
    is computed once per check.
    """
    dim = alg.dim
    violations = []
    skipped = 0
    exps = range(-window, window + 1)
    memo = {}

    def mul(u, v):
        return coeff_product(alg, u, v, cocycle, memo)

    def basis_mul(a, b):
        return _basis_product(alg, window, cocycle, memo, a, b)

    for i, j, k in itertools.product(range(dim), repeat=3):
        for m, n, p in itertools.product(exps, repeat=3):
            xy, yx = basis_mul((i, m), (j, n)), basis_mul((j, n), (i, m))
            yz, xz = basis_mul((j, n), (k, p)), basis_mul((i, m), (k, p))
            if xy.escapes or yx.escapes or yz.escapes or xz.escapes:
                skipped += 1
                continue
            x = WindowedElement.basis(window, i, m)
            y = WindowedElement.basis(window, j, n)
            z = WindowedElement.basis(window, k, p)
            t1 = mul(v_part(xy), z)
            t2 = mul(x, v_part(yz))
            t3 = mul(v_part(yx), z)
            t4 = mul(y, v_part(xz))
            if t1.escapes or t2.escapes or t3.escapes or t4.escapes:
                skipped += 1
                continue
            res = {}
            for sign, t in ((1, t1), (-1, t2), (-1, t3), (1, t4)):
                for key, v in t.terms.items():
                    res[key] = res.get(key, ZERO) + sign * v
            res = {k2: v for k2, v in res.items() if v}
            rc = t1.central - t2.central - t3.central + t4.central
            if res or rc:
                residual = tuple(sorted(res.items()))
                if rc:
                    residual += ((("central",), rc),)
                violations.append(((i, j, k), (m, n, p), residual))
    return IdentityReport("COEFF_LEFT_SYMMETRIC", not violations,
                          tuple(violations), skipped)


# ---------------------------------------------------------------------------
# hardcoded cross-check systems (fixed cap 3)

HARDCODED_CAP = 3


class _RowBuilder:
    def __init__(self, dim):
        self.dim = dim
        self.row = [ZERO] * ncols(HARDCODED_CAP, dim)

    def alpha(self, i, u, v, coeff=ONE):
        """coeff * alpha_i(u, v), u and v coordinate vectors."""
        for a, cu in enumerate(u):
            if not cu:
                continue
            for b, cv in enumerate(v):
                if cv:
                    self.row[coord_index(HARDCODED_CAP, self.dim, i, a, b)] += coeff * cu * cv


def _hardcoded_rows(alg, beta, variant):
    dim = alg.dim
    beta = Fraction(beta)
    units = [unit(dim, t) for t in range(dim)]

    def P(op, i, j):
        return prod_basis(alg, op, i, j)

    rows = []

    def emit(build):
        rb = _RowBuilder(dim)
        build(rb)
        if any(rb.row):
            rows.append(rb.row)

    for a, b, c in itertools.product(range(dim), repeat=3):
        ea, eb, ec = units[a], units[b], units[c]
        ast_ab, ast_ba = P("ast", a, b), P("ast", b, a)
        ld_cb, ld_ca = P("ld", c, b), P("ld", c, a)
        rd_ac = P("rd", a, c)
        star_bc, star_ac = P("star", b, c), P("star", a, c)
        circ_ab, circ_ba = P("circ", a, b), P("circ", b, a)
        circ_bc, circ_ac = P("circ", b, c), P("circ", a, c)

        if variant in ("general", "pre_novikov", "pre_novikov_beta0"):
            # the chained cap-degree identities
            emit(lambda r: (r.alpha(3, ast_ab, ec), r.alpha(3, ast_ba, ec, -ONE)))
            emit(lambda r: (r.alpha(3, ast_ba, ec), r.alpha(3, ea, ld_cb, -ONE)))
            emit(lambda r: (r.alpha(3, ea, ld_cb), r.alpha(3, eb, rd_ac, -ONE)))

        if variant == "general":
            emit(lambda r: (r.alpha(2, ast_ab, ec), r.alpha(2, ea, ld_cb, -ONE),
                            r.alpha(3, ea, ld_cb, -beta), r.alpha(3, ea, circ_bc, -ONE),
                            r.alpha(3, circ_ba, ec, -ONE), r.alpha(3, circ_ab, ec)))
            emit(lambda r: (r.alpha(2, ast_ab, ec, Fraction(2)), r.alpha(2, ast_ba, ec, -ONE),
                            r.alpha(2, ea, star_bc, -ONE),
                            r.alpha(3, circ_ba, ec, Fraction(-3)),
                            r.alpha(3, circ_ab, ec, Fraction(3))))
            emit(lambda r: (r.alpha(1, ast_ab, ec), r.alpha(1, ea, ld_cb, -ONE),
                            r.alpha(2, ea, ld_cb, -beta), r.alpha(2, ea, circ_bc, -ONE),
                            r.alpha(2, circ_ba, ec, -ONE), r.alpha(2, circ_ab, ec)))
            emit(lambda r: (r.alpha(1, ast_ab, ec), r.alpha(1, ast_ba, ec, -ONE),
                            r.alpha(1, ea, star_bc, -ONE), r.alpha(1, eb, star_ac),
                            r.alpha(2, circ_ba, ec, Fraction(-2)),
                            r.alpha(2, circ_ab, ec, Fraction(2))))
            emit(lambda r: (r.alpha(0, ast_ab, ec), r.alpha(0, ea, ld_cb, -ONE),
                            r.alpha(0, eb, star_ac), r.alpha(1, ea, ld_cb, -beta),
                            r.alpha(1, ea, circ_bc, -ONE),
                            r.alpha(1, circ_ba, ec, -ONE), r.alpha(1, circ_ab, ec)))
            emit(lambda r: (r.alpha(0, circ_ab, ec), r.alpha(0, ea, ld_cb, -beta),
                            r.alpha(0, ea, circ_bc, -ONE), r.alpha(0, circ_ba, ec, -ONE),
                            r.alpha(0, eb, ld_ca, beta), r.alpha(0, eb, circ_ac)))

        elif variant == "pre_novikov":
            emit(lambda r: (r.alpha(2, ast_ab, ec), r.alpha(2, ea, ld_cb, -ONE),
                            r.alpha(3, ea, ld_cb, -beta)))
            emit(lambda r: (r.alpha(2, ast_ab, ec, Fraction(2)), r.alpha(2, ast_ba, ec, -ONE),
                            r.alpha(2, ea, star_bc, -ONE)))
            emit(lambda r: (r.alpha(1, ast_ab, ec), r.alpha(1, ea, ld_cb, -ONE),
                            r.alpha(2, ea, ld_cb, -beta)))
            emit(lambda r: (r.alpha(1, ast_ab, ec), r.alpha(1, ast_ba, ec, -ONE),
                            r.alpha(1, ea, star_bc, -ONE), r.alpha(1, eb, star_ac)))
            emit(lambda r: (r.alpha(0, ast_ab, ec), r.alpha(0, ea, ld_cb, -ONE),
                            r.alpha(0, eb, star_ac), r.alpha(1, ea, ld_cb, -beta)))
            emit(lambda r: (r.alpha(0, ea, ld_cb, beta), r.alpha(0, eb, ld_ca, -beta)))

        elif variant == "pre_novikov_beta0":
            rd_bc = P("rd", b, c)
            emit(lambda r: (r.alpha(2, ast_ab, ec), r.alpha(2, ea, ld_cb, -ONE)))
            emit(lambda r: (r.alpha(2, ast_ab, ec), r.alpha(2, ast_ba, ec, -ONE),
                            r.alpha(2, ea, rd_bc, -ONE)))
            emit(lambda r: (r.alpha(1, ast_ab, ec), r.alpha(1, ea, ld_cb, -ONE)))
            emit(lambda r: (r.alpha(1, ea, rd_bc), r.alpha(1, eb, rd_ac, -ONE)))
            emit(lambda r: (r.alpha(0, ast_ab, ec), r.alpha(0, ea, ld_cb, -ONE),
                            r.alpha(0, eb, star_ac)))

        elif variant == "ls_poisson":
            # dot realized as ld; cap semantics 2, emitted in cap-3
            # coordinates with explicit alpha_3 = 0 rows below
            dot_ab = P("ld", a, b)
            dot_cb, dot_ca = ld_cb, ld_ca
            emit(lambda r: (r.alpha(2, dot_ab, ec), r.alpha(2, ea, dot_cb, -ONE)))
            emit(lambda r: (r.alpha(2, circ_ab, ec), r.alpha(1, ea, dot_cb, -ONE),
                            r.alpha(2, ea, dot_cb, -beta), r.alpha(2, ea, circ_bc, -ONE),
                            r.alpha(1, dot_ab, ec), r.alpha(2, circ_ba, ec, -ONE)))
            emit(lambda r: (r.alpha(2, circ_ab, ec, Fraction(2)), r.alpha(1, ea, dot_cb, -ONE),
                            r.alpha(2, circ_ba, ec, Fraction(-2)), r.alpha(1, eb, dot_ca)))
            emit(lambda r: (r.alpha(1, circ_ab, ec), r.alpha(0, ea, dot_cb, -ONE),
                            r.alpha(1, ea, dot_cb, -beta), r.alpha(1, ea, circ_bc, -ONE),
                            r.alpha(0, dot_ab, ec), r.alpha(1, circ_ba, ec, -ONE),
                            r.alpha(0, eb, dot_ca)))
            emit(lambda r: (r.alpha(0, circ_ab, ec), r.alpha(0, ea, dot_cb, -beta),
                            r.alpha(0, ea, circ_bc, -ONE), r.alpha(0, circ_ba, ec, -ONE),
                            r.alpha(0, eb, dot_ca, beta), r.alpha(0, eb, circ_ac)))
        else:
            raise ValueError(f"unknown variant {variant!r}")

    if variant == "ls_poisson":
        for a in range(dim):
            for b in range(dim):
                rb = _RowBuilder(dim)
                rb.row[coord_index(HARDCODED_CAP, dim, 3, a, b)] = ONE
                rows.append(rb.row)
    # dedupe
    out, seen = [], set()
    for r in rows:
        key = tuple(r)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


def _ls_poisson_shaped(alg):
    """Does the spec look like an LS-Poisson image (dot = ld, rd = 0)
    with the product spanning V?"""
    if alg.has("rd"):
        return False
    probe = AlgebraSpec(alg.name + "~lsp?", alg.dim, alg.basis,
                        {"dot": alg.ops.get("ld", tensor(alg.dim)),
                         "circ": alg.ops.get("circ", tensor(alg.dim))})
    return check_identity(probe, "LS_POISSON").passed and products_span(alg, "ld")


def hardcoded_cocycle_system(alg, beta, variant="auto"):
    """The explicitly listed cap-3 equation systems (cross-check only)."""
    require_identity(alg, "PRE_GD")
    beta = Fraction(beta)
    if variant == "auto":
        if not alg.has("circ"):
            variant = "pre_novikov_beta0" if beta == 0 else "pre_novikov"
        elif _ls_poisson_shaped(alg):
            variant = "ls_poisson"
        else:
            variant = "general"
    if variant == "pre_novikov_beta0" and beta != 0:
        raise ValueError("the beta0 equation list requires beta = 0")
    if variant in ("pre_novikov", "pre_novikov_beta0") and alg.has("circ"):
        raise ValueError("pre-Novikov equation lists require circ = 0")
    return _hardcoded_rows(alg, beta, variant)


# ---------------------------------------------------------------------------
# representation axioms, written out as matrix laws

def _map_of(rep, key, vec):
    """sum_a vec[a] * (the matrix of map `key` at e_a)."""
    n = range(rep.module_dim)
    return [[sum((c * m[i][j] for c, m in zip(vec, rep.maps[key]) if c), ZERO) for j in n]
            for i in n]


def check_representation(alg, rep, kind):
    """Representation axioms over basis pairs; matrices compared exactly."""
    need = {"novikov": ("l", "r"), "gd": ("l", "r", "rho")}.get(kind)
    if need is None:
        raise ValueError(f"kind must be novikov or gd, got {kind!r}")
    for key in need:
        if key not in rep.maps or len(rep.maps[key]) != alg.dim:
            raise MissingMaps(f"representation lacks map family {key!r}")
    st = novikov_star(alg)
    dim = alg.dim

    def M(key, vec):
        return _map_of(rep, key, vec)

    def msub(a, b):
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def madd(a, b):
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    violations = []

    def record(label, i, j, mat):
        flat = tuple(x for row in mat for x in row)
        if any(flat):
            violations.append((label, (i, j), flat))

    for a in range(dim):
        for b in range(dim):
            ea, eb = unit(dim, a), unit(dim, b)
            ab = eval_product(alg, st, ea, eb)
            ba = eval_product(alg, st, eb, ea)
            la, lb = M("l", ea), M("l", eb)
            ra, rb = M("r", ea), M("r", eb)
            # l([a,b]_ast) = [l(a), l(b)]
            record("rep_n1", a, b,
                   msub(M("l", vsub(ab, ba)), msub(mat_mul(la, lb), mat_mul(lb, la))))
            # l(a)r(b) - r(b)l(a) = r(a*b) - r(b)r(a)
            record("rep_n2", a, b,
                   msub(msub(mat_mul(la, rb), mat_mul(rb, la)),
                        msub(M("r", ab), mat_mul(rb, ra))))
            # l(a*b) = r(b)l(a)
            record("rep_n3", a, b, msub(M("l", ab), mat_mul(rb, la)))
            # r(a)r(b) = r(b)r(a)
            record("rep_n4", a, b, msub(mat_mul(ra, rb), mat_mul(rb, ra)))
            if kind == "gd":
                br = eval_product(alg, "bracket", ea, eb)
                pa, pb = M("rho", ea), M("rho", eb)
                record("rep_lie", a, b,
                       msub(M("rho", br), msub(mat_mul(pa, pb), mat_mul(pb, pa))))
                # rho(a)l(b) + rho(b*a) + l([b,a]) = r(a)rho(b) + l(b)rho(a)
                lhs = madd(madd(mat_mul(pa, lb), M("rho", ba)),
                           M("l", eval_product(alg, "bracket", eb, ea)))
                rhs = madd(mat_mul(ra, pb), mat_mul(lb, pa))
                record("rep_g1", a, b, msub(lhs, rhs))
                # rho(a)r(b) - rho(b)r(a) - r(b)rho(a) + r(a)rho(b) = r([a,b])
                lhs = madd(msub(msub(mat_mul(pa, rb), mat_mul(pb, ra)),
                                mat_mul(rb, pa)), mat_mul(ra, pb))
                record("rep_g2", a, b, msub(lhs, M("r", br)))
    kindkey = "REPRESENTATION_" + kind.upper()
    return IdentityReport(kindkey, not violations, tuple(violations))


# ---------------------------------------------------------------------------
# changes of basis

def random_basis_change(rng, n):
    """(P, P^-1) for a random P in GL_n(Q) with integer entries in [-2, 2],
    read off the rref [I | P^-1] of [P | I]."""
    while True:
        p = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        rows, pivots = rref([row + unit(n, i) for i, row in enumerate(p)], 2 * n)
        if pivots == list(range(n)):
            return p, [row[n:] for row in rows]


def change_basis(alg, p, p_inv):
    """alg on the basis whose i-th vector has the old coordinates of column
    i of p: x op' y = p_inv (p x op p y), so x -> p x maps it onto alg."""
    n = range(alg.dim)
    ops = {op: [[mat_vec(p_inv, [sum(p[a][i] * p[b][j] * t[a][b][k] for a in n for b in n)
                                 for k in n]) for j in n] for i in n]
           for op, t in alg.ops.items()}
    return AlgebraSpec(alg.name, alg.dim, alg.basis, ops)


def change_cocycle_basis(fam, p):
    """fam on change_basis's new basis: alpha'_i(x, y) = alpha_i(p x, p y)."""
    n = range(fam.dim)
    return CocycleFamily(fam.degree_cap, tuple(
        tuple(tuple(sum(p[c][a] * p[d][b] * f[c][d] for c in n for d in n) for b in n)
              for a in n) for f in fam.forms))


def change_map_basis(m, p, p_inv):
    """The LinearMapSpec m on change_basis's new basis: p_inv m p."""
    return LinearMapSpec(mat_mul(p_inv, mat_mul(m.matrix, p)))
