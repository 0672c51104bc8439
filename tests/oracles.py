"""Reference implementations that tests compare the library against.

* `rref` is the dense integer Gauss-Jordan elimination the library used
  before its sparse echelon, with `reduce_against` and
  `quotient_representatives` rebuilding the echelon after every insertion
  as the library once did.
* `hardcoded_cocycle_system` holds the explicitly listed cap-3 equation
  systems (general, pre-Novikov, pre-Novikov at beta = 0, LS-Poisson),
  written out by hand as a cross-check of the mechanical expansion in
  `lsconf.cohomology.generate_cocycle_system`.
"""

import itertools
from fractions import Fraction
from math import gcd

from lsconf.algebras import (AlgebraSpec, check_identity, prod_basis,
                             products_span, require_identity, tensor)
from lsconf.cohomology import coord_index, ncols
from lsconf.linalg import ONE, ZERO, DimensionMismatch, unit


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
