"""Central extensions by a one-dimensional torsion centre: Z2, B2, H2.

A cocycle is a polynomial family alpha_lam = sum_i lam^i alpha_i of
bilinear forms on the algebra.  The extension identity

    alpha_{lam+mu}(a_lam b, c) - alpha_lam(a, b_mu c)
        = alpha_{lam+mu}(b_mu a, c) - alpha_mu(b, a_lam c)

expands, for the quadratic lam-product, into one linear equation per
basis triple and lam^i mu^j monomial; generate_cocycle_system performs
that expansion mechanically and is the source of truth.  The hardcoded
equation lists (general cap-3 system, the pre-Novikov and LS-Poisson
specializations) exist purely as cross-checks.

Cocycle coordinates are ordered highest-degree form first:

    col(i, a, b) = ((cap - i) * dim + a) * dim + b

so echelon reduction of Z2 against B2 normalizes the low-degree forms
away and representatives keep their top-degree entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebras import (AlgebraSpec, IdentityError, check_identity, prod_basis,
                       products_span, require_identity, tensor)
from .linalg import (ZERO, ONE, Subspace, nullspace, quotient_representatives,
                     solve, unit)


class SpanningConditionError(Exception):
    pass


class NoUnitFound(Exception):
    pass


class CohomologyError(Exception):
    """Internal invariant broken (e.g. a coboundary failing the cocycle
    system); indicates a defect, not bad input."""


@dataclass(frozen=True)
class CocycleFamily:
    """alpha_lam = sum_{i<=degree_cap} lam^i alpha_i; forms[i][a][b]."""

    degree_cap: int
    forms: tuple

    def __post_init__(self):
        forms = tuple(tuple(tuple(Fraction(x) for x in row) for row in f)
                      for f in self.forms)
        if len(forms) != self.degree_cap + 1:
            raise ValueError("need degree_cap + 1 forms")
        object.__setattr__(self, "forms", forms)

    @property
    def dim(self):
        return len(self.forms[0])

    def entry(self, i, a, b):
        if i > self.degree_cap:
            return ZERO
        return self.forms[i][a][b]

    def is_zero(self):
        return all(not x for f in self.forms for row in f for x in row)


def ncols(cap, dim):
    return (cap + 1) * dim * dim


def coord_index(cap, dim, i, a, b):
    return ((cap - i) * dim + a) * dim + b


def family_from_coords(cap, dim, vec):
    forms = [[[vec[coord_index(cap, dim, i, a, b)] for b in range(dim)]
              for a in range(dim)] for i in range(cap + 1)]
    return CocycleFamily(cap, tuple(forms))


def family_to_coords(fam, cap, dim):
    """Coordinates of a family in cap-sized coordinate space (cap may
    exceed the family's own degree_cap; missing forms are zero)."""
    if fam.degree_cap > cap:
        for i in range(cap + 1, fam.degree_cap + 1):
            if any(x for row in fam.forms[i] for x in row):
                raise ValueError("family has nonzero forms above the target cap")
    vec = [ZERO] * ncols(cap, dim)
    for i in range(min(cap, fam.degree_cap) + 1):
        for a in range(dim):
            for b in range(dim):
                vec[coord_index(cap, dim, i, a, b)] = fam.forms[i][a][b]
    return vec


# ---------------------------------------------------------------------------
# the generated system

def _add(acc, key, col, coeff):
    if not coeff:
        return
    row = acc.setdefault(key, {})
    row[col] = row.get(col, ZERO) + coeff


def generate_cocycle_system(alg, beta, degree_cap):
    """Constraint matrix of the extension identity, one row per basis
    triple and lam^i mu^j monomial (zero rows and duplicates dropped)."""
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

    rows, seen = [], set()
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
            dense = tuple(form.get(col, ZERO) for col in range(width))
            if any(dense) and dense not in seen:
                seen.add(dense)
                rows.append(list(dense))
    return rows


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
# coboundaries, spanning, H2

def coboundary_space(alg, beta, degree_cap):
    """Image of phi -> (alpha_0 = beta phi(b ld a) + phi(a circ b),
    alpha_1 = phi(a star b), higher forms zero)."""
    beta = Fraction(beta)
    cap, dim = degree_cap, alg.dim
    width = ncols(cap, dim)
    gens = []
    for t in range(dim):
        vec = [ZERO] * width
        for a in range(dim):
            for b in range(dim):
                a0 = beta * prod_basis(alg, "ld", b, a)[t] + prod_basis(alg, "circ", a, b)[t]
                a1 = prod_basis(alg, "star", a, b)[t]
                vec[coord_index(cap, dim, 0, a, b)] = a0
                vec[coord_index(cap, dim, 1, a, b)] = a1
        gens.append(vec)
    return Subspace(width, gens)


SPANNING_OPS = ("ast", "star", "ld", "rd")


def check_spanning(alg):
    """Which of the four product spans equal V."""
    return {op for op in SPANNING_OPS if products_span(alg, op)}


@dataclass(frozen=True)
class ExtensionResult:
    beta: Fraction
    degree_cap: int
    cap_limited: bool
    spanning: tuple
    dim_Z2: int
    dim_B2: int
    dim_H2: int
    cocycle_basis: tuple
    representatives: tuple
    z2_space: Subspace
    b2_space: Subspace


def h2(alg, beta, degree_cap=None):
    """Cocycles modulo coboundaries at the given (or justified) cap."""
    beta = Fraction(beta)
    spanning = check_spanning(alg)
    if degree_cap is None:
        if not spanning:
            raise SpanningConditionError(
                "no product spans V; supply an explicit degree cap")
        cap, cap_limited = 3, False
    else:
        cap, cap_limited = degree_cap, not spanning
    dim = alg.dim
    rows = generate_cocycle_system(alg, beta, cap)
    z2 = nullspace(rows, ncols(cap, dim))
    b2 = coboundary_space(alg, beta, cap)
    if not z2.contains_subspace(b2):
        raise CohomologyError("coboundary outside the cocycle space")
    reps = quotient_representatives(z2, b2)
    return ExtensionResult(
        beta=beta, degree_cap=cap, cap_limited=cap_limited,
        spanning=tuple(sorted(spanning)),
        dim_Z2=z2.dim, dim_B2=b2.dim, dim_H2=z2.dim - b2.dim,
        cocycle_basis=tuple(family_from_coords(cap, dim, v) for v in z2.basis),
        representatives=tuple(family_from_coords(cap, dim, v) for v in reps),
        z2_space=z2, b2_space=b2)


def find_right_unit(alg):
    """Exact solve for e with a ast e = a and a ld e = a for all a."""
    dim = alg.dim
    rows, rhs = [], []
    for op in ("ast", "ld"):
        for a in range(dim):
            prods = [prod_basis(alg, op, a, j) for j in range(dim)]
            for k in range(dim):
                rows.append([prods[j][k] for j in range(dim)])
                rhs.append(ONE if k == a else ZERO)
    return solve(rows, rhs)


def unital_vanishing_check(alg, beta):
    """For a pre-Novikov algebra with a right unit, H2 vanishes at
    beta != 0; returns the computed verdict dim_H2 == 0."""
    beta = Fraction(beta)
    if beta == 0:
        raise ValueError("the unital vanishing statement needs beta != 0")
    if alg.has("circ"):
        raise IdentityError("unital vanishing applies to pre-Novikov specs (no circ)")
    e = find_right_unit(alg)
    if e is None:
        raise NoUnitFound("no right unit for (ast, ld)")
    return h2(alg, beta).dim_H2 == 0
