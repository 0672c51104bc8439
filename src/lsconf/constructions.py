"""Constructions between the algebra classes, verified on output.

Every builder checks its input identities, applies the defining formulas,
and re-checks the output against the target identity system before
returning (fail-fast; a constructor output failing its target system is a
defect, not a warning).

Truncated stand-ins for infinite examples come in two flavours:

* truncated_binomial_zinbiel(N) is a genuine finite quotient, so all of
  its checks run unrestricted;
* truncated_laurent_slice() is a vector-space section of the Laurent
  algebra, not a quotient, so it ships the index triples/pairs on which
  its products are faithful, and verification is restricted to those.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .algebras import (AlgebraSpec, IdentityError, LinearMapSpec,
                       eval_product, prod_basis, require_identity, tensor)
from .linalg import unit, vadd, vscale


def _dot(alg, x, y):
    return eval_product(alg, "dot", x, y)


def zinbiel_to_pre_novikov(zin, D, xi, triples=None, pairs=None):
    """a ld b = D(b).a + xi b.a,  a rd b = a.D(b) + xi a.b"""
    xi = Fraction(xi)
    require_identity(zin, "ZINBIEL", triples=triples)
    require_identity(zin, "DERIVATION", aux=D, pairs=pairs)
    dim = zin.dim
    dcols = [D.apply(unit(dim, j)) for j in range(dim)]
    ld, rd = tensor(dim), tensor(dim)
    for i in range(dim):
        ei = unit(dim, i)
        for j in range(dim):
            ej, dj = unit(dim, j), dcols[j]
            ld[i][j] = vadd(_dot(zin, dj, ei), vscale(xi, _dot(zin, ej, ei)))
            rd[i][j] = vadd(_dot(zin, ei, dj), vscale(xi, _dot(zin, ei, ej)))
    out = AlgebraSpec(f"{zin.name}~pn(xi={xi})", dim, zin.basis, {"ld": ld, "rd": rd})
    require_identity(out, "PRE_NOVIKOV", triples=triples)
    return out


def pre_novikov_to_pre_gd(pn, k, triples=None):
    """Adjoin circ = k(a rd b - b ld a) to a pre-Novikov algebra."""
    k = Fraction(k)
    require_identity(pn, "PRE_NOVIKOV", triples=triples)
    dim = pn.dim
    circ = tensor(dim)
    for i in range(dim):
        for j in range(dim):
            circ[i][j] = [k * (r - l) for r, l in
                          zip(prod_basis(pn, "rd", i, j), prod_basis(pn, "ld", j, i))]
    ops = {op: pn.ops[op] for op in ("ld", "rd") if pn.has(op)}
    ops["circ"] = circ
    out = AlgebraSpec(f"{pn.name}~pregd(k={k})", dim, pn.basis, ops)
    require_identity(out, "PRE_GD", triples=triples)
    return out


def zinbiel_to_pre_gd(zin, D, xi, k, triples=None, pairs=None):
    """Composite of the two constructions.

    The direct expansion of circ is k(a.D(b) - D(a).b): the xi parts of
    a rd b and of the flipped ld cancel each other, so xi only enters
    through ld and rd themselves.  Both routes are computed and must
    agree tensor-wise.
    """
    xi, k = Fraction(xi), Fraction(k)
    pn = zinbiel_to_pre_novikov(zin, D, xi, triples=triples, pairs=pairs)
    out = pre_novikov_to_pre_gd(pn, k, triples=triples)
    dim = zin.dim
    dcols = [D.apply(unit(dim, j)) for j in range(dim)]
    for i in range(dim):
        ei = unit(dim, i)
        for j in range(dim):
            direct = [k * (t1 - t2) for t1, t2 in
                      zip(_dot(zin, ei, dcols[j]), _dot(zin, dcols[i], unit(dim, j)))]
            if direct != prod_basis(out, "circ", i, j):
                raise IdentityError(
                    f"direct and composed circ tensors disagree at ({i}, {j})")
    return AlgebraSpec(f"{zin.name}~pregd(xi={xi},k={k})", dim, zin.basis, dict(out.ops))


def ls_poisson_to_pre_gd(lsp, triples=None, pairs=None):
    """ld = dot, rd = 0, circ carried over."""
    require_identity(lsp, "LS_POISSON", triples=triples, pairs=pairs)
    ops = {}
    if lsp.has("dot"):
        ops["ld"] = lsp.ops["dot"]
    if lsp.has("circ"):
        ops["circ"] = lsp.ops["circ"]
    out = AlgebraSpec(f"{lsp.name}~pregd", lsp.dim, lsp.basis, ops)
    require_identity(out, "PRE_GD", triples=triples)
    return out


def comm_assoc_derivation_to_novikov_poisson(A, D, triples=None, pairs=None):
    """x circ y = x . D(y) on a commutative associative algebra."""
    require_identity(A, "COMM_ASSOC", triples=triples, pairs=pairs)
    require_identity(A, "DERIVATION", aux=D, pairs=pairs)
    dim = A.dim
    dcols = [D.apply(unit(dim, j)) for j in range(dim)]
    circ = tensor(dim)
    for i in range(dim):
        ei = unit(dim, i)
        for j in range(dim):
            circ[i][j] = _dot(A, ei, dcols[j])
    ops = {"circ": circ}
    if A.has("dot"):
        ops["dot"] = A.ops["dot"]
    out = AlgebraSpec(f"{A.name}~np", dim, A.basis, ops)
    require_identity(out, "NOVIKOV_POISSON", triples=triples, pairs=pairs)
    return out


def truncated_binomial_zinbiel(N):
    """Zinbiel algebra on x^1..x^N with x^a . x^b = C(a+b-1, a) x^{a+b}
    (zero past grade N) and the grading derivation D(x^a) = a x^a.

    The grade-N cutoff is a quotient, so the axioms hold unrestricted.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    basis = tuple(f"x{g}" for g in range(1, N + 1))
    dot = tensor(N)
    for i in range(N):
        for j in range(N):
            g = i + j + 2
            if g <= N:
                dot[i][j][g - 1] = Fraction(comb(g - 1, i + 1))
    alg = AlgebraSpec(f"binomial_zinbiel({N})", N, basis, {"dot": dot})
    D = LinearMapSpec(tuple(tuple(Fraction(g + 1) if g == h else 0 for h in range(N))
                            for g in range(N)))
    require_identity(alg, "ZINBIEL")
    require_identity(alg, "DERIVATION", aux=D)
    return alg, D


def truncated_laurent_slice():
    """The t^-1, t^0, t^1 slice of the Laurent algebra with D = t d/dt.

    Not a quotient: products reaching t^{+-2} are cut to zero, so the
    algebra is only faithful where grades stay in range.  Returns
    (alg, D, safe_triples, safe_pairs); every partial grade-sum of a safe
    index tuple lies in [-1, 1].
    """
    grades = (-1, 0, 1)
    basis = tuple(f"t^{g}" for g in grades)
    dot = tensor(3)
    for i, gi in enumerate(grades):
        for j, gj in enumerate(grades):
            if -1 <= gi + gj <= 1:
                dot[i][j][gi + gj + 1] = Fraction(1)
    alg = AlgebraSpec("laurent_slice", 3, basis, {"dot": dot})
    D = LinearMapSpec(tuple(tuple(Fraction(gi) if i == j else 0 for j in range(3))
                            for i, gi in enumerate(grades)))
    pairs = tuple((i, j) for i, j in itertools.product(range(3), repeat=2)
                  if -1 <= grades[i] + grades[j] <= 1)
    triples = tuple(
        (i, j, k) for i, j, k in itertools.product(range(3), repeat=3)
        if all(-1 <= s <= 1 for s in (grades[i] + grades[j], grades[i] + grades[k],
                                      grades[j] + grades[k],
                                      grades[i] + grades[j] + grades[k])))
    require_identity(alg, "COMM_ASSOC", triples=triples, pairs=pairs)
    require_identity(alg, "DERIVATION", aux=D, pairs=pairs)
    return alg, D, triples, pairs
