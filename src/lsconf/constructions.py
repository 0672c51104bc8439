"""Constructions between the algebra classes, verified on output.

Every builder checks its input identities, evaluates its defining formula
with `algebras.product_tensor` (a bilinear expression in the input's
products, written in the identity catalog's notation), and re-checks the
output against the target identity system before returning.  An input that
fails its identities raises IdentityError.  An output that fails its target
system, or zinbiel_to_pre_gd's two routes disagreeing, is a defect of the
construction, not a warning, and raises ConstructionDefect.  The parameters
xi and k are ints or Fractions; a float or a bool raises TypeError.

Truncated stand-ins for infinite examples come in two flavours:

* truncated_binomial_zinbiel(N) is a genuine finite quotient, so all of
  its checks run unrestricted;
* truncated_laurent_slice() is a vector-space section of the Laurent
  algebra, not a quotient, so it ships the index triples/pairs on which
  its products are faithful, and verification is restricted to those.
  Only comm_assoc_derivation_to_novikov_poisson, the builder that takes
  the slice, accepts such a domain; every other builder checks everything.
"""

from __future__ import annotations

import itertools
from math import comb

from .algebras import (AlgebraSpec, IdentityError, LinearMapSpec, op_tensor,
                       product_tensor, require_identity, tensor)
from .linalg import exact


class ConstructionDefect(Exception):
    """A construction's output failed its target system, or its two routes
    disagree: a defect in lsconf, never a finding about the input."""


def _verified(out, identity_id, triples=None, pairs=None):
    try:
        require_identity(out, identity_id, triples=triples, pairs=pairs)
    except IdentityError as exc:
        raise ConstructionDefect(f"construction output {exc}") from exc
    return out


def zinbiel_to_pre_novikov(zin, D, xi):
    """a ld b = D(b).a + xi b.a,  a rd b = a.D(b) + xi a.b"""
    xi = exact(xi)
    require_identity(zin, "ZINBIEL")
    require_identity(zin, "DERIVATION", aux=D)
    ld = product_tensor(zin, [(1, ("dot", ("aux", "b"), "a")), (xi, ("dot", "b", "a"))], D)
    rd = product_tensor(zin, [(1, ("dot", "a", ("aux", "b"))), (xi, ("dot", "a", "b"))], D)
    out = AlgebraSpec(f"{zin.name}~pn(xi={xi})", zin.dim, zin.basis, {"ld": ld, "rd": rd})
    return _verified(out, "PRE_NOVIKOV")


def pre_novikov_to_pre_gd(pn, k):
    """Adjoin circ = k(a rd b - b ld a) to a pre-Novikov algebra."""
    k = exact(k)
    require_identity(pn, "PRE_NOVIKOV")
    return _adjoin_circ(pn, k)


def _adjoin_circ(pn, k):
    """pre_novikov_to_pre_gd on a pn already known to be pre-Novikov."""
    ops = {op: pn.ops[op] for op in ("ld", "rd") if pn.has(op)}
    ops["circ"] = product_tensor(pn, [(k, ("rd", "a", "b")), (-k, ("ld", "b", "a"))])
    out = AlgebraSpec(f"{pn.name}~pregd(k={k})", pn.dim, pn.basis, ops)
    return _verified(out, "PRE_GD")


def zinbiel_to_pre_gd(zin, D, xi, k):
    """Composite of the two constructions.

    The direct expansion of circ is k(a.D(b) - D(a).b): the xi parts of
    a rd b and of the flipped ld cancel each other, so xi only enters
    through ld and rd themselves.  Both routes are computed and must
    agree tensor-wise.  The intermediate pre-Novikov algebra is checked
    once, as the first construction's output.
    """
    xi, k = exact(xi), exact(k)
    pn = zinbiel_to_pre_novikov(zin, D, xi)
    out = _adjoin_circ(pn, k)
    direct = product_tensor(zin, [(k, ("dot", "a", ("aux", "b"))),
                                  (-k, ("dot", ("aux", "a"), "b"))], D)
    composed = op_tensor(out, "circ")
    if direct != composed:
        i = next(i for i, plane in enumerate(direct) if plane != composed[i])
        j = next(j for j, row in enumerate(direct[i]) if row != composed[i][j])
        raise ConstructionDefect(f"direct and composed circ tensors disagree at ({i}, {j})")
    return AlgebraSpec.from_rows(f"{zin.name}~pregd(xi={xi},k={k})", zin.dim, zin.basis,
                                 out.den, out.stored_rows)


def ls_poisson_to_pre_gd(lsp):
    """ld = dot, rd = 0, circ carried over."""
    require_identity(lsp, "LS_POISSON")
    out = AlgebraSpec.from_rows(f"{lsp.name}~pregd", lsp.dim, lsp.basis, lsp.den,
                                {"ld": lsp.rows("dot"), "circ": lsp.rows("circ")})
    return _verified(out, "PRE_GD")


def comm_assoc_derivation_to_novikov_poisson(A, D, triples=None, pairs=None):
    """x circ y = x . D(y) on a commutative associative algebra."""
    require_identity(A, "COMM_ASSOC", triples=triples, pairs=pairs)
    require_identity(A, "DERIVATION", aux=D, pairs=pairs)
    ops = {"circ": product_tensor(A, [(1, ("dot", "a", ("aux", "b")))], D)}
    if A.has("dot"):
        ops["dot"] = A.ops["dot"]
    out = AlgebraSpec(f"{A.name}~np", A.dim, A.basis, ops)
    return _verified(out, "NOVIKOV_POISSON", triples=triples, pairs=pairs)


def truncated_binomial_zinbiel(N):
    """Zinbiel algebra on x^1..x^N with x^a . x^b = C(a+b-1, a) x^{a+b}
    (zero past grade N) and the grading derivation D(x^a) = a x^a.

    The grade-N cutoff is a quotient, so the axioms hold unrestricted.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    basis = tuple(f"x{g}" for g in range(1, N + 1))
    # x^(i+1) . x^(j+1) at index i + j + 1, the grade i + j + 2 <= N
    dot = tensor(N, {(i, j, i + j + 1): comb(i + j + 1, i + 1)
                     for i in range(N) for j in range(N - 1 - i)})
    alg = AlgebraSpec(f"binomial_zinbiel({N})", N, basis, {"dot": dot})
    D = LinearMapSpec(tuple(tuple(g + 1 if g == h else 0 for h in range(N))
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
    pairs = tuple((i, j) for i, j in itertools.product(range(3), repeat=2)
                  if -1 <= grades[i] + grades[j] <= 1)
    dot = tensor(3, {(i, j, grades[i] + grades[j] + 1): 1 for i, j in pairs})
    alg = AlgebraSpec("laurent_slice", 3, basis, {"dot": dot})
    D = LinearMapSpec(tuple(tuple(gi if i == j else 0 for j in range(3))
                            for i, gi in enumerate(grades)))
    triples = tuple(
        (i, j, k) for i, j, k in itertools.product(range(3), repeat=3)
        if all(-1 <= s <= 1 for s in (grades[i] + grades[j], grades[i] + grades[k],
                                      grades[j] + grades[k],
                                      grades[i] + grades[j] + grades[k])))
    require_identity(alg, "COMM_ASSOC", triples=triples, pairs=pairs)
    require_identity(alg, "DERIVATION", aux=D, pairs=pairs)
    return alg, D, triples, pairs
