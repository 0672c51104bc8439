"""Ideal closure and simplicity certificates.

An ideal for an operation set is a subspace I with V op I and I op V
inside I for every listed op.  Simplicity certification is layered:

* a found proper ideal is re-verified and is a proof of non-simplicity;
* a full associative envelope (dimension dim^2) proves there is no
  invariant subspace at all, hence simplicity, over any field; it is
  computed after the unit-vector closures and before any random trial,
  which it makes unnecessary (see _search);
* otherwise the positive conformal criteria (simple two-operation part
  with spanning star product, trivial rd with a regular element,
  Novikov-Poisson shape) are tried in order, and failing everything the
  verdict is inconclusive rather than guessed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebras import AlgebraSpec, check_identity, mult_columns, products_span
from .linalg import ZERO, Subspace, int_row, nullspace, rank, unit


class TrivialAlgebra(Exception):
    """All products vanish; simplicity is undefined for such algebras."""


class IdealVerificationError(Exception):
    """A found ideal failed re-verification: a defect, not bad input."""


PRE_GD_OPS = ("ld", "rd", "circ")


@dataclass(frozen=True)
class IdealReport:
    closure: Subspace
    is_proper: bool


@dataclass(frozen=True)
class SimplicityCertificate:
    """verdict in {simple, not_simple, inconclusive}; criterion names the
    rule that produced it; witness is a proper ideal (not_simple) or a
    distinguished element (regular-element rule)."""

    verdict: str
    criterion: str
    witness: object = None
    details: tuple = ()


def multiplication_operators(alg, ops=PRE_GD_OPS):
    """Left and right multiplication by every basis element, per op, each
    as its columns, scaled by alg.den (see mult_columns); scaling changes
    no span."""
    return [mult_columns(alg, op, i, side)
            for op in sorted(set(ops)) for i in range(alg.dim) for side in "lr"]


def _apply(cols, x):
    """The operator with these columns at the sparse vector x, sparse."""
    out = {}
    for j, xj in x.items():
        for k, c in cols[j]:
            out[k] = out.get(k, 0) + xj * c
    return out


def ideal_closure(alg, seed, ops=PRE_GD_OPS):
    """Least subspace containing seed with x op v, v op x inside, for
    every basis v and listed op."""
    dim = alg.dim
    gens = multiplication_operators(alg, ops)
    closure = seed.copy() if isinstance(seed, Subspace) else Subspace(dim, seed)
    todo = [int_row(b) for b in closure.basis]
    while todo and not closure.is_full():
        x = todo.pop()
        for g in gens:
            v = _apply(g, x)
            if closure.add(v):
                if closure.is_full():
                    break
                todo.append(v)
    return IdealReport(closure=closure, is_proper=0 < closure.dim < dim)


def associative_envelope(alg, ops=PRE_GD_OPS):
    """Span of all words in the multiplication operators (with identity),
    as a subspace of flattened dim x dim matrices; a word is kept as its
    sparse columns."""
    dim = alg.dim
    gens = multiplication_operators(alg, ops)

    def flat(m):
        return {k * dim + j: x for j, col in enumerate(m) for k, x in col.items()}

    one = [{j: 1} for j in range(dim)]
    span = Subspace(dim * dim, [flat(one)])
    frontier = [one]
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                gm = [_apply(g, col) for col in m]
                if span.add(flat(gm)):
                    if span.is_full():
                        return span
                    fresh.append(gm)
        frontier = fresh
    return span


def _random_vector(rng, dim):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]


def _proper_or_none(alg, seed_vecs, ops):
    rep = ideal_closure(alg, seed_vecs, ops)
    return rep.closure if rep.is_proper else None


def _search(alg, ops, trials, rng_seed):
    """(proper ideal or None, envelope_full flag).  Tries the closures of
    the unit vectors, then the envelope, then the closures of `trials`
    random vectors and of kernel vectors of `trials` random envelope
    elements.  A full envelope is all of M_dim, under which every nonzero
    vector closes to V, so no random trial could find an ideal."""
    dim = alg.dim
    for i in range(dim):
        found = _proper_or_none(alg, [unit(dim, i)], ops)
        if found is not None:
            return found, False
    env = associative_envelope(alg, ops)
    if env.dim == dim * dim:
        return None, True
    rng = random.Random(rng_seed)
    for _ in range(trials):
        found = _proper_or_none(alg, [_random_vector(rng, dim)], ops)
        if found is not None:
            return found, False
    for _ in range(trials):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in env.basis]
        mat = [[sum((c * b[r * dim + s] for c, b in zip(coeffs, env.basis)),
                    ZERO) for s in range(dim)] for r in range(dim)]
        ker = nullspace(mat, dim)
        for v in ker.basis:
            found = _proper_or_none(alg, [v], ops)
            if found is not None:
                return found, False
    return None, False


def find_proper_ideal(alg, ops=PRE_GD_OPS, trials=20, rng_seed=0):
    """A verified proper ideal for the given ops, or None."""
    found, _ = _search(alg, ops, trials, rng_seed)
    if found is not None:
        _verify_ideal(alg, found, ops)
    return found


def _verify_ideal(alg, sub, ops):
    gens = multiplication_operators(alg, ops)
    for x in map(int_row, sub.basis):
        for n, g in enumerate(gens):
            if not sub.contains(_apply(g, x)):
                side = "right" if n % 2 else "left"
                raise IdealVerificationError(f"claimed ideal is not {side}-stable")
    if not 0 < sub.dim < alg.dim:
        raise IdealVerificationError("claimed ideal is not proper")


def _all_products_zero(alg, ops):
    return not any(row for op in ops for plane in alg.rows(op) for row in plane)


def _simple_on_ops(alg, ops, trials, rng_seed):
    if _all_products_zero(alg, ops):
        raise TrivialAlgebra(f"all products vanish for ops {sorted(set(ops))}")
    found, env_full = _search(alg, ops, trials, rng_seed)
    if found is not None:
        _verify_ideal(alg, found, ops)
        return SimplicityCertificate("not_simple", "witness_ideal", witness=found)
    if env_full:
        return SimplicityCertificate(
            "simple", "envelope",
            details=("multiplication envelope has full dimension "
                     f"{alg.dim * alg.dim}",))
    return SimplicityCertificate(
        "inconclusive", "search_exhausted",
        details=(f"no ideal found in {trials} trials; envelope not full",))


def is_simple_pre_gd(alg, trials=20, rng_seed=0):
    """Simplicity of the three-operation algebra itself."""
    return _simple_on_ops(alg, PRE_GD_OPS, trials, rng_seed)


def _pre_novikov_part_certificate(alg, trials, rng_seed, log):
    if _all_products_zero(alg, ("ld", "rd")):
        log.append("two-operation part is trivial; spanning rule skipped")
        return None
    cert = _simple_on_ops(alg, ("ld", "rd"), trials, rng_seed)
    log.append(f"two-operation part: {cert.verdict} ({cert.criterion})")
    return cert


def _regular_element(alg, trials, rng):
    """Some a with ker(L_a) and ker(R_a) for ld intersecting trivially."""
    dim = alg.dim
    gens = multiplication_operators(alg, ("ld",))
    for n in range(dim + trials):
        a = unit(dim, n) if n < dim else _random_vector(rng, dim)
        x = int_row(a)
        # row j: column j of L_a stacked on R_a, i.e. (a ld e_j, e_j ld a)
        stacked = [{**_apply(right, x), **{dim + k: c for k, c in _apply(left, x).items()}}
                   for left, right in zip(gens[::2], gens[1::2])]
        if rank(stacked, 2 * dim) == dim:
            return a
    return None


def certify_conformal_simplicity(alg, trials=20, rng_seed=0):
    """Simplicity of the quadratic conformal algebra built on alg."""
    log = []
    gd_cert = is_simple_pre_gd(alg, trials, rng_seed)
    log.append(f"three-operation algebra: {gd_cert.verdict} ({gd_cert.criterion})")
    if gd_cert.verdict == "not_simple":
        log.append("ideal lifts to a polynomial-coefficient ideal of the "
                   "conformal algebra")
        return SimplicityCertificate("not_simple", "lifted_ideal",
                                     witness=gd_cert.witness,
                                     details=tuple(log))

    pn_cert = _pre_novikov_part_certificate(alg, trials, rng_seed, log)
    if pn_cert is not None and pn_cert.verdict == "simple":
        if products_span(alg, "star"):
            log.append("star products span V")
            return SimplicityCertificate("simple", "pre_novikov_simple_spanning",
                                         details=tuple(log))
        log.append("star products do not span V")

    if not alg.has("rd") or _all_products_zero(alg, ("rd",)):
        if gd_cert.verdict == "simple":
            a = _regular_element(alg, trials, random.Random(rng_seed))
            if a is not None:
                log.append("found a with jointly injective ld multiplications")
                return SimplicityCertificate("simple", "rd_trivial_regular_element",
                                             witness=tuple(a), details=tuple(log))
            log.append("no regular element found")
        else:
            log.append("rd trivial but three-operation simplicity unresolved")

        if alg.has("ld") and alg.has("circ"):
            probe = AlgebraSpec(alg.name + "~np?", alg.dim, alg.basis,
                                {"dot": alg.ops["ld"], "circ": alg.ops["circ"]})
            if check_identity(probe, "NOVIKOV_POISSON").passed:
                log.append("ld together with circ satisfies the "
                           "Novikov-Poisson laws")
                try:
                    np_cert = _simple_on_ops(alg, ("ld", "circ"), trials, rng_seed)
                except TrivialAlgebra:
                    np_cert = None
                if np_cert is not None and np_cert.verdict == "simple":
                    return SimplicityCertificate("simple", "novikov_poisson_simple",
                                                 details=tuple(log))
                if np_cert is not None:
                    log.append(f"Novikov-Poisson algebra: {np_cert.verdict}")

    return SimplicityCertificate("inconclusive", "no_applicable_criterion",
                                 details=tuple(log))


def check_star_nonzero(alg):
    """Some basis pair has a rd b != -(b ld a), i.e. a nonzero star
    product; holds for every simple pre-Novikov algebra."""
    return any(row for plane in alg.rows("star") for row in plane)
