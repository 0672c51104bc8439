"""Central extensions by a one-dimensional torsion centre: Z2, B2, H2.

A cocycle is a polynomial family alpha_lam = sum_i lam^i alpha_i of
bilinear forms on the algebra.  The extension identity

    alpha_{lam+mu}(a_lam b, c) - alpha_lam(a, b_mu c)
        = alpha_{lam+mu}(b_mu a, c) - alpha_mu(b, a_lam c)

expands, for the quadratic lam-product, into one linear equation per
basis triple and lam^i mu^j monomial; generate_cocycle_system performs
that expansion mechanically and is the source of truth.  (The tests
cross-check it against hand-written cap-3 equation lists.)  The identity
is antisymmetric under (a, lam) <-> (b, mu): the equation at (b, a, c) and
lam^j mu^i is minus the one at (a, b, c) and lam^i mu^j, so only the
triples with a <= b are expanded, and on a diagonal triple (a, a, c) only
the monomials lam^i mu^j with i < j (the one at lam^j mu^i is its negative,
and at i = j it is zero).

generate_cocycle_system reads the lam-bracket table conformal._brackets,
and d sesquilinearly: under alpha_{lam+mu}(., c), d x reads as -(lam+mu) x;
under alpha_lam(a, .), d y reads as (lam + beta) y, d being beta on the
centre.  The images of a_lam b - b_mu a, b_mu c and a_lam c are each
summed per lam^p mu^q before expansion: nine expansions per triple.

Cocycle coordinates are ordered highest-degree form first:

    col(i, a, b) = ((cap - i) * dim + a) * dim + b

so echelon reduction of Z2 against B2 normalizes the low-degree forms
away and representatives keep their top-degree entries.

The equations of generate_cocycle_system are sparse integer rows
{col: int}; they and the B2 generators of coboundary_space, read off the
same table, are scaled by alg.den * beta.denominator.  Many equations say
alpha_i(x, y) = 0.  Before elimination h2 drops each such forced column
from every other equation, in rounds until no new one-coordinate equation
appears.  Z2 is then the kernel of the equations still nonzero, with the
forced columns declared zero rather than eliminated as unit rows: the same
subspace, so the same canonical Z2.
beta and cocycle forms must be int or Fraction, never a binary float.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, isqrt

from .algebras import IdentityError, op_tensor, products_span, require_identity
from .conformal import _brackets
from .linalg import (ZERO, ONE, DimensionMismatch, Subspace, exact, nullspace,
                     quotient_representatives)


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
        forms = tuple(tuple(tuple(map(exact, row)) for row in f)
                      for f in self.forms)
        if self.degree_cap < 0 or len(forms) != self.degree_cap + 1:
            raise ValueError("need a degree_cap >= 0 and degree_cap + 1 forms")
        # every form has d rows, and every row d entries
        d = len(forms[0])
        if set(map(len, itertools.chain(forms, *forms))) != {d}:
            raise DimensionMismatch(f"cocycle forms are not all {d} x {d}")
        object.__setattr__(self, "forms", forms)

    @property
    def dim(self):
        return len(self.forms[0])


def ncols(cap, dim):
    return (cap + 1) * dim * dim


def coord_index(cap, dim, i, a, b):
    return ((cap - i) * dim + a) * dim + b


def family_from_coords(cap, dim, vec):
    forms = [[vec[coord_index(cap, dim, i, a, 0):coord_index(cap, dim, i, a, dim)]
              for a in range(dim)] for i in range(cap + 1)]
    return CocycleFamily(cap, tuple(forms))


def family_to_coords(fam, cap, dim):
    """Coordinates of a family in cap-sized coordinate space (cap may
    exceed the family's own degree_cap; missing forms are zero)."""
    if fam.dim != dim:
        raise DimensionMismatch(f"cocycle forms are {fam.dim}-dimensional, expected {dim}")
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

def generate_cocycle_system(alg, beta, degree_cap):
    """Constraint rows {col: int} of the extension identity, one per basis
    triple (a, b, c) with a <= b and lam^i mu^j monomial (i < j when a = b),
    scaled by alg.den * beta.denominator.  A triple with a > b, or a diagonal
    monomial with i >= j, would only repeat an emitted row up to sign or give
    zero (see the module docstring).  Zero rows are dropped; repeated rows
    are kept, and h2 resolves the one-coordinate ones with forced_zeros."""
    beta = exact(beta)
    require_identity(alg, "PRE_GD")
    cap, dim = degree_cap, alg.dim
    bn, bd = beta.numerator, beta.denominator
    table = _brackets(alg)

    def image(signed, reading, step):
        # {(p, q): ((step * k, x), ...)}: lam^p mu^q parts of a signed sum of brackets,
        # d^d read as reading[d]'s ((own power, other power), factor); swapped: own is mu
        acc = defaultdict(dict)
        for pair, sign, swap in signed:
            for n, row, _ in table[pair]:
                for (d, k), v in row:
                    for (p, q), f in reading[d]:
                        part = acc[(q, n + p) if swap else (n + p, q)]
                        part[step * k] = part.get(step * k, 0) + sign * f * v
        return {s: vec for s, part in acc.items()
                if (vec := tuple((k, x) for k, x in part.items() if x))}

    # the two readings of d^d (see the module docstring) times bd: first in
    # alpha_{lam+mu}(a_lam b - b_mu a, e_c), at columns dim * k + c; second in
    # alpha_sigma(e_f, x_nu y), keyed (nu power, sigma power)
    first = ((((0, 0), bd),), (((1, 0), -bd), ((0, 1), -bd)))
    second = ((((0, 0), bd),), (((0, 1), bd), ((0, 0), bn)))
    pairs = list(itertools.combinations_with_replacement(range(dim), 2))
    outer = {(a, b): image((((a, b), 1, False), ((b, a), -1, True)), first, dim) for a, b in pairs}
    inner = {pair: image(((pair, 1, False),), second, 1) for pair in table}
    # flat expansions (monomial, column offset of alpha_i, coefficient) of lam^dl
    # mu^dm alpha_{lam+mu} = sum_{i, p} C(i, p) lam^(p+dl) mu^(i-p+dm) alpha_i (both),
    # and at an inner key of -alpha_lam(e_a, b_mu c) (lam) and alpha_mu(e_b, a_lam c) (mu)
    offs = [(i, (cap - i) * dim * dim) for i in range(cap + 1)]
    shifts = {s for side in (outer, inner) for imgs in side.values() for s in imgs}
    both = {(dl, dm): [((p + dl, i - p + dm), off, comb(i, p)) for i, off in offs
                       for p in range(i + 1)] for dl, dm in shifts}
    lam = {(n, e): [((i + e, n), off, -1) for i, off in offs] for n, e in shifts}
    mu = {(n, e): [((n, i + e), off, 1) for i, off in offs] for n, e in shifts}
    # a diagonal triple expands into the monomials lam^i mu^j with i < j only
    full = (both, lam, mu)
    diagonal = tuple({s: [t for t in exp if t[0][0] < t[0][1]] for s, exp in side.items()}
                     for side in full)
    rows = []
    for (a, b), c in itertools.product(pairs, range(dim)):
        acc = defaultdict(dict)
        for expansion, imgs, shift in zip(diagonal if a == b else full,
                                          (outer[a, b], inner[b, c], inner[a, c]),
                                          (c, dim * a, dim * b)):
            for s, vec in imgs.items():
                for key, off, co in expansion[s]:
                    row, off = acc[key], off + shift
                    for k, x in vec:
                        row[off + k] = row.get(off + k, 0) + co * x
        for key in sorted(acc):
            row = {col: x for col, x in acc[key].items() if x}
            if row:
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# coboundaries, spanning, H2

def coboundary_space(alg, beta, degree_cap):
    """Image of phi -> alpha with alpha_n(a, b) = phi(lam^n part of a_lam b),
    d read as beta, over the functionals phi that kill every part above the
    cap (at cap 0: phi(a star b) = 0), taken as the integer echelon rows of
    that kernel.  Generators are integer rows scaled by
    alg.den * beta.denominator."""
    beta = exact(beta)
    cap, dim = degree_cap, alg.dim
    bn, bd = beta.numerator, beta.denominator
    # images[k]: the generator of phi = e_k; high: the parts phi must kill
    images, high = [{} for _ in range(dim)], []
    for (a, b), parts in _brackets(alg).items():
        for n, row, _ in parts:
            part = {}
            for (d, k), x in row:
                part[k] = part.get(k, 0) + (bn if d else bd) * x
            if n > cap:
                high.append(part)
                continue
            col = coord_index(cap, dim, n, a, b)
            for k, x in part.items():
                images[k][col] = images[k].get(col, 0) + x
    gens = []
    for phi in nullspace(high, dim)._rows.values():
        gen = {}
        for k, c in phi.items():
            for col, x in images[k].items():
                gen[col] = gen.get(col, 0) + c * x
        gens.append(gen)
    return Subspace(ncols(cap, dim), gens)


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
    representatives: tuple
    _z2: Subspace = field(repr=False, compare=False)

    @cached_property
    def cocycle_basis(self):
        """The canonical basis of Z2 as families, built on first read."""
        dim = isqrt(self._z2.ambient_dim // (self.degree_cap + 1))
        return tuple(family_from_coords(self.degree_cap, dim, v) for v in self._z2.basis)


def forced_zeros(rows):
    """(rounds, left) for rows {col: int}: rounds[r] is the set of columns
    that stand alone in a row once the columns of rounds[:r] are dropped,
    so they vanish on the kernel; left holds the rows still nonzero once
    every such column is dropped.  The unit rows of the forced columns
    together with left span the same rows as `rows`."""
    rounds, left = [], rows
    while True:
        new = {c for row in left if len(row) == 1 for c in row}
        if not new:
            return rounds, left
        rounds.append(new)
        left = [row if new.isdisjoint(row) else {c: x for c, x in row.items() if c not in new}
                for row in left if not new.issuperset(row)]


def h2(alg, beta, degree_cap=None):
    """Cocycles modulo coboundaries at the given (or justified) cap."""
    beta = exact(beta)
    if degree_cap is not None and (type(degree_cap) is not int or degree_cap < 0):
        raise ValueError(f"degree_cap must be a non-negative int, got {degree_cap!r}")
    spanning = check_spanning(alg)
    if degree_cap is None:
        if not spanning:
            raise SpanningConditionError(
                "no product spans V; supply an explicit degree cap")
        cap, cap_limited = 3, False
    else:
        cap, cap_limited = degree_cap, not spanning
    dim = alg.dim
    rounds, left = forced_zeros(generate_cocycle_system(alg, beta, cap))
    z2 = nullspace(left, ncols(cap, dim), zero=set().union(*rounds))
    b2 = coboundary_space(alg, beta, cap)
    if not z2.contains_subspace(b2):
        raise CohomologyError("coboundary outside the cocycle space")
    reps = quotient_representatives(z2, b2)
    return ExtensionResult(
        beta=beta, degree_cap=cap, cap_limited=cap_limited,
        spanning=tuple(sorted(spanning)),
        dim_Z2=z2.dim, dim_B2=b2.dim, dim_H2=z2.dim - b2.dim,
        representatives=tuple(family_from_coords(cap, dim, v) for v in reps), _z2=z2)


def find_right_unit(alg):
    """An e with a ast e = a and a ld e = a for all a, or None if there is
    none.  The system M e = rhs is read from the kernel of [-rhs | M] with
    M's columns reversed: in that kernel's canonical echelon, the row at
    pivot 0 (absent iff the system is inconsistent) holds the solution
    whose free unknowns, those no pivot of M's echelon determines, are 0."""
    dim = alg.dim
    rows = []
    for op in ("ast", "ld"):
        prods = op_tensor(alg, op)
        rows += ([-ONE if k == a else ZERO] + [prods[a][j][k] for j in reversed(range(dim))]
                 for a in range(dim) for k in range(dim))
    kernel = nullspace(rows, dim + 1)
    return kernel.basis[0][:0:-1] if kernel.pivots[:1] == [0] else None


def unital_vanishing_check(alg, beta):
    """For a pre-Novikov algebra with a right unit, H2 vanishes at
    beta != 0; returns the computed verdict dim_H2 == 0."""
    beta = exact(beta)
    if beta == 0:
        raise ValueError("the unital vanishing statement needs beta != 0")
    if alg.has("circ"):
        raise IdentityError("unital vanishing applies to pre-Novikov specs (no circ)")
    e = find_right_unit(alg)
    if e is None:
        raise NoUnitFound("no right unit for (ast, ld)")
    return h2(alg, beta).dim_H2 == 0
