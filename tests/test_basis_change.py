"""Answers depend on the algebra, not on its basis.  Each check moves an
algebra to the basis given by the columns of a random P in GL_n(Q) with
integer entries in [-2, 2] (see oracles.change_basis), a cocycle family by
alpha'_i(x, y) = alpha_i(Px, Py) and a derivation D to P^-1 D P, and asserts
that the answer did not move.  `simple` is left out: its verdict can still
depend on the random draw of regular-element candidates."""

import random
from fractions import Fraction

from lsconf.algebras import CATALOG, LinearMapSpec, check_identity
from lsconf.cohomology import CocycleFamily, family_to_coords, h2, ncols
from lsconf.conformal import check_coeff_left_symmetry
from lsconf.constructions import truncated_binomial_zinbiel
from lsconf.linalg import Subspace

import oracles
from conftest import (gaussian_rationals, matrices_star_zero, pre_gd_zoo_specs,
                      random_algebra, split_quadratic)

F = Fraction
BETAS = (F(0), F(1, 2))


def moved(rng, alg):
    """(alg', P, P^-1) for a random change of basis of alg."""
    p, p_inv = oracles.random_basis_change(rng, alg.dim)
    return oracles.change_basis(alg, p, p_inv), p, p_inv


def test_catalog_verdicts_do_not_depend_on_the_basis():
    """Every identity of the catalog, on the pre-GD zoo, two Zinbiel
    algebras with their derivations, three algebras with no proper ideal
    structure in common and 24 seeded random algebras of dims 2-3."""
    rng = random.Random(27)
    cases = [(alg, None) for alg in pre_gd_zoo_specs()]
    cases += [truncated_binomial_zinbiel(n) for n in (3, 4)]
    cases += [(alg, None) for alg in (gaussian_rationals(), split_quadratic(),
                                      matrices_star_zero())]
    cases += [(random_algebra(rng, 2 + n % 2, ("ld", "rd", "circ", "dot")), None)
              for n in range(24)]
    verdicts = set()
    for alg, aux in cases:
        if aux is None:
            aux = LinearMapSpec([[rng.randint(-1, 1) for _ in range(alg.dim)]
                                 for _ in range(alg.dim)])
        new, p, p_inv = moved(rng, alg)
        new_aux = oracles.change_map_basis(aux, p, p_inv)
        for key in CATALOG:
            verdict = check_identity(alg, key, aux=aux).passed
            assert check_identity(new, key, aux=new_aux).passed == verdict, (alg.name, key)
            verdicts.add((key, verdict))
    # every identity is met both passing and failing
    assert len(verdicts) == 2 * len(CATALOG)


def test_h2_does_not_depend_on_the_basis():
    """h2 at cap 3 and beta in {0, 1/2} on the pre-GD zoo: the same dims
    and spanning set, and each moved Z2 basis family lies in the new Z2."""
    rng = random.Random(2)
    for alg in pre_gd_zoo_specs():
        new, p, _ = moved(rng, alg)
        for beta in BETAS:
            res, res_new = h2(alg, beta, 3), h2(new, beta, 3)
            assert ((res.dim_Z2, res.dim_B2, res.dim_H2, res.spanning, res.cap_limited)
                    == (res_new.dim_Z2, res_new.dim_B2, res_new.dim_H2, res_new.spanning,
                        res_new.cap_limited)), (alg.name, beta)
            z2_new = Subspace(ncols(3, alg.dim), [family_to_coords(fam, 3, alg.dim)
                                                  for fam in res_new.cocycle_basis])
            for fam in res.cocycle_basis:
                moved_fam = oracles.change_cocycle_basis(fam, p)
                assert z2_new.contains(family_to_coords(moved_fam, 3, alg.dim)), alg.name


def nudged(fam, rng):
    """fam with one entry moved by +-1: close to a cocycle, but not one."""
    forms = [[list(row) for row in form] for form in fam.forms]
    d, a, b = (rng.randrange(n) for n in (len(forms), fam.dim, fam.dim))
    forms[d][a][b] += rng.choice((-1, 1))
    return CocycleFamily(fam.degree_cap, forms)


def test_coeff_check_verdicts_do_not_depend_on_the_basis():
    """coeff-check at windows 1-2 on the zoo's algebras of dim <= 2, with no
    cocycle and with each h2 cocycle basis family at cap 2; and at window 2,
    max(2, top degree), with each such family nudged.  A nudged family at
    window 1 is below max(2, top), where a pass can be vacuous, and there
    the verdict can move with the basis."""
    rng = random.Random(5)
    verdicts = set()
    for alg in (a for a in pre_gd_zoo_specs() if a.dim <= 2):
        new, p, _ = moved(rng, alg)
        for beta in BETAS:
            basis = h2(alg, beta, 2).cocycle_basis
            cases = [(fam, window) for fam in (None, *basis) for window in (1, 2)]
            cases += [(nudged(fam, rng), 2) for fam in basis]
            for fam, window in cases:
                new_fam = None if fam is None else oracles.change_cocycle_basis(fam, p)
                verdict = check_coeff_left_symmetry(alg, window, cocycle=fam, beta=beta).passed
                assert check_coeff_left_symmetry(new, window, cocycle=new_fam,
                                                 beta=beta).passed == verdict, alg.name
                verdicts.add(verdict)
    assert verdicts == {True, False}
