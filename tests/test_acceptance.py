"""Acceptance gate: every release property, checked at exact equality.

Each test function covers one numbered criterion, so `pytest -v` yields one
pass/fail line per criterion.  Everything here is rational arithmetic; there
are no tolerances anywhere.
"""

import random
from fractions import Fraction

from lsconf.algebras import check_identity, eval_product
from lsconf.cohomology import (check_spanning, coboundary_space,
                               generate_cocycle_system, h2, ncols)
from lsconf.conformal import (build_rank_one, check_coeff_left_symmetry,
                              check_conformal_left_symmetry)
from lsconf.cohomology import CocycleFamily
from lsconf.ideals import (associative_envelope, certify_conformal_simplicity,
                           check_star_nonzero, find_proper_ideal)
from lsconf.linalg import nullspace, unit
from lsconf import constructions as cons

from conftest import random_algebra, rank_two, two_dim_lw, unital_one_dim
from oracles import hardcoded_cocycle_system

F = Fraction


def _entries(fam):
    return {(i, a, b): x for i, f in enumerate(fam.forms)
            for a, row in enumerate(f) for b, x in enumerate(row) if x}


def test_criterion_01_rank_one_extensions():
    res = h2(build_rank_one(0), 0)
    assert res.dim_H2 == 1
    assert _entries(res.representatives[0]) == {(2, 0, 0): 1}
    for c in (1, -2, F(5, 3)):
        assert h2(build_rank_one(c), 0).dim_H2 == 0


def test_criterion_02_two_dim_example():
    res = h2(two_dim_lw(), 0)
    assert res.dim_Z2 == 4
    assert [_entries(f) for f in res.cocycle_basis] == [
        {(3, 0, 1): 1}, {(2, 0, 0): 1}, {(1, 0, 0): 1}, {(1, 0, 1): 1}]
    assert res.dim_H2 == 2
    assert [_entries(f) for f in res.representatives] == [
        {(3, 0, 1): 1}, {(2, 0, 0): 1}]


def test_criterion_03_unital_vanishing():
    for beta in (1, -1, F(2, 7)):
        assert h2(unital_one_dim(), beta).dim_H2 == 0


def test_criterion_04_conformal_equivalence(pre_gd_zoo):
    rng = random.Random(20260823)
    disagreements = 0
    checked = 0
    for n in range(100):
        alg = random_algebra(rng, 2 if n < 70 else 3)
        if (check_identity(alg, "PRE_GD").passed
                != check_conformal_left_symmetry(alg).passed):
            disagreements += 1
        checked += 1
    for alg in pre_gd_zoo:
        assert check_identity(alg, "PRE_GD").passed
        if not check_conformal_left_symmetry(alg).passed:
            disagreements += 1
        checked += 1
    assert checked >= 100 + 20
    assert disagreements == 0


def test_criterion_05_generated_vs_hardcoded(pre_gd_zoo):
    cases = [build_rank_one(0), build_rank_one(1), two_dim_lw()]
    constructed = list(pre_gd_zoo)
    assert len(constructed) >= 20
    for alg in cases + constructed:
        width = ncols(3, alg.dim)
        gen = nullspace(generate_cocycle_system(alg, F(0), 3), width)
        hard = nullspace(hardcoded_cocycle_system(alg, F(0)), width)
        assert gen == hard, alg.name
    for alg in (cases + constructed)[:10]:
        width = ncols(3, alg.dim)
        gen = nullspace(generate_cocycle_system(alg, F(1), 3), width)
        hard = nullspace(hardcoded_cocycle_system(alg, F(1)), width)
        assert gen == hard, alg.name


def test_criterion_06_coboundaries_and_cap_stability(pre_gd_zoo):
    cases = [build_rank_one(0), build_rank_one(1), two_dim_lw()] + list(pre_gd_zoo)
    for alg in cases:
        for beta in (F(0), F(1), F(-1, 2)):
            z2 = nullspace(generate_cocycle_system(alg, beta, 3),
                           ncols(3, alg.dim))
            assert z2.contains_subspace(coboundary_space(alg, beta, 3)), alg.name
    for alg in cases:
        if alg.dim <= 3 and check_spanning(alg):
            assert h2(alg, 0, 3).dim_H2 == h2(alg, 0, 6).dim_H2, alg.name


def test_criterion_07_simplicity_certificates():
    cert = certify_conformal_simplicity(rank_two(1, 1))
    assert (cert.verdict, cert.criterion) == ("simple", "rd_trivial_regular_element")
    for c in (0, 1):
        cert = certify_conformal_simplicity(build_rank_one(c))
        assert (cert.verdict, cert.criterion) == ("simple",
                                                  "pre_novikov_simple_spanning")
    degenerate = rank_two(0, 0)
    cert = certify_conformal_simplicity(degenerate)
    assert cert.verdict == "not_simple"
    assert cert.witness.basis == [[0, 1]]
    for i in range(2):
        for op in ("ld", "rd", "circ"):
            assert cert.witness.contains(
                eval_product(degenerate, op, unit(2, i), [0, 1]))
            assert cert.witness.contains(
                eval_product(degenerate, op, [0, 1], unit(2, i)))


def test_criterion_08_construction_soundness():
    for N in (4, 6):
        zin, D = cons.truncated_binomial_zinbiel(N)
        for xi in (0, F(1, 2)):
            pn = cons.zinbiel_to_pre_novikov(zin, D, xi)
            assert check_identity(pn, "PRE_NOVIKOV").passed
            for k in (0, 1, -3):
                out = cons.zinbiel_to_pre_gd(zin, D, xi, k)
                assert check_identity(out, "PRE_GD_COMPAT").passed
    alg, D, triples, pairs = cons.truncated_laurent_slice()
    out = cons.comm_assoc_derivation_to_novikov_poisson(
        alg, D, triples=triples, pairs=pairs)
    assert check_identity(out, "NOVIKOV_POISSON", triples=triples,
                          pairs=pairs).passed


def test_criterion_09_coefficient_algebra():
    assert check_coeff_left_symmetry(build_rank_one(1), 3).passed
    assert check_coeff_left_symmetry(two_dim_lw(), 3).passed
    lift = CocycleFamily(2, (((0,),), ((0,),), ((1,),)))
    assert check_coeff_left_symmetry(build_rank_one(0), 3, cocycle=lift).passed


def test_criterion_10_simple_pre_novikov_star(pre_gd_zoo):
    zin, D = cons.truncated_binomial_zinbiel(4)
    candidates = [build_rank_one(0), build_rank_one(1), unital_one_dim(),
                  two_dim_lw(), rank_two(1, 1),
                  cons.zinbiel_to_pre_novikov(zin, D, F(1, 2))]
    candidates += list(pre_gd_zoo)
    simple_seen = 0
    for alg in candidates:
        if not (alg.has("ld") or alg.has("rd")):
            continue
        if find_proper_ideal(alg, ops=("ld", "rd")) is not None:
            continue
        if associative_envelope(alg, ops=("ld", "rd")).dim != alg.dim * alg.dim:
            continue
        simple_seen += 1
        assert check_star_nonzero(alg), alg.name
    assert simple_seen >= 2
