import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsconf.algebras import AlgebraSpec, IdentityError, check_identity, tensor
from lsconf.cohomology import CocycleFamily
from lsconf.conformal import (CentralInputError, LambdaPoly, ModuleElement,
                              WindowMismatch, WindowedElement, build_current,
                              build_rank_one, check_coeff_left_symmetry,
                              check_conformal_left_symmetry, coeff_product,
                              conformal_associator_defect, format_lambda_poly,
                              lambda_product)

from conftest import random_algebra, two_dim_lw

F = Fraction
ME = ModuleElement
L = ME.basis(0)


def alpha2_cocycle():
    """Rank-one family with alpha_2(L, L) = 1, lower forms zero."""
    return CocycleFamily(2, (((0,),), ((0,),), ((1,),)))


def test_rank_one_lambda_product():
    p = lambda_product(build_rank_one(1), L, L)
    assert p.coeffs == {0: ME({(1, 0): 1, (0, 0): 1}), 1: ME({(0, 0): 1})}
    assert format_lambda_poly(p, ("L",)) == "(∂ + λ + 1)·L"


def test_two_dim_lambda_goldens():
    lw = two_dim_lw()
    W = ME.basis(1)
    fmt = lambda x, y: format_lambda_poly(lambda_product(lw, x, y), lw.basis)
    assert fmt(L, W) == "(∂ + 2λ)·W"
    assert fmt(L, L) == "(∂ + λ)·L"
    assert fmt(W, L) == "0"
    assert fmt(W, W) == "0"


def test_cocycle_contributes_central_terms():
    p = lambda_product(build_rank_one(0), L, L, cocycle=alpha2_cocycle())
    assert p.coeffs[2] == ME(central=1)
    assert format_lambda_poly(p, ("L",)) == "(∂ + λ)·L + λ^2·c"


def test_central_inputs_rejected():
    r1 = build_rank_one(1)
    with pytest.raises(CentralInputError):
        lambda_product(r1, ME(central=1), L)
    with pytest.raises(CentralInputError):
        lambda_product(r1, L, L.plus(ME(central=F(1, 2))))


def test_sesquilinearity_first_slot():
    # (d x)_lam y = -lam (x_lam y)
    r1 = build_rank_one(1)
    p = lambda_product(r1, L, L)
    shifted = lambda_product(r1, ME.basis(0, ddeg=1), L)
    assert shifted == LambdaPoly({n + 1: elt.scaled(-1) for n, elt in p.coeffs.items()})


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                min_size=4, max_size=4))
def test_sesquilinearity_second_slot(coords):
    # x_lam (d y) = (d + lam)(x_lam y)
    lw = two_dim_lw()
    x = ME.from_vector(coords[:2])
    y = ME.from_vector(coords[2:])
    p = lambda_product(lw, x, y)
    expect = {}
    for n, elt in p.coeffs.items():
        for key, piece in ((n, elt.apply_partial(F(0))), (n + 1, elt)):
            expect[key] = expect.get(key, ME()).plus(piece)
    assert lambda_product(lw, x, y.apply_partial(F(0))) == LambdaPoly(expect)


def test_current_product_is_constant_in_lambda():
    base = AlgebraSpec("n2", 2, ("x", "y"), {"circ": tensor(2, {(0, 1, 1): 1})})
    cur = build_current(base)
    p = lambda_product(cur, ME.basis(0), ME.basis(1))
    assert p.coeffs == {0: ME({(0, 1): 1})}
    assert format_lambda_poly(p, cur.basis) == "y"


def test_current_rejects_bad_inputs():
    with pytest.raises(IdentityError):
        build_current(two_dim_lw())  # carries ld/rd
    bad = AlgebraSpec("bad", 2, ("x", "y"),
                      {"circ": tensor(2, {(0, 0, 1): 1, (1, 0, 0): 1})})
    assert not check_identity(bad, "LEFT_SYMMETRIC").passed
    with pytest.raises(IdentityError):
        build_current(bad)


def test_left_symmetry_passes_on_valid_pre_gd(pre_gd_zoo):
    for alg in pre_gd_zoo:
        assert check_conformal_left_symmetry(alg).passed, alg.name


def test_left_symmetry_matches_catalog_verdict():
    rng = random.Random(11)
    for _ in range(25):
        alg = random_algebra(rng, 2)
        want = check_identity(alg, "PRE_GD").passed
        assert check_conformal_left_symmetry(alg).passed == want


def test_left_symmetry_failure_reports_exact_residual():
    # q1-q9 hold here but circ alone is not left-symmetric
    probe = AlgebraSpec("probe", 2, ("a", "b"),
                       {"rd": tensor(2, {(1, 0, 0): F(-3)}),
                        "circ": tensor(2, {(0, 1, 0): F(1, 3)})})
    assert check_identity(probe, "QUADRATIC_9").passed
    rep = check_conformal_left_symmetry(probe)
    assert not rep.passed
    assert rep.violations[0] == (
        "left_symmetry", (0, 1, 1, 0, 0), (((0, 0), F(1, 9)),))


def test_associator_defect_zero_on_rank_one():
    r1 = build_rank_one(1)
    assert conformal_associator_defect(r1, L, L, L).is_zero()
    coc = alpha2_cocycle()
    assert conformal_associator_defect(build_rank_one(0), L, L, L,
                                       cocycle=coc).is_zero()


# ---------------------------------------------------------------------------
# windowed coefficient algebra


def test_coeff_product_rank_one():
    x = WindowedElement.basis(2, 0, 1)
    r = coeff_product(build_rank_one(0), x, x)
    assert r.terms == {(0, 1): F(-1)}
    assert not r.escapes and not r.central
    r = coeff_product(build_rank_one(1), x, x)
    assert r.terms == {(0, 1): F(-1), (0, 2): F(1)}


def test_coeff_product_escapes_instead_of_truncating():
    x = WindowedElement.basis(1, 0, 1)
    r = coeff_product(build_rank_one(1), x, x)
    assert r.terms == {(0, 1): F(-1)}
    assert r.escapes == {(0, 2): F(1)}
    with pytest.raises(WindowMismatch):
        coeff_product(build_rank_one(1), r, x)


def test_window_bookkeeping_errors():
    with pytest.raises(WindowMismatch):
        coeff_product(build_rank_one(0), WindowedElement.basis(1, 0, 0),
                      WindowedElement.basis(2, 0, 0))
    with pytest.raises(WindowMismatch):
        WindowedElement(1, {(0, 3): 1})


def test_eta_contribution():
    # m=2, n=-1 hits the alpha_2 row: central coefficient m(m-1) = 2
    r = coeff_product(build_rank_one(0), WindowedElement.basis(2, 0, 2),
                      WindowedElement.basis(2, 0, -1), cocycle=alpha2_cocycle())
    assert r.central == 2
    assert r.terms == {(0, 0): F(1)}


def test_coeff_left_symmetry_windows():
    rep = check_coeff_left_symmetry(build_rank_one(1), 3)
    assert rep.passed and rep.skipped == 239
    rep = check_coeff_left_symmetry(two_dim_lw(), 3)
    assert rep.passed and rep.skipped == 885


def test_coeff_left_symmetry_with_cocycle():
    rep = check_coeff_left_symmetry(build_rank_one(0), 2, cocycle=alpha2_cocycle())
    assert rep.passed and rep.skipped == 69


def test_coeff_left_symmetry_detects_failure():
    probe = AlgebraSpec("probe", 2, ("a", "b"),
                       {"rd": tensor(2, {(1, 0, 0): F(-3)}),
                        "circ": tensor(2, {(0, 1, 0): F(1, 3)})})
    rep = check_coeff_left_symmetry(probe, 1)
    assert not rep.passed
    assert rep.violations[0] == ((0, 1, 1), (-1, 0, 0), (((0, -1), F(1, 9)),))


@pytest.mark.parametrize("cap", range(7))
def test_coeff_and_conformal_verdicts_agree_on_single_forms(cap):
    # alpha_cap(L, L) = 1 is the only nonzero form; window 7 reaches every
    # exponent pair m + n + 1 = cap, so the two routes must agree
    fam = CocycleFamily(cap, tuple(((int(d == cap),),) for d in range(cap + 1)))
    alg = build_rank_one(0)
    assert (check_coeff_left_symmetry(alg, 7, cocycle=fam).passed
            == check_conformal_left_symmetry(alg, cocycle=fam).passed)
