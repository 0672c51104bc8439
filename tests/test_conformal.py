import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsconf.algebras import (AlgebraError, AlgebraSpec, IdentityError, check_identity,
                             tensor)
from lsconf.cohomology import CocycleFamily, family_to_coords, h2
from lsconf.conformal import (CentralInputError, LambdaPoly, ModuleElement,
                              WindowMismatch, WindowedElement, build_current,
                              build_rank_one, check_coeff_left_symmetry,
                              check_conformal_left_symmetry, coeff_product,
                              conformal_associator_defect, format_lambda_poly,
                              lambda_product)
from lsconf.linalg import DimensionMismatch

from conftest import pre_gd_zoo_specs, random_algebra, two_dim_lw
import oracles

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


def test_sesquilinear_lambda_goldens():
    """By hand from L_lam L = (d + lam + 1) L: (dL)_lam L is -lam times it,
    and L_lam (dL) is (d + lam) times it.  The renderings take the d^k
    power, a leading minus and the " - " joint."""
    r1, dL = build_rank_one(1), ME.basis(0, ddeg=1)
    assert format_lambda_poly(lambda_product(r1, dL, L), ("L",)) == "(-∂λ - λ^2 - λ)·L"
    assert (format_lambda_poly(lambda_product(r1, L, dL), ("L",))
            == "(∂^2 + 2∂λ + ∂ + λ^2 + λ)·L")


@pytest.mark.parametrize("coeffs, rendered", [
    ({0: ME({(0, 0): 1})}, "L"),
    ({0: ME({(0, 0): -1})}, "-1·L"),
    ({1: ME({(2, 0): F(3, 2)})}, "3/2∂^2λ·L"),
    ({0: ME({(0, 1): F(-2, 3)})}, "-2/3·W"),
    ({0: ME({(1, 0): 1, (0, 0): F(1, 2)}), 2: ME({(0, 0): -1})}, "(∂ - λ^2 + 1/2)·L"),
    ({1: ME({(1, 0): -1}), 0: ME({(0, 0): 3})}, "(-∂λ + 3)·L"),
    ({0: ME({(0, 0): -1, (1, 1): 2})}, "-1·L + 2∂·W"),
    ({1: ME({(0, 0): 1, (0, 1): -1})}, "λ·L - λ·W"),
    ({0: ME({(0, 0): 1, (1, 1): -1})}, "L - ∂·W"),
    ({0: ME({(1, 0): 1, (0, 1): -1})}, "∂·L - 1·W"),
    ({0: ME(central=1)}, "c"),
    ({0: ME(central=F(-1, 2))}, "-1/2·c"),
    ({0: ME({(0, 0): 1}), 2: ME(central=1), 3: ME(central=-1)}, "L + (-λ^3 + λ^2)·c"),
    ({1: ME({(0, 1): 1}, central=-1)}, "λ·W - λ·c"),
    ({}, "0"),
], ids=["bare-label", "minus-one-constant", "rational-with-powers", "rational-constant",
        "multi-monomial", "leading-minus-in-chunk", "negative-first-chunk",
        "negative-later-chunk", "minus-body-later", "minus-one-later", "centre-only",
        "centre-rational", "centre-with-lambda-powers", "centre-after-basis", "zero"])
def test_format_lambda_poly_table(coeffs, rendered):
    """Every branch of the renderer: coefficients 1, -1 and other rationals,
    constant monomials, bare and -1· chunks, signs between chunks, the centre."""
    assert format_lambda_poly(LambdaPoly(coeffs), ("L", "W")) == rendered


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
    x = ME({(0, i): c for i, c in enumerate(coords[:2])})
    y = ME({(0, i): c for i, c in enumerate(coords[2:])})
    p = lambda_product(lw, x, y)
    expect = {}
    for n, elt in p.coeffs.items():
        for key, piece in ((n, oracles.apply_partial(elt, F(0))), (n + 1, elt)):
            expect[key] = expect.get(key, ME()).plus(piece)
    assert lambda_product(lw, x, oracles.apply_partial(y, F(0))) == LambdaPoly(expect)


def test_current_product_is_constant_in_lambda():
    base = AlgebraSpec("n2", 2, ("x", "y"), {"circ": tensor(2, {(0, 1, 1): 1})})
    cur = build_current(base)
    p = lambda_product(cur, ME.basis(0), ME.basis(1))
    assert p.coeffs == {0: ME({(0, 1): 1})}
    assert format_lambda_poly(p, cur.basis) == "y"


def test_current_rejects_bad_inputs():
    # carrying ld/rd is a wrong-shaped input, not a failed identity
    with pytest.raises(AlgebraError) as err:
        build_current(two_dim_lw())
    assert not isinstance(err.value, IdentityError)
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


# entries with denominators 2 and 3, zero half the time
NONZERO = [F(1), F(-1), F(1, 2), F(-3, 2), F(2, 3), F(-1, 3)]
ENTRIES = st.sampled_from([F(0)] * 6 + NONZERO)


def cocycle_families(dim):
    """Families of caps 0-5 with random forms."""
    return st.integers(0, 5).flatmap(lambda cap: st.builds(
        CocycleFamily, st.just(cap),
        st.tuples(*[st.tuples(*[st.tuples(*[ENTRIES] * dim)] * dim)] * (cap + 1))))


@st.composite
def windowed_algebras(draw):
    """A random (ld, rd, circ) spec of dim 1-3 with an optional cocycle."""
    dim = draw(st.integers(1, 3), label="dim")
    planes = st.lists(st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim),
                               min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    ops = {op: draw(planes, label=op) for op in ("ld", "rd", "circ")
           if draw(st.booleans(), label=f"has {op}")}
    alg = AlgebraSpec(f"random({dim})", dim, tuple(f"e{i}" for i in range(dim)), ops)
    return alg, draw(st.none() | cocycle_families(dim), label="cocycle")


# rd alone: at window 2 the escaped terms of a second-level product cancel
# in two exponent triples, which are then checked rather than skipped
ESCAPES_CANCEL = AlgebraSpec("escapes_cancel", 2, ("e0", "e1"), {"rd": tensor(
    2, {(0, 0, 0): F(-3, 2), (0, 0, 1): -1, (0, 1, 1): F(2, 3), (1, 1, 1): -1})})


# alpha_0 = 1 is no cocycle here: at window 2 the report holds violations at
# both (x, y, z) and (y, x, z), x != y, with nonzero central residuals, so
# the residual negated at x > y is compared with the oracle's
MIRRORED = (AlgebraSpec("mirrored", 1, ("c",), {"ld": tensor(1, {(0, 0, 0): F(1, 2)}),
                                               "rd": tensor(1, {(0, 0, 0): 1}),
                                               "circ": tensor(1, {(0, 0, 0): 1})}),
            CocycleFamily(0, (((1,),),)))


def test_mirrored_example_negates_a_central_residual():
    alg, fam = MIRRORED
    report = check_coeff_left_symmetry(alg, 2, cocycle=fam)
    found = {exps: dict(residual) for _, exps, residual in report.violations}
    assert found[-2, 1, 1][("central",)] == F(-15, 2)
    assert found[1, -2, 1] == {key: -v for key, v in found[-2, 1, 1].items()}


@settings(max_examples=60, deadline=None)
@given(windowed_algebras(), st.integers(0, 3))
@example((ESCAPES_CANCEL, None), 2)
@example(MIRRORED, 2)
def test_check_coeff_left_symmetry_matches_fraction_oracle(case, window):
    alg, fam = case
    assert (check_coeff_left_symmetry(alg, window, cocycle=fam)
            == oracles.check_coeff_left_symmetry(alg, window, cocycle=fam))


def windowed_elements(dim, window):
    """One to four in-window terms; one escaped term one time in ten."""
    keys = st.tuples(st.integers(0, dim - 1), st.integers(-window, window))
    far = st.tuples(st.integers(0, dim - 1), st.sampled_from([-window - 1, window + 1]))
    escapes = st.sampled_from([0] * 9 + [1]).flatmap(
        lambda size: st.dictionaries(far, st.sampled_from(NONZERO), min_size=size, max_size=size))
    return st.builds(WindowedElement, st.just(window),
                     st.dictionaries(keys, st.sampled_from(NONZERO), min_size=1, max_size=4),
                     ENTRIES, escapes)


def _outcome(product, alg, x, y, fam):
    try:
        return product(alg, x, y, cocycle=fam)
    except WindowMismatch as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coeff_product_matches_fraction_oracle(data):
    """Equal products on random windowed elements, and the same refusals
    for mismatched windows and escaped operands."""
    alg, fam = data.draw(windowed_algebras(), label="case")
    window = data.draw(st.integers(0, 3), label="window")
    x = data.draw(windowed_elements(alg.dim, window), label="x")
    other = data.draw(st.sampled_from([window] * 9 + [window + 1]), label="y window")
    y = data.draw(windowed_elements(alg.dim, other), label="y")
    assert (_outcome(coeff_product, alg, x, y, fam)
            == _outcome(oracles.coeff_product, alg, x, y, fam))


def module_elements(dim):
    """One to three terms at d-degrees 0-2."""
    keys = st.tuples(st.integers(0, 2), st.integers(0, dim - 1))
    return st.builds(ME, st.dictionaries(keys, st.sampled_from(NONZERO), min_size=1, max_size=3))


BETAS = st.sampled_from([F(0), F(1, 2), F(-3)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lambda_product_matches_fraction_oracle(data):
    """The bracket-table route against the basis-pair product rebuilt per
    term pair, with cocycles of caps 0-5."""
    alg, fam = data.draw(windowed_algebras(), label="case")
    beta = data.draw(BETAS, label="beta")
    x = data.draw(module_elements(alg.dim), label="x")
    y = data.draw(module_elements(alg.dim), label="y")
    assert (lambda_product(alg, x, y, cocycle=fam, beta=beta)
            == oracles.lambda_product(alg, x, y, cocycle=fam, beta=beta))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_associator_defect_matches_fraction_oracle(data):
    alg, fam = data.draw(windowed_algebras(), label="case")
    beta = data.draw(BETAS, label="beta")
    a, b, c = (data.draw(module_elements(alg.dim), label=name) for name in "abc")
    assert (conformal_associator_defect(alg, a, b, c, cocycle=fam, beta=beta)
            == oracles.conformal_associator_defect(alg, a, b, c, cocycle=fam, beta=beta))


SMALL_ZOO = [alg for alg in pre_gd_zoo_specs() if alg.dim <= 2]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coeff_and_conformal_verdicts_agree_on_random_cocycles(data):
    """At window max(2, top nonzero degree) the coefficient algebra sees
    every form of the family, so both routes give the same verdict at the
    same beta.  A third of the families are integer combinations of an h2
    cocycle basis at that beta, and a third are such combinations with one
    entry moved by +-1, which mostly fail while close to valid ones; so both
    verdicts occur."""
    alg = data.draw(st.sampled_from(SMALL_ZOO), label="alg")
    beta = data.draw(BETAS, label="beta")
    kind = data.draw(st.sampled_from(["h2", "near h2", "random"]), label="kind")
    if kind == "random":
        fam = data.draw(cocycle_families(alg.dim), label="cocycle")
    else:
        cap = data.draw(st.integers(0, 5), label="cap")
        basis = h2(alg, beta, cap).cocycle_basis
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                                    max_size=len(basis)), label="coeffs")
        forms = [[[sum(c * b.forms[d][a][e] for c, b in zip(coeffs, basis))
                   for e in range(alg.dim)] for a in range(alg.dim)] for d in range(cap + 1)]
        if kind == "near h2":
            d, a, e = (data.draw(st.integers(0, n - 1), label=name)
                       for n, name in ((cap + 1, "degree"), (alg.dim, "a"), (alg.dim, "b")))
            forms[d][a][e] += data.draw(st.sampled_from([-1, 1]), label="step")
        fam = CocycleFamily(cap, forms)
    top = max((d for d, form in enumerate(fam.forms) if any(any(row) for row in form)),
              default=0)
    window = max(2, top)
    assert (check_coeff_left_symmetry(alg, window, cocycle=fam, beta=beta).passed
            == check_conformal_left_symmetry(alg, cocycle=fam, beta=beta).passed)


def test_ragged_cocycle_forms_are_refused():
    for forms in (([[1, 2]],), ([[1]], [[1, 0], [0, 1]]), ([[1, 0], [0]],)):
        with pytest.raises(DimensionMismatch):
            CocycleFamily(len(forms) - 1, forms)
    with pytest.raises(ValueError):
        CocycleFamily(-1, ())


def test_cocycle_of_another_dimension_is_refused():
    """Forms whose size is not the algebra's dimension are refused rather
    than read by their corner."""
    two = CocycleFamily(0, ([[1, 0], [0, 1]],))
    r1, lw = build_rank_one(1), two_dim_lw()
    calls = [lambda: lambda_product(r1, L, L, cocycle=two),
             lambda: conformal_associator_defect(r1, L, L, L, cocycle=two),
             lambda: check_conformal_left_symmetry(r1, cocycle=two),
             lambda: check_coeff_left_symmetry(r1, 1, cocycle=two),
             lambda: coeff_product(r1, WindowedElement.basis(1, 0, 0),
                                   WindowedElement.basis(1, 0, 0), cocycle=two),
             lambda: lambda_product(lw, L, L, cocycle=alpha2_cocycle()),
             lambda: family_to_coords(two, 0, 1),
             lambda: family_to_coords(alpha2_cocycle(), 2, 2)]
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call()
