from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lsconf.algebras import (AlgebraSpec, IdentityError, LinearMapSpec, RepresentationSpec,
                             op_tensor, product_tensor, tensor)
from lsconf.cohomology import (CocycleFamily, CohomologyError, NoUnitFound,
                               SpanningConditionError, check_spanning,
                               coboundary_space, coord_index, family_from_coords,
                               family_to_coords, find_right_unit, forced_zeros,
                               generate_cocycle_system, h2, ncols,
                               unital_vanishing_check)
from lsconf.conformal import (ModuleElement, WindowedElement, build_rank_one,
                              check_conformal_left_symmetry, conformal_associator_defect,
                              lambda_product)
from lsconf.linalg import Subspace, nullspace
from lsconf import cohomology, constructions as cons

from conftest import (dual_numbers_ls_poisson, pre_gd_zoo_specs, two_dim_lw,
                      unital_one_dim, unital_two_dim)
import oracles
from oracles import hardcoded_cocycle_system

F = Fraction


def nonzero_entries(fam):
    return {(i, a, b): x for i, f in enumerate(fam.forms)
            for a, row in enumerate(f) for b, x in enumerate(row) if x}


def test_rank_one_central_extensions():
    res = h2(build_rank_one(0), 0)
    assert (res.dim_Z2, res.dim_B2, res.dim_H2) == (2, 1, 1)
    assert nonzero_entries(res.representatives[0]) == {(2, 0, 0): 1}
    for c in (1, -2, F(5, 3)):
        assert h2(build_rank_one(c), 0).dim_H2 == 0


def test_two_dim_cocycle_content():
    res = h2(two_dim_lw(), 0)
    assert (res.dim_Z2, res.dim_B2, res.dim_H2) == (4, 2, 2)
    # canonical Z2 basis: alpha_3(L,W), alpha_2(L,L), alpha_1(L,L), alpha_1(L,W)
    assert [nonzero_entries(f) for f in res.cocycle_basis] == [
        {(3, 0, 1): 1}, {(2, 0, 0): 1}, {(1, 0, 0): 1}, {(1, 0, 1): 1}]
    assert [nonzero_entries(f) for f in res.representatives] == [
        {(3, 0, 1): 1}, {(2, 0, 0): 1}]


def test_unital_vanishing():
    u1 = unital_one_dim()
    for beta in (1, -1, F(2, 7)):
        assert h2(u1, beta).dim_H2 == 0
        assert unital_vanishing_check(u1, beta)
    assert unital_vanishing_check(unital_two_dim(), 3)
    assert find_right_unit(two_dim_lw()) == [1, 0]
    # every u + t v is a right unit of unital2; the free unknown is set to 0
    assert find_right_unit(unital_two_dim()) == [1, 0]
    assert find_right_unit(AlgebraSpec("zero", 2, ("u", "v"), {})) is None


def test_unital_vanishing_preconditions():
    with pytest.raises(ValueError):
        unital_vanishing_check(unital_one_dim(), 0)
    with pytest.raises(IdentityError):
        unital_vanishing_check(build_rank_one(1), 1)
    nilpotent = AlgebraSpec("nil", 2, ("L", "W"),
                            {"ld": tensor(2, {(0, 0, 1): 1})})
    with pytest.raises(NoUnitFound):
        unital_vanishing_check(nilpotent, 1)


def test_generated_equals_hardcoded_on_examples():
    for alg in (build_rank_one(0), build_rank_one(1), two_dim_lw(),
                cons.ls_poisson_to_pre_gd(dual_numbers_ls_poisson())):
        width = ncols(3, alg.dim)
        gen = nullspace(generate_cocycle_system(alg, F(0), 3), width)
        hard = nullspace(hardcoded_cocycle_system(alg, F(0)), width)
        assert gen == hard, alg.name


def test_generated_equals_hardcoded_on_constructions(pre_gd_zoo):
    for alg in pre_gd_zoo[:8]:
        width = ncols(3, alg.dim)
        for beta in (F(0), F(1)):
            gen = nullspace(generate_cocycle_system(alg, beta, 3), width)
            hard = nullspace(hardcoded_cocycle_system(alg, beta), width)
            assert gen == hard, (alg.name, beta)


def test_hardcoded_variant_preconditions():
    r1 = build_rank_one(1)
    with pytest.raises(ValueError):
        hardcoded_cocycle_system(r1, 0, variant="nope")
    with pytest.raises(ValueError):
        hardcoded_cocycle_system(r1, 0, variant="pre_novikov")  # circ present
    u1 = unital_one_dim()
    with pytest.raises(ValueError):
        hardcoded_cocycle_system(u1, 1, variant="pre_novikov_beta0")
    with pytest.raises(IdentityError):
        hardcoded_cocycle_system(
            AlgebraSpec("bad", 1, ("e",), {"rd": tensor(1, {(0, 0, 0): 1})}), 0)


def test_coboundaries_live_inside_cocycles(pre_gd_zoo):
    for alg in pre_gd_zoo[:8]:
        for beta in (F(0), F(1), F(-1, 2)):
            z2 = nullspace(generate_cocycle_system(alg, beta, 3),
                           ncols(3, alg.dim))
            assert z2.contains_subspace(coboundary_space(alg, beta, 3))


def test_cap_stability_under_spanning():
    for alg in (build_rank_one(0), build_rank_one(1), two_dim_lw()):
        assert check_spanning(alg)
        assert h2(alg, 0, 3).dim_H2 == h2(alg, 0, 6).dim_H2


def test_refusal_without_spanning_product():
    zero = AlgebraSpec("z", 1, ("e",), {})
    assert check_spanning(zero) == set()
    with pytest.raises(SpanningConditionError):
        h2(zero, 0)
    res = h2(zero, 0, degree_cap=3)
    assert res.cap_limited
    assert (res.dim_Z2, res.dim_B2, res.dim_H2) == (4, 0, 4)


BINOMIAL_4 = cons.zinbiel_to_pre_gd(*cons.truncated_binomial_zinbiel(4), F(1, 2), F(1))
PLAIN_REFUSAL = "no product spans V; supply an explicit degree cap"


def test_refusal_names_the_infinite_family():
    # binomial pre-GD n = 4: no product reaches e_0, so S has codimension 1
    with pytest.raises(SpanningConditionError) as exc:
        h2(BINOMIAL_4, F(1, 2))
    msg = str(exc.value)
    assert msg.startswith("no product spans V; ")
    assert "codimension 1" in msg and "H2 is infinite-dimensional" in msg
    assert "lambda^D phi" in msg and msg.endswith("supply an explicit degree cap")


def test_refusal_keeps_its_text_when_the_bracket_parts_span_v():
    # circ spans V, but circ is none of the four spanning products
    circ_only = AlgebraSpec("circ_only", 1, ("e",), {"circ": tensor(1, {(0, 0, 0): 1})})
    assert not check_spanning(circ_only)
    with pytest.raises(SpanningConditionError) as exc:
        h2(circ_only, 0)
    assert str(exc.value) == PLAIN_REFUSAL


@pytest.mark.parametrize("beta", [F(0), F(1, 2)])
def test_lambda_power_family_is_a_cocycle_outside_b2(beta):
    """phi = psi (x) psi, psi killing S = im ld + im circ + im star: lam^D phi
    lies in Z2 and outside B2 at caps D to D + 2, for D = 2, 3, 4."""
    dim = BINOMIAL_4.dim
    products = [op_tensor(BINOMIAL_4, op)[i][j] for op in ("ld", "circ", "star")
                for i in range(dim) for j in range(dim)]
    psi = nullspace(Subspace(dim, products).basis, dim).basis
    assert len(psi) == 1
    phi = tuple(tuple(x * y for y in psi[0]) for x in psi[0])
    zero = ((0,) * dim,) * dim
    for cap in range(2, 7):
        res = h2(BINOMIAL_4, beta, cap)
        b2 = coboundary_space(BINOMIAL_4, beta, cap)
        for d in range(max(2, cap - 2), min(4, cap) + 1):
            fam = CocycleFamily(d, (zero,) * d + (phi,))
            vec = family_to_coords(fam, cap, dim)
            assert res._z2.contains(vec) and not b2.contains(vec), (cap, d)


def test_spanning_report():
    res = h2(build_rank_one(1), 0)
    assert res.spanning == ("ast", "ld", "star")
    assert not res.cap_limited


def test_cocycles_keep_lambda_product_left_symmetric():
    lw = two_dim_lw()
    for fam in h2(lw, 0).cocycle_basis:
        assert check_conformal_left_symmetry(lw, cocycle=fam, beta=0).passed
    # a non-cocycle breaks it
    bad = CocycleFamily(3, (((0, 0), (0, 0)),) * 3 + ((((1, 0), (0, 0))),))
    assert not check_conformal_left_symmetry(lw, cocycle=bad, beta=0).passed


def test_family_coordinate_roundtrip():
    fam = CocycleFamily(2, (((1,),), ((F(-2, 3),),), ((0,),)))
    vec = family_to_coords(fam, 3, 1)
    assert family_from_coords(3, 1, vec).forms[1][0][0] == F(-2, 3)
    assert vec[coord_index(3, 1, 1, 0, 0)] == F(-2, 3)
    with pytest.raises(ValueError):
        family_to_coords(fam, 0, 1)  # alpha_1 would be dropped


def test_z2_basis_keeps_lambda_product_left_symmetric_on_zoo(pre_gd_zoo):
    # the cocycle system and the conformal lambda-product are independent
    # routes to the same extension identity
    small = [alg for alg in pre_gd_zoo if alg.dim <= 3]
    checked = 0
    for alg in small:
        for beta in (F(0), F(1, 2)):
            for fam in h2(alg, beta, 3).cocycle_basis:
                assert check_conformal_left_symmetry(alg, cocycle=fam, beta=beta).passed, \
                    (alg.name, beta)
                checked += 1
    assert (len(small), checked) == (23, 225)


def _scaled(alg, t):
    """alg with every structure constant times t; every catalog identity is
    homogeneous of degree 2, so the scaled spec is pre-GD when alg is."""
    return AlgebraSpec(f"{alg.name}*{t}", alg.dim, alg.basis,
                       {op: [[[t * x for x in row] for row in plane] for plane in tensor_]
                        for op, tensor_ in alg.ops.items()})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(pre_gd_zoo_specs()),
       st.sampled_from([F(1), F(1, 2), F(-2, 3), F(3, 2)]),
       st.sampled_from([F(0), F(1), F(-1, 2), F(2, 3)]),
       st.integers(0, 4))
def test_cocycle_system_matches_fraction_oracle(alg, t, beta, cap):
    alg = _scaled(alg, t)
    width = ncols(cap, alg.dim)
    got = generate_cocycle_system(alg, beta, cap)
    want = oracles.generate_cocycle_system(alg, beta, cap)
    assert Subspace(width, got) == Subspace(width, want)
    # the oracle emits every triple and monomial, the library only a <= b
    # and, on a = b, lam^i mu^j with i < j: the rows left up to scale are
    # the same, in the same order, scaled by alg.den * beta.denominator, so
    # every row left out repeats an earlier one
    scale = alg.den * beta.denominator
    scaled = [{col: x * scale for col, x in enumerate(row) if x} for row in want]
    assert all(x.denominator == 1 for row in scaled for x in row.values())
    want = [{col: int(x) for col, x in row.items()} for row in scaled]
    assert oracles.distinct_up_to_scale(got) == oracles.distinct_up_to_scale(want)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(pre_gd_zoo_specs()),
       st.sampled_from([F(1), F(1, 2), F(-2, 3), F(3, 2)]),
       st.sampled_from([F(0), F(1), F(-1, 2), F(2, 3), F(-3)]),
       st.integers(0, 5))
def test_cocycle_system_matches_six_expansion_oracle(alg, t, beta, cap):
    # three alpha_{lam+mu} expansions over the associated GD products give
    # the rows of the six over ld, rd and circ exactly, in the same order
    alg = _scaled(alg, t)
    assert (generate_cocycle_system(alg, beta, cap)
            == oracles.six_expansion_cocycle_system(alg, beta, cap))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([alg for alg in pre_gd_zoo_specs() if alg.dim <= 2]),
       st.sampled_from([F(0), F(1, 2), F(-3)]), st.data())
def test_conformal_left_symmetry_holds_exactly_on_z2(alg, beta, data):
    # the converse of the Z2-basis test: a random combination of the Z2
    # basis, perturbed in one coordinate on half the draws, keeps the
    # lambda-product left-symmetric exactly when it lies in Z2
    basis = [family_to_coords(fam, 3, alg.dim) for fam in h2(alg, beta, 3).cocycle_basis]
    z2 = Subspace(ncols(3, alg.dim), basis)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=z2.dim, max_size=z2.dim))
    v = [sum((c * row[col] for c, row in zip(coeffs, basis)), F(0))
         for col in range(z2.ambient_dim)]
    if data.draw(st.booleans()):
        v[data.draw(st.integers(0, len(v) - 1))] += data.draw(st.sampled_from([-2, -1, 1, 2]))
    fam = family_from_coords(3, alg.dim, v)
    assert check_conformal_left_symmetry(alg, cocycle=fam, beta=beta).passed == z2.contains(v)


def test_cocycle_system_ignores_a_stored_bracket(pre_gd_zoo):
    # the commutator term is formed from circ; a stored bracket tensor, which
    # the PRE_GD guard does not check, must not change the system
    for alg in pre_gd_zoo:
        n = range(alg.dim)
        bracket = [[[1 + i + j * k for k in n] for j in n] for i in n]
        with_bracket = AlgebraSpec(alg.name, alg.dim, alg.basis,
                                   {**alg.ops, "bracket": bracket})
        assert with_bracket.rows("bracket") != alg.rows("bracket")
        for beta, cap in ((F(0), 3), (F(-1, 2), 2)):
            assert (generate_cocycle_system(with_bracket, beta, cap)
                    == generate_cocycle_system(alg, beta, cap)), alg.name


@pytest.mark.parametrize("n, beta, emitted, distinct, rank", [
    (4, F(0), 248, 172, 55), (4, F(1, 2), 251, 181, 55),
    (5, F(0), 519, 360, 90), (5, F(1, 2), 522, 375, 90),
    (6, F(0), 927, 653, 133), (6, F(1, 2), 933, 672, 133)])
def test_cocycle_system_size_on_binomial_pre_gd(n, beta, emitted, distinct, rank):
    # the binomial pre-GD family at xi = 1/2, k = 1 and cap 3: rows emitted,
    # rows left up to scale, and their rank; then the columns forced to zero
    # and the rows that reach elimination with them, the same at both beta
    alg = cons.zinbiel_to_pre_gd(*cons.truncated_binomial_zinbiel(n), F(1, 2), F(1))
    rows = generate_cocycle_system(alg, beta, 3)
    left = oracles.distinct_up_to_scale(rows)
    assert (len(rows), len(left), Subspace(ncols(3, n), left).dim) == (emitted, distinct, rank)
    rounds, rest = forced_zeros(rows)
    forced, kept = {4: (31, 48), 5: (52, 96), 6: (78, 168)}[n]
    assert (len(rounds), sum(map(len, rounds)), len(rest)) == (2, forced, kept)


# binomial pre-GD n = 4 at xi = 0, k = 1: at cap 4 and beta 0 each round drops
# columns that leave a new row with one coordinate, four rounds in all
FOUR_ROUNDS = cons.zinbiel_to_pre_gd(*cons.truncated_binomial_zinbiel(4), F(0), F(1))


def test_forced_zeros_take_four_rounds_on_binomial_xi_zero():
    assert len(forced_zeros(generate_cocycle_system(FOUR_ROUNDS, F(0), 4))[0]) == 4


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(pre_gd_zoo_specs()),
       st.sampled_from([F(1), F(1, 2), F(-2, 3), F(3, 2)]),
       st.sampled_from([F(0), F(1), F(-1, 2), F(2, 3)]),
       st.integers(0, 4))
@example(FOUR_ROUNDS, F(1), F(0), 4)
def test_forced_zeros_keep_the_kernel(alg, t, beta, cap):
    alg = _scaled(alg, t)
    width = ncols(cap, alg.dim)
    rows = generate_cocycle_system(alg, beta, cap)
    rounds, left = forced_zeros(rows)
    forced = [c for new in rounds for c in new]
    assert len(forced) == len(set(forced))
    # no row left has one coordinate, or a forced column
    assert all(len(row) > 1 and not any(c in row for c in forced) for row in left)
    assert nullspace([{c: 1} for c in forced] + left, width) == nullspace(rows, width)


@pytest.mark.parametrize("beta", [F(0), F(1, 2), F(-3)])
@pytest.mark.parametrize("cap", range(5))
def test_z2_with_forced_columns_declared_zero(pre_gd_zoo, beta, cap):
    """Z2 read with the forced columns declared zero is the kernel of their
    unit rows together with the rows left, and h2 reports its basis."""
    for alg in pre_gd_zoo:
        width = ncols(cap, alg.dim)
        rounds, left = forced_zeros(generate_cocycle_system(alg, beta, cap))
        forced = [c for new in rounds for c in new]
        z2 = nullspace([{c: 1} for c in forced] + left, width)
        assert nullspace(left, width, zero=set(forced)) == z2, alg.name
        assert h2(alg, beta, cap).cocycle_basis == tuple(
            family_from_coords(cap, alg.dim, v) for v in z2.basis), alg.name


# a star b = 0, so at cap 0 every functional phi is a coboundary functional,
# and B2 = {beta phi(b ld a) + phi(a circ b)} moves with beta
STAR_FREE = AlgebraSpec("star_free", 3, ("x", "y", "z"),
                        {"ld": tensor(3, {(2, 2, 1): -1}),
                         "rd": tensor(3, {(2, 2, 1): 1}),
                         "circ": tensor(3, {(0, 2, 1): 1})})


def _forms(families):
    out = [fam.forms for fam in families]
    assert all(type(x) is F for forms in out for f in forms for row in f for x in row)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(pre_gd_zoo_specs()),
       st.sampled_from([F(1), F(1, 2), F(-2, 3), F(3, 2)]),
       st.sampled_from([F(0), F(1), F(-1, 2), F(2, 3)]),
       st.integers(0, 4))
@example(two_dim_lw(), F(1, 2), F(2, 3), 2)
@example(STAR_FREE, F(1), F(-1, 2), 0)
@example(STAR_FREE, F(-2, 3), F(2, 3), 0)
@example(cons.zinbiel_to_pre_gd(*cons.truncated_binomial_zinbiel(3), F(0), F(1)),
         F(3, 2), F(-1, 2), 0)
def test_h2_matches_fraction_oracle(alg, t, beta, cap):
    alg = _scaled(alg, t)
    got = h2(alg, beta, cap)
    dim_z2, dim_b2, basis, reps = oracles.h2(alg, beta, cap)
    assert (got.dim_Z2, got.dim_B2, got.dim_H2) == (dim_z2, dim_b2, dim_z2 - dim_b2)
    assert _forms(got.cocycle_basis) == basis
    assert _forms(got.representatives) == reps
    assert coboundary_space(alg, beta, cap) == oracles.coboundary_space(alg, beta, cap)


def test_cocycle_basis_is_built_on_first_read(monkeypatch):
    calls = []
    build = cohomology.family_from_coords
    monkeypatch.setattr(cohomology, "family_from_coords",
                        lambda *args: calls.append(args) or build(*args))
    res = h2(two_dim_lw(), 0)
    assert len(calls) == res.dim_H2 == 2  # the representatives only
    assert res.cocycle_basis is res.cocycle_basis  # built once, on the first read
    assert len(calls) == res.dim_H2 + res.dim_Z2


def test_float_and_bool_are_not_exact_inputs():
    r1 = build_rank_one(1)
    L = ModuleElement.basis(0)
    zin, D = cons.truncated_binomial_zinbiel(2)
    pn = cons.zinbiel_to_pre_novikov(zin, D, 0)
    for bad in (0.1, 0.5, True, False):
        for call in (lambda: h2(r1, bad, 1),
                     lambda: generate_cocycle_system(r1, bad, 1),
                     lambda: coboundary_space(r1, bad, 1),
                     lambda: CocycleFamily(0, (((bad,),),)),
                     lambda: AlgebraSpec("x", 1, ("a",), {"ld": [[[bad]]]}),
                     lambda: tensor(1, {(0, 0, 0): bad}),
                     lambda: LinearMapSpec(((bad,),)),
                     lambda: RepresentationSpec(1, {"l": (((bad,),),)}),
                     lambda: ModuleElement({(0, 0): bad}),
                     lambda: ModuleElement(central=bad),
                     lambda: lambda_product(r1, L, L, beta=bad),
                     lambda: conformal_associator_defect(r1, L, L, L, beta=bad),
                     lambda: check_conformal_left_symmetry(r1, beta=bad),
                     lambda: WindowedElement(1, {(0, 0): bad}),
                     lambda: build_rank_one(bad),
                     lambda: product_tensor(r1, [(bad, ("ld", "a", "b"))]),
                     lambda: cons.zinbiel_to_pre_novikov(zin, D, bad),
                     lambda: cons.pre_novikov_to_pre_gd(pn, bad),
                     lambda: cons.zinbiel_to_pre_gd(zin, D, bad, 1),
                     lambda: cons.zinbiel_to_pre_gd(zin, D, 0, bad)):
            with pytest.raises(TypeError):
                call()
    # int and Fraction entries are exact; a given Fraction is kept as it is,
    # except in an algebra's dense view, which is rebuilt from its rows
    half = F(1, 2)
    alg = AlgebraSpec("x", 1, ("a",), {"ld": [[[half]]], "rd": [[[3]]]})
    assert alg.ops["ld"][0][0][0] == half and type(alg.ops["ld"][0][0][0]) is F
    assert type(alg.ops["rd"][0][0][0]) is F
    assert LinearMapSpec(((2,),)).matrix == ((F(2),),)
    assert RepresentationSpec(1, {"l": (((half,),),)}).maps["l"][0][0][0] is half
    assert h2(r1, F(1, 10), 1).beta == F(1, 10)
    assert h2(r1, 2, 1).beta == 2
    assert CocycleFamily(0, (((F(1, 10),),),)).forms == (((F(1, 10),),),)
    assert CocycleFamily(0, (((3,),),)).forms == (((F(3),),),)
    assert type(CocycleFamily(0, (((3,),),)).forms[0][0][0]) is F
    assert ModuleElement({(0, 0): half}, 2).terms[0, 0] is half
    assert type(ModuleElement({(0, 0): half}, 2).central) is F
    assert check_conformal_left_symmetry(r1, beta=F(1, 10)).passed
    assert cons.zinbiel_to_pre_gd(zin, D, F(1, 10), 2).name.endswith("(xi=1/10,k=2)")


def test_degree_cap_must_be_a_non_negative_int():
    for bad in (-1, True, 2.0):
        with pytest.raises(ValueError, match="degree_cap"):
            h2(build_rank_one(1), 0, degree_cap=bad)
