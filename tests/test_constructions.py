from fractions import Fraction

import pytest

from lsconf.algebras import (AlgebraSpec, IdentityError, LinearMapSpec,
                             check_identity, prod_basis, require_identity,
                             tensor)
from lsconf.conformal import build_rank_one
from lsconf import algebras, constructions as cons

from conftest import (dual_numbers_ls_poisson, is_direct_route, perturbed_product_tensor,
                      rank_one_poisson)
import oracles

F = Fraction


def dual_numbers_comm_assoc():
    """C[x]/(x^2) with the Euler derivation x d/dx."""
    alg = AlgebraSpec("dual", 2, ("u", "v"),
                      {"dot": tensor(2, {(0, 0, 0): 1, (0, 1, 1): 1,
                                         (1, 0, 1): 1})})
    return alg, LinearMapSpec(((0, 0), (0, 1)))


def test_binomial_zinbiel_products():
    zin, D = cons.truncated_binomial_zinbiel(4)
    assert zin.basis == ("x1", "x2", "x3", "x4")
    assert prod_basis(zin, "dot", 0, 1) == [0, 0, 2, 0]   # x1.x2 = 2 x3
    assert prod_basis(zin, "dot", 1, 0) == [0, 0, 1, 0]   # x2.x1 = x3
    assert prod_basis(zin, "dot", 1, 3) == [0, 0, 0, 0]   # grade 6 cut off
    assert oracles.apply(D, [0, 0, 1, 0]) == [0, 0, 3, 0]
    with pytest.raises(ValueError):
        cons.truncated_binomial_zinbiel(0)


def test_binomial_zinbiel_is_a_true_quotient():
    # the grade cutoff is an ideal, so no restriction lists are needed
    for N in (1, 3, 5):
        zin, D = cons.truncated_binomial_zinbiel(N)
        require_identity(zin, "ZINBIEL")
        require_identity(zin, "DERIVATION", aux=D)


def test_zinbiel_to_pre_novikov_tensor():
    zin, D = cons.truncated_binomial_zinbiel(4)
    out = cons.zinbiel_to_pre_novikov(zin, D, F(1, 2))
    # x1 ld x1 = D(x1).x1 + (1/2) x1.x1 = (3/2) x2
    assert prod_basis(out, "ld", 0, 0) == [0, F(3, 2), 0, 0]
    assert check_identity(out, "PRE_NOVIKOV").passed


def test_zinbiel_to_pre_novikov_validates_input():
    zin, D = cons.truncated_binomial_zinbiel(3)
    not_zinbiel = AlgebraSpec("nz", 2, ("a", "b"),
                              {"dot": tensor(2, {(0, 0, 1): 1, (1, 0, 0): 1})})
    with pytest.raises(IdentityError):
        cons.zinbiel_to_pre_novikov(not_zinbiel, LinearMapSpec(((0, 0), (0, 0))), 0)
    bad_D = LinearMapSpec(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(IdentityError):
        cons.zinbiel_to_pre_novikov(zin, bad_D, 0)


def test_pre_novikov_to_pre_gd_circ_tensor():
    zin, D = cons.truncated_binomial_zinbiel(4)
    pn = cons.zinbiel_to_pre_novikov(zin, D, 0)
    out = cons.pre_novikov_to_pre_gd(pn, -3)
    assert check_identity(out, "PRE_GD").passed
    for i in range(4):
        for j in range(4):
            want = [-3 * (r - l) for r, l in
                    zip(prod_basis(pn, "rd", i, j), prod_basis(pn, "ld", j, i))]
            assert prod_basis(out, "circ", i, j) == want
    # k = 0 degenerates to the pre-Novikov algebra itself
    flat = cons.pre_novikov_to_pre_gd(pn, 0)
    assert not flat.has("circ")
    assert check_identity(flat, "PRE_GD").passed


def test_zinbiel_to_pre_gd_routes_agree():
    for N in (3, 4):
        zin, D = cons.truncated_binomial_zinbiel(N)
        for xi in (0, F(1, 2)):
            for k in (1, -3):
                direct = cons.zinbiel_to_pre_gd(zin, D, xi, k)
                pn = cons.zinbiel_to_pre_novikov(zin, D, xi)
                composed = cons.pre_novikov_to_pre_gd(pn, k)
                assert direct.ops == composed.ops, (N, xi, k)
                assert check_identity(direct, "PRE_GD").passed


def test_ls_poisson_to_pre_gd():
    out = cons.ls_poisson_to_pre_gd(dual_numbers_ls_poisson())
    assert check_identity(out, "PRE_GD").passed
    assert not out.has("rd")
    assert out.ops["ld"] == dual_numbers_ls_poisson().ops["dot"]
    # the rank-one Poisson family lands exactly on the rank-one pre-GD
    assert cons.ls_poisson_to_pre_gd(rank_one_poisson(2)).ops == build_rank_one(2).ops


def test_ls_poisson_rejects_non_poisson():
    bad = AlgebraSpec("bad", 2, ("a", "b"),
                      {"dot": tensor(2, {(0, 0, 1): 1}),
                       "circ": tensor(2, {(0, 0, 0): 1})})
    with pytest.raises(IdentityError):
        cons.ls_poisson_to_pre_gd(bad)


def test_comm_assoc_to_novikov_poisson():
    A, D = dual_numbers_comm_assoc()
    out = cons.comm_assoc_derivation_to_novikov_poisson(A, D)
    assert check_identity(out, "NOVIKOV_POISSON").passed
    assert prod_basis(out, "circ", 0, 1) == [0, 1]    # u circ v = u.D(v) = v
    assert prod_basis(out, "circ", 1, 0) == [0, 0]


def test_laurent_slice_is_restricted():
    alg, D, triples, pairs = cons.truncated_laurent_slice()
    # faithful only on the listed tuples: full associativity fails at the rim
    assert not check_identity(alg, "COMM_ASSOC").passed
    assert check_identity(alg, "COMM_ASSOC", triples=triples, pairs=pairs).passed
    out = cons.comm_assoc_derivation_to_novikov_poisson(
        alg, D, triples=triples, pairs=pairs)
    assert check_identity(out, "NOVIKOV_POISSON", triples=triples,
                          pairs=pairs).passed
    assert prod_basis(out, "circ", 2, 2) == [0, 0, 0]  # t^1 circ t^1 left the window


def test_constructions_match_dense_oracle():
    """Every construction gives the ops and name of the dense per-pair
    formulas, zinbiel_to_pre_gd's composite those of the direct formula."""
    def same(got, want):
        assert (got.name, got.ops) == (want.name, want.ops), want.name

    for N in range(1, 8):
        zin, D = cons.truncated_binomial_zinbiel(N)
        for xi in (F(0), F(1, 2), F(-3)):
            pn = cons.zinbiel_to_pre_novikov(zin, D, xi)
            same(pn, oracles.zinbiel_to_pre_novikov(zin, D, xi))
            for k in (F(1), F(-3), F(0), F(2, 3)):
                same(cons.pre_novikov_to_pre_gd(pn, k), oracles.pre_novikov_to_pre_gd(pn, k))
                same(cons.zinbiel_to_pre_gd(zin, D, xi, k),
                     oracles.zinbiel_to_pre_gd(zin, D, xi, k))
    alg, D, triples, pairs = cons.truncated_laurent_slice()
    same(cons.comm_assoc_derivation_to_novikov_poisson(alg, D, triples=triples, pairs=pairs),
         oracles.comm_assoc_derivation_to_novikov_poisson(alg, D))
    same(cons.comm_assoc_derivation_to_novikov_poisson(*dual_numbers_comm_assoc()),
         oracles.comm_assoc_derivation_to_novikov_poisson(*dual_numbers_comm_assoc()))
    for lsp in (dual_numbers_ls_poisson(), rank_one_poisson(2), rank_one_poisson(F(-1, 3))):
        same(cons.ls_poisson_to_pre_gd(lsp), oracles.ls_poisson_to_pre_gd(lsp))


def test_each_identity_system_is_checked_once(monkeypatch):
    """The composite route checks the intermediate pre-Novikov algebra once,
    as the first construction's output; called directly, the second
    construction still checks its input."""
    calls = []
    check = algebras.check_identity

    def counted(alg, identity_id, **kwargs):
        calls.append(identity_id)
        return check(alg, identity_id, **kwargs)

    monkeypatch.setattr(algebras, "check_identity", counted)
    zin, D = cons.truncated_binomial_zinbiel(4)
    calls.clear()
    pn = cons.zinbiel_to_pre_novikov(zin, D, F(1, 2))
    assert sorted(calls) == ["DERIVATION", "PRE_NOVIKOV", "ZINBIEL"]
    calls.clear()
    cons.pre_novikov_to_pre_gd(pn, 1)
    assert sorted(calls) == ["PRE_GD", "PRE_NOVIKOV"]
    calls.clear()
    cons.zinbiel_to_pre_gd(zin, D, F(1, 2), 1)
    assert sorted(calls) == ["DERIVATION", "PRE_GD", "PRE_NOVIKOV", "ZINBIEL"]


def test_a_wrong_formula_is_a_construction_defect(monkeypatch):
    assert not issubclass(cons.ConstructionDefect, IdentityError)
    zin, D = cons.truncated_binomial_zinbiel(3)
    monkeypatch.setattr(cons, "product_tensor", perturbed_product_tensor(lambda terms: True))
    with pytest.raises(cons.ConstructionDefect,
                       match=r"^construction output binomial_zinbiel\(3\)~pn\(xi=1/2\) "
                             r"fails PRE_NOVIKOV/"):
        cons.zinbiel_to_pre_gd(zin, D, F(1, 2), 1)
    # only the direct route's circ is wrong: both outputs pass their checks
    monkeypatch.setattr(cons, "product_tensor", perturbed_product_tensor(is_direct_route))
    with pytest.raises(cons.ConstructionDefect,
                       match=r"^direct and composed circ tensors disagree at \(0, 0\)$"):
        cons.zinbiel_to_pre_gd(zin, D, F(1, 2), 1)
    # an input failing its identities is still a finding about the input
    with pytest.raises(IdentityError):
        cons.zinbiel_to_pre_gd(zin, LinearMapSpec(((1, 0, 0), (0, 1, 0), (0, 0, 1))), 0, 1)
