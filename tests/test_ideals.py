import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lsconf import ideals
from lsconf.algebras import AlgebraSpec, check_identity, eval_product, tensor
from lsconf.conformal import build_rank_one
from lsconf.ideals import (PRE_GD_OPS, TrivialAlgebra, associative_envelope,
                           certify_conformal_simplicity, ideal_closure,
                           multiplication_operators, simple_on_ops)
from lsconf.linalg import Subspace, mat_mul, unit

from lsconf import constructions as cons

from conftest import (gaussian_rationals, matrices_star_zero, random_algebra, rank_two,
                      split_quadratic, two_dim_lw, unital_one_dim)
import oracles

F = Fraction


# e1 ld e0 = 3 e0 + 2 e1: no unit vector closes to a proper ideal and the
# envelope has dim 3 < 4; its radical is spanned by the nilpotent
# (3 e0 + 2 e1)(2 e0* - 3 e1*), so rad(E)V = span(3 e0 + 2 e1)
LD_PAIR = AlgebraSpec("ld_pair", 2, ("e0", "e1"),
                      {"ld": tensor(2, {(1, 0, 0): 3, (1, 0, 1): 2})})


def test_ideal_closure_examples():
    assert ideal_closure(rank_two(1, 1), [[0, 1]]).dim == 2   # W circ W = L + W pulls in L
    assert ideal_closure(rank_two(0, 0), [[0, 1]]).basis == [[0, 1]]


def test_ideal_closure_is_stable_and_idempotent():
    rng = random.Random(5)
    for _ in range(10):
        alg = random_algebra(rng, 3)
        seed = [[F(rng.randint(-2, 2)) for _ in range(3)]]
        sub = ideal_closure(alg, seed)
        assert sub.contains_subspace(Subspace(3, seed))
        for x in sub.basis:
            for i in range(3):
                for op in ("ld", "rd", "circ"):
                    assert sub.contains(eval_product(alg, op, unit(3, i), x))
                    assert sub.contains(eval_product(alg, op, x, unit(3, i)))
        assert ideal_closure(alg, sub.basis).basis == sub.basis


def test_envelope_dimensions():
    assert associative_envelope(rank_two(1, 1)).dim == 4
    assert associative_envelope(build_rank_one(1)).dim == 1
    alg = rank_two(1, 1)
    gens = multiplication_operators(alg)
    assert len(gens) == 12
    # built once per spec and op set, which is read sorted and without repeats
    assert multiplication_operators(alg, ("rd", "circ", "ld", "ld")) is gens
    assert multiplication_operators(alg, ("ld",)) == gens[4:8]


# each has zero operators among its (ld, rd, circ) ones; between them they
# reach all three stages: a unit-vector closure, a full envelope and rad(E)V
SPARSE_ALGEBRAS = [rank_two(0, 0), LD_PAIR,
                   *(random_algebra(random.Random(seed), 3 + seed % 3, density=0.15)
                     for seed in (0, 2, 20))]


@pytest.mark.parametrize("alg", SPARSE_ALGEBRAS)
def test_zero_operators_are_never_applied(monkeypatch, alg):
    applied = []
    for name in ("_apply", "_apply_to_word"):
        def counted(cols, *rest, apply=getattr(ideals, name)):
            applied.append(cols)
            return apply(cols, *rest)
        monkeypatch.setattr(ideals, name, counted)
    ops, dim = PRE_GD_OPS, alg.dim
    assert not all(map(any, multiplication_operators(alg, ops)))
    cert = simple_on_ops(alg, ops)
    env = associative_envelope(alg, ops)
    assert applied and all(map(any, applied))
    assert env == oracles.associative_envelope(alg, ops)
    closures = [oracles.ideal_closure(alg, [unit(dim, i)], ops) for i in range(dim)]
    proper = [c for c in closures if 0 < c.dim < dim]
    if proper:
        assert (cert.verdict, cert.criterion, cert.witness) == (
            "not_simple", "witness_ideal", proper[0])
    elif env.is_full():
        assert cert.verdict == "simple"
    else:
        assert (cert.verdict, cert.criterion) == ("not_simple", "witness_ideal")
        assert oracles.ideal_closure(alg, cert.witness, ops) == cert.witness


def test_simple_on_ops_witnesses():
    assert simple_on_ops(build_rank_one(1)).witness is None
    cert = simple_on_ops(rank_two(0, 0))
    assert (cert.verdict, cert.criterion) == ("not_simple", "witness_ideal")
    assert cert.witness.basis == [[0, 1]]
    # restricting the ops can surface ideals the full op set closes up
    assert simple_on_ops(rank_two(1, 1)).verdict == "simple"
    assert simple_on_ops(rank_two(1, 1), ops=("ld", "rd")).witness is not None
    # only the envelope's radical finds this one (see LD_PAIR)
    assert simple_on_ops(LD_PAIR, ("ld",)).witness == Subspace(2, [[3, 2]])
    # fields and semisimple envelopes: not simple over C, no witness over Q
    assert simple_on_ops(gaussian_rationals()).witness is None
    assert simple_on_ops(split_quadratic()).witness is None


def test_trials_cost_no_closures_once_envelopes_are_full(monkeypatch):
    """Each op set searched is settled by a unit-vector closure or a full
    envelope, so only the unit-vector closures run, however many trials
    are allowed.  A full (ld, rd) envelope settles the three operations
    too, so it costs dim closures and one envelope."""
    real_closure, real_envelope = ideals.ideal_closure, ideals.associative_envelope
    calls = {}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(ideals, "ideal_closure", counted("closures", real_closure))
    monkeypatch.setattr(ideals, "associative_envelope", counted("envelopes", real_envelope))
    # rank_two(1, 1): e_1 closes to a proper (ld, rd) ideal, then the three
    # operations close both unit vectors to V and take one full envelope
    for alg, closures in ((rank_two(1, 1), 2 + 2), (random_algebra(random.Random(1), 5), 5),
                          (build_rank_one(1), 1)):
        calls.update(closures=0, envelopes=0)
        assert certify_conformal_simplicity(alg, trials=10**6).verdict == "simple"
        assert calls == {"closures": closures, "envelopes": 1}, alg.name
        assert real_envelope(alg, ("ld", "rd")).is_full() == (closures == alg.dim)


def test_trivial_algebra_is_refused():
    with pytest.raises(TrivialAlgebra):
        simple_on_ops(AlgebraSpec("z", 2, ("a", "b"), {}))


def test_regular_element_certificate():
    cert = certify_conformal_simplicity(rank_two(1, 1))
    assert cert.verdict == "simple"
    assert cert.criterion == "rd_trivial_regular_element"
    assert cert.witness == (1, 0)
    assert "three-operation algebra: simple (envelope)" in cert.details


def test_random_regular_element_certificate_depends_on_the_draw():
    """An (ld, circ) algebra whose three-operation algebra is simple and
    whose two-operation part is not: no unit vector is regular, so the
    verdict rests on the random candidates.  At 20 trials from seed 0 the
    draw (1, -2, 2) is regular; with none drawn, the Novikov-Poisson probe
    fails and the verdict is inconclusive.  This pins today's dependence on
    the seed: the exact regular-element rule of ROADMAP item 4 tries a fixed
    lattice of candidates instead and will flip the inconclusive verdict."""
    alg = random_algebra(random.Random(1), 3, density=0.15)
    assert sorted(alg.ops) == ["circ", "ld"]

    def joint_rank(a):
        # rank of x -> (a ld x, x ld a); 3 iff ker L_a and ker R_a meet in 0
        images = [oracles.eval_product(alg, "ld", a, unit(3, j))
                  + oracles.eval_product(alg, "ld", unit(3, j), a) for j in range(3)]
        return len(oracles.rref([list(r) for r in zip(*images)], 3)[1])

    cert = certify_conformal_simplicity(alg, trials=20, rng_seed=0)
    assert (cert.verdict, cert.criterion) == ("simple", "rd_trivial_regular_element")
    assert cert.witness == (1, -2, 2)
    assert joint_rank(list(cert.witness)) == 3
    assert all(joint_rank(unit(3, i)) < 3 for i in range(3))
    cert = certify_conformal_simplicity(alg, trials=0, rng_seed=0)
    assert (cert.verdict, cert.criterion) == ("inconclusive", "no_applicable_criterion")
    assert "no regular element found" in cert.details
    assert not check_identity(AlgebraSpec("np", 3, alg.basis, {"dot": alg.ops["ld"],
                                                                "circ": alg.ops["circ"]}),
                              "NOVIKOV_POISSON").passed


def test_spanning_certificate():
    for c in (0, 1):
        cert = certify_conformal_simplicity(build_rank_one(c))
        assert cert.verdict == "simple"
        assert cert.criterion == "pre_novikov_simple_spanning"


def test_not_simple_certificates():
    cert = certify_conformal_simplicity(rank_two(0, 0))
    assert cert.verdict == "not_simple"
    assert cert.criterion == "lifted_ideal"
    assert cert.witness.basis == [[0, 1]]
    cert = certify_conformal_simplicity(two_dim_lw())
    assert cert.verdict == "not_simple" and cert.criterion == "lifted_ideal"


def test_simple_parts_without_spanning_star_are_inconclusive():
    """Both searches find M_2(Q) simple, but star = 0 spans nothing and rd
    is present, so no sufficient criterion applies."""
    cert = certify_conformal_simplicity(matrices_star_zero())
    assert (cert.verdict, cert.criterion, cert.witness) == (
        "inconclusive", "no_applicable_criterion", None)
    assert cert.details == ("three-operation algebra: simple (envelope)",
                            "two-operation part: simple (envelope)",
                            "star products do not span V")


def test_certificates_never_lie_on_random_input():
    # whatever the verdict, any witness must re-verify
    rng = random.Random(13)
    for _ in range(15):
        alg = random_algebra(rng, 2)
        try:
            cert = certify_conformal_simplicity(alg, trials=5, rng_seed=3)
        except TrivialAlgebra:
            continue
        if cert.verdict == "not_simple":
            sub = cert.witness
            assert 0 < sub.dim < alg.dim
            for x in sub.basis:
                for i in range(alg.dim):
                    for op in ("ld", "rd", "circ"):
                        assert sub.contains(eval_product(alg, op, unit(alg.dim, i), x))
                        assert sub.contains(eval_product(alg, op, x, unit(alg.dim, i)))


def test_simple_pre_novikov_has_nonzero_star():
    zin, D = cons.truncated_binomial_zinbiel(4)
    simple_seen = 0
    candidates = [unital_one_dim(), two_dim_lw(), rank_two(1, 1),
                  build_rank_one(0),
                  cons.zinbiel_to_pre_novikov(zin, D, F(1, 2))]
    for alg in candidates:
        if simple_on_ops(alg, ops=("ld", "rd")).verdict == "simple":
            simple_seen += 1
            assert oracles.check_star_nonzero(alg), alg.name
    assert simple_seen >= 2


def test_star_detector():
    assert oracles.check_star_nonzero(two_dim_lw())
    # a rd b = -(b ld a) everywhere forces star to vanish
    killed = AlgebraSpec("sym", 2, ("a", "b"),
                         {"ld": tensor(2, {(0, 0, 1): 1}),
                          "rd": tensor(2, {(0, 0, 1): -1})})
    assert not oracles.check_star_nonzero(killed)


# --- integer kernels against the Fraction oracles ----------------------------

# nonzero structure constants with denominators 2 and 3
ENTRIES = (F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(1, 3), F(-2, 3), F(5, 6))
OP_SETS = st.sampled_from([("ld", "rd", "circ"), ("ld", "rd"), ("ld", "circ"),
                           ("rd",), ("circ",)])


@st.composite
def algebras_with_ideal(draw, max_dim=4):
    """A random algebra, from sparse to dense, in which I = span(e_k, ...)
    is an ideal for a drawn 0 < k < dim, rewritten in the basis
    f_a = e_a + sum_{i<a} n_ai e_i so that I is not a coordinate subspace.
    Returns it with the new coordinates of e_k, ..., a basis of I."""
    rng = draw(st.randoms(use_true_random=False))
    dim = draw(st.integers(2, max_dim))
    k = draw(st.integers(1, dim - 1))
    density = draw(st.sampled_from([0.1, 0.2, 0.35, 0.6]))
    n = range(dim)
    cells = [(i, j, m) for i, j, m in itertools.product(n, repeat=3)
             if m >= k or (i < k and j < k)]
    low = [[rng.choice((0, 1, -1, F(1, 2))) if i < a else 0 for i in n] for a in n]
    p = [[int(a == i) + low[a][i] for i in n] for a in n]
    # q = p^-1 = sum_t (-low)^t, low being nilpotent
    q = power = [[F(int(a == i)) for i in n] for a in n]
    for _ in range(dim):
        power = [[-sum(power[a][t] * low[t][i] for t in n) for i in n] for a in n]
        q = [[q[a][i] + power[a][i] for i in n] for a in n]
    ops = {}
    for op in ("ld", "rd", "circ"):
        c = tensor(dim, {cell: rng.choice(ENTRIES) for cell in cells if rng.random() < density})
        # f_a op f_b = sum p_ai p_bj c_ij^t e_t with e_t = sum_m q_tm f_m
        c = [[[sum(c[i][j][t] * q[t][m] for t in n) for m in n] for j in n] for i in n]
        c = [[[sum(p[b][j] * c[i][j][m] for j in n) for m in n] for b in n] for i in n]
        ops[op] = [[[sum(p[a][i] * c[i][b][m] for i in n) for m in n] for b in n] for a in n]
    return AlgebraSpec(f"h({dim})", dim, tuple(f"f{i}" for i in n), ops), q[k:]


def fraction_algebras():
    return algebras_with_ideal().map(lambda pair: pair[0])


@st.composite
def algebras_with_seed(draw):
    """An algebra and a seed: a unit vector, a random Fraction vector, or a
    random element of the built-in ideal."""
    alg, ideal = draw(algebras_with_ideal())
    dim = alg.dim
    coeffs = draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                           min_size=dim, max_size=dim))
    kind = draw(st.sampled_from(["unit", "random", "ideal", "ideal"]))
    if kind == "unit":
        return alg, unit(dim, draw(st.integers(0, dim - 1)))
    if kind == "random":
        return alg, coeffs
    return alg, [sum(c * v[m] for c, v in zip(coeffs, ideal)) for m in range(dim)]


# e_i ld e_i = 2 e_{i+1}: the closure of e_0 grows by one vector per round
CHAIN = AlgebraSpec("chain", 4, ("e0", "e1", "e2", "e3"),
                    {"ld": tensor(4, {(i, i, i + 1): 2 for i in range(3)})})


@settings(max_examples=100, deadline=None)
@given(algebras_with_seed(), OP_SETS)
@example((CHAIN, unit(4, 0)), ("ld",))
def test_ideal_closure_matches_fraction_oracle(case, ops):
    alg, seed = case
    assert ideal_closure(alg, [seed], ops) == oracles.ideal_closure(alg, [seed], ops)


@settings(max_examples=60, deadline=None)
@given(fraction_algebras(), OP_SETS)
def test_associative_envelope_matches_fraction_oracle(alg, ops):
    assert associative_envelope(alg, ops) == oracles.associative_envelope(alg, ops)


@st.composite
def random_algebras(draw):
    """conftest.random_algebra of dim 1-5 on a drawn op set and density."""
    rng = draw(st.randoms(use_true_random=False))
    return random_algebra(rng, draw(st.integers(1, 5)), draw(OP_SETS),
                          draw(st.sampled_from([0.1, 0.35, 0.6])))


def _flat(m):
    return [x for row in m for x in row]


@settings(max_examples=80, deadline=None)
@given(st.one_of(fraction_algebras(), random_algebras()), OP_SETS)
@example(LD_PAIR, ("ld",))
@example(rank_two(1, 1), ("ld", "rd", "circ"))
def test_envelope_radical_is_a_nilpotent_ideal_of_the_envelope(alg, ops):
    dim = alg.dim
    env = associative_envelope(alg, ops)
    rad = ideals.envelope_radical(env, dim)
    assert env.contains_subspace(rad)
    if env.is_full():
        assert rad.dim == 0
    gens = oracles.multiplication_operators(alg, ops)
    for x in rad.basis:
        m = [x[r * dim:(r + 1) * dim] for r in range(dim)]
        power = m
        for _ in range(dim - 1):
            power = mat_mul(power, m)
        assert not any(_flat(power))
        for g in gens:
            assert rad.contains(_flat(mat_mul(m, g)))
            assert rad.contains(_flat(mat_mul(g, m)))


def test_envelope_radical_examples():
    assert ideals.envelope_radical(associative_envelope(LD_PAIR, ("ld",)), 2).dim == 1
    for alg in (gaussian_rationals(), split_quadratic()):
        env = associative_envelope(alg)
        assert env.dim == 2 and ideals.envelope_radical(env, 2).dim == 0
        cert = simple_on_ops(alg)
        assert (cert.verdict, cert.criterion, cert.witness) == (
            "not_simple", "envelope_not_full", None)
        assert "Burnside" in cert.details[0]


@settings(max_examples=80, deadline=None)
@given(st.one_of(algebras_with_ideal(max_dim=5).map(lambda pair: pair[0]), random_algebras()),
       OP_SETS, st.sampled_from([0, 3, 20]), st.integers(0, 9))
@example(LD_PAIR, ("ld",), 3, 7)
@example(gaussian_rationals(), ("ld",), 20, 0)
@example(split_quadratic(), ("ld",), 20, 0)
def test_verdict_is_exact_and_keeps_every_random_search_find(alg, ops, trials, rng_seed):
    """simple iff the envelope is full; every ideal the old random search
    (oracles.search) finds is still a not_simple verdict; every witness
    re-verifies."""
    try:
        cert = simple_on_ops(alg, ops)
    except TrivialAlgebra:
        return
    assert cert.verdict in ("simple", "not_simple")
    assert (cert.verdict == "simple") == associative_envelope(alg, ops).is_full()
    if oracles.search(alg, ops, trials, rng_seed)[0] is not None:
        assert cert.verdict == "not_simple"
    if cert.witness is not None:
        ideals._verify_ideal(alg, cert.witness, ops)
    if cert.criterion == "envelope_not_full":
        assert ideals.envelope_radical(associative_envelope(alg, ops), alg.dim).dim == 0


def _drop_rd(alg):
    return AlgebraSpec(alg.name, alg.dim, alg.basis,
                       {op: t for op, t in alg.ops.items() if op != "rd"})


@settings(max_examples=60, deadline=None)
@given(st.one_of(fraction_algebras(), random_algebras()))
def test_envelope_grows_with_the_op_set(alg):
    """E(ld, rd) lies in E(ld, rd, circ), and with rd zero its operators
    add no words: E(ld, circ) = E(ld, rd, circ)."""
    assert associative_envelope(alg).contains_subspace(associative_envelope(alg, ("ld", "rd")))
    no_rd = _drop_rd(alg)
    assert associative_envelope(no_rd, ("ld", "circ")) == associative_envelope(no_rd)


def _certificate_or_refusal(certify, alg, trials, rng_seed):
    try:
        cert = certify(alg, trials, rng_seed)
    except TrivialAlgebra as err:
        return "refused", str(err)
    return cert.verdict, cert.criterion, cert.witness, cert.details


@settings(max_examples=120, deadline=None)
@given(st.one_of(random_algebras(), algebras_with_ideal(max_dim=5).map(lambda pair: pair[0]),
                 fraction_algebras()),
       st.sampled_from([0, 3, 20]), st.integers(0, 9))
@example(LD_PAIR, 3, 7)
@example(gaussian_rationals(), 20, 0)
@example(split_quadratic(), 20, 0)
def test_certificate_matches_the_three_operation_first_flow(alg, trials, rng_seed):
    """Searching (ld, rd) first changes no verdict, criterion, witness or
    detail line of the flow that searched (ld, rd, circ) first."""
    assert (_certificate_or_refusal(certify_conformal_simplicity, alg, trials, rng_seed)
            == _certificate_or_refusal(oracles.certify_conformal_simplicity,
                                       alg, trials, rng_seed))
