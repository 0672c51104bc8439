from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lsconf.linalg import (ContainmentError, DimensionMismatch, LinalgError, Subspace,
                           ZeroColumnPivot, int_row, nullspace, quotient_representatives,
                           rank, rref, unit)

import oracles

F = Fraction

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
sparse_fracs = st.one_of(st.just(F(0)), fracs)


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_cols).flatmap(
        lambda nc: st.lists(st.lists(fracs, min_size=nc, max_size=nc),
                            min_size=1, max_size=max_rows).map(lambda rows: (rows, nc)))


def test_rref_hand_example():
    rows = [[F(2), F(4), F(2)], [F(1), F(2), F(3)]]
    red, pivots = rref(rows, 3)
    assert pivots == [0, 2]
    assert red == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]


def test_rref_rejects_ragged_rows():
    with pytest.raises(DimensionMismatch):
        rref([[F(1), F(2)]], 3)


def test_nullspace_hand_example():
    # x + 2y = 0 twice over: kernel is the line through (-2, 1)
    ns = nullspace([[F(1), F(2)], [F(2), F(4)]], 2)
    assert ns == Subspace(2, [[F(-2), F(1)]])
    assert ns.dim == 1


def test_nullspace_zero_matrix_is_full():
    ns = nullspace([], 3)
    assert ns.is_full()


def test_subspace_membership():
    s = Subspace(3, [[F(1), F(0), F(1)], [F(0), F(1), F(1)]])
    assert s.contains([F(2), F(3), F(5)])
    assert not s.contains([F(0), F(0), F(1)])


def test_quotient_dim_and_containment_guard():
    big = Subspace(3, [unit(3, 0), unit(3, 1)])
    small = Subspace(3, [[F(1), F(1), F(0)]])
    assert len(quotient_representatives(big, small)) == 1
    with pytest.raises(ContainmentError):
        quotient_representatives(small, big)


def test_quotient_representatives_reduce_mod_small():
    big = Subspace(3, [unit(3, 0), unit(3, 1)])
    small = Subspace(3, [unit(3, 0)])
    reps = quotient_representatives(big, small)
    assert reps == [[F(0), F(1), F(0)]]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_nullspace_vectors_are_killed(mnc):
    rows, nc = mnc
    ns = nullspace(rows, nc)
    for v in ns.basis:
        assert all(x == 0 for x in oracles.mat_vec(rows, v))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(mnc):
    rows, nc = mnc
    assert rank(rows, nc) + nullspace(rows, nc).dim == nc


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(mnc):
    rows, nc = mnc
    red, pivots = rref(rows, nc)
    again, pivots2 = rref(red, nc)
    assert again == red and pivots2 == pivots


@settings(max_examples=40, deadline=None)
@given(matrices(max_rows=4, max_cols=4))
def test_subspace_construction_canonical(mnc):
    rows, nc = mnc
    s = Subspace(nc, rows)
    # doubling the spanning set changes nothing
    assert Subspace(nc, rows + rows) == s
    for v in rows:
        assert s.contains(v)


@st.composite
def redundant_matrices(draw, max_rows=8, max_cols=5):
    """Matrices with zero rows, repeated rows, 0 or 1 columns and more
    rows than columns all likely."""
    nc = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.lists(sparse_fracs, min_size=nc, max_size=nc),
                         max_size=max_rows))
    if rows:
        rows += [list(rows[i]) for i in
                 draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    return rows, nc


@settings(max_examples=200, deadline=None)
@given(redundant_matrices())
@example(([], 0))
@example(([[], []], 0))
@example(([[F(0)], [F(-2, 3)], [F(-2, 3)], [F(5)]], 1))
def test_rref_matches_dense_oracle(mnc):
    rows, nc = mnc
    assert rref(rows, nc) == oracles.rref(rows, nc)


@settings(max_examples=100, deadline=None)
@given(redundant_matrices(), st.randoms(use_true_random=False))
def test_add_in_any_order_equals_batch(mnc, rnd):
    rows, nc = mnc
    batch = Subspace(nc, rows)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    grown = Subspace(nc)
    for v in shuffled:
        grown.add(v)
    assert grown == batch
    assert (grown.basis, grown.pivots) == (batch.basis, batch.pivots)


@settings(max_examples=100, deadline=None)
@given(redundant_matrices())
def test_add_refuses_exactly_the_contained_vectors(mnc):
    rows, nc = mnc
    s = Subspace(nc)
    for v in rows:
        inside = s.contains(v)
        assert s.add(v) is not inside
        assert s.contains(v)


@settings(max_examples=100, deadline=None)
@given(redundant_matrices().flatmap(lambda mnc: st.tuples(
    st.just(mnc), st.lists(st.lists(st.integers(-2, 2), min_size=len(mnc[0]),
                                    max_size=len(mnc[0])), max_size=4))))
# big's row (3, 1, 0) meets small's row (6, 2, 1) at pivot 0, where both
# integer rows have entries above 1 (3 and 6): the residual is -1/6 e_2
@example((([[F(3), F(1), F(0)], [F(0), F(0), F(1)]], 3), [[2, 1]]))
def test_quotient_representatives_match_oracle(case):
    (big_rows, nc), combos = case
    small_rows = [[sum((c * r[j] for c, r in zip(cs, big_rows)), F(0))
                   for j in range(nc)] for cs in combos]
    got = quotient_representatives(Subspace(nc, big_rows), Subspace(nc, small_rows))
    assert got == oracles.quotient_representatives(big_rows, small_rows, nc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-30, 30), sparse_fracs), max_size=6), st.booleans())
@example([4, -6, 0, 10], False)            # ints with a common factor
@example([F(2, 3), F(-4, 9), F(0)], True)  # Fractions only
@example([2, F(1, 2), 0, F(-3)], False)    # mixed
@example([0, F(0), 0], True)               # all zero
def test_int_row_is_the_primitive_integer_row(row, sparse):
    """int_row, dense or sparse, is the dense oracle's coprime integer row:
    the same values, every one an int."""
    want = oracles._int_row([F(x) for x in row])
    want = {} if want is None else {j: c for j, c in enumerate(want) if c}
    got = int_row({j: x for j, x in enumerate(row) if x} if sparse else row)
    assert got == want
    assert all(type(c) is int for c in got.values())


@settings(max_examples=100, deadline=None)
@given(redundant_matrices(), st.data())
def test_nullspace_with_zero_columns_is_the_kernel_with_their_unit_rows(mnc, data):
    """Columns declared zero give the kernel of the rows plus the unit rows
    of those columns, the rows kept off them."""
    rows, nc = mnc
    zero = data.draw(st.sets(st.integers(0, nc - 1))) if nc else set()
    rows = [[F(0) if j in zero else x for j, x in enumerate(row)] for row in rows]
    assert (nullspace(rows, nc, zero=zero)
            == nullspace(rows + [unit(nc, c) for c in zero], nc))


def test_nullspace_refuses_a_zero_column_that_is_a_pivot():
    # x0 = x1 with x0 declared zero: the kernel is {0}, not the line (1, 1).
    # The refusal is a caller's defect (exit 70), not an input error (exit 2)
    with pytest.raises(ZeroColumnPivot):
        nullspace([{0: 1, 1: -1}], 2, zero={0})
    assert not issubclass(ZeroColumnPivot, (LinalgError, ValueError))


def test_nullspace_zero_column_reached_off_its_pivot():
    # x0 = x1 with x1 declared zero: x1 is no pivot, and the kernel is {0}
    assert nullspace([{0: 1, 1: -1}], 2, zero={1}) == Subspace(2)


BIG = 2 ** 70
any_entry = st.one_of(st.integers(-4, 4), st.integers(-BIG, BIG), fracs)


@st.composite
def mixed_vectors(draw, max_cols=6, max_vectors=8):
    """Sparse int rows (explicit zeros and entries above 2^64 included),
    sparse rows with Fractions and dense rows, in one ambient space, with
    scaled copies and sums of earlier integer rows mixed in."""
    nc = draw(st.integers(1, max_cols))
    out = []
    for _ in range(draw(st.integers(0, max_vectors))):
        kind = draw(st.sampled_from(("int", "sparse", "dense", "combo")))
        ints = [v for v in out
                if isinstance(v, dict) and all(type(x) is int for x in v.values())]
        if kind == "combo" and ints:
            u, w = draw(st.sampled_from(ints)), draw(st.sampled_from(ints))
            k = draw(st.integers(-3, 3))
            out.append({j: k * u.get(j, 0) + w.get(j, 0) for j in u.keys() | w.keys()})
            continue
        entry = st.one_of(st.integers(-4, 4), st.integers(-BIG, BIG)) if kind == "int" else any_entry
        row = draw(st.lists(entry, min_size=nc, max_size=nc))
        if kind == "dense":
            out.append(row)
        else:
            out.append({j: x for j, x in enumerate(row) if x or draw(st.booleans())})
    return nc, out


@st.composite
def many_large_pivots(draw):
    """k stored rows, each with a large pivot and large entries in two
    shared columns, then vectors that meet every one of those pivots."""
    k = draw(st.integers(2, 8))
    big = st.integers(2 ** 64, BIG)
    rows = [{i: draw(big), k: draw(big), k + 1: draw(st.integers(-BIG, BIG))} for i in range(k)]
    probes = draw(st.lists(st.lists(st.integers(-BIG, BIG).filter(bool), min_size=k + 2,
                                    max_size=k + 2).map(lambda r: dict(enumerate(r))),
                           min_size=1, max_size=3))
    return k + 2, rows + probes


@settings(max_examples=200, deadline=None)
@given(st.one_of(mixed_vectors(), many_large_pivots()))
@example((2, [{0: 4, 1: 6}]))                     # a non-primitive row
@example((2, [{0: 2, 1: 3}, {0: -4, 1: -6}]))     # a row that reduces to zero
@example((3, [{0: 0, 2: 5}, [F(1, 2), 0, F(3)]]))  # explicit zero, then a Fraction row
def test_residual_matches_the_clear_chain(case):
    """The one-accumulator residual is the stepwise _clear chain's row, so
    add returns the same verdicts and leaves the same stored rows."""
    nc, vectors = case
    fast, slow = Subspace(nc), oracles.ClearChainSubspace(nc)
    for v in vectors:
        assert fast._residual(v) == slow._residual(v)
        assert fast.add(v) is slow.add(v)
        assert fast._rows == slow._rows
