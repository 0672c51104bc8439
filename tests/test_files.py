import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lsconf.algebras import DERIVED, STORED_OPS, AlgebraSpec, tensor
from lsconf.cli import main
from lsconf.cohomology import CocycleFamily
from lsconf.files import (FileFormatError, algebra_to_json, cocycle_to_json,
                          dump_json, file_sha256, load_algebra, load_cocycle,
                          load_matrix, parse_rational, save_algebra)

from conftest import pre_gd_zoo_specs, random_tensor, rank_two, two_dim_lw
import oracles

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"

# quotes, backslashes, control characters, U+2028/U+2029, non-ASCII letters
# and an astral character, next to plain letters
TEXT = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7f\u2028\u2029λ∂é😀 ,:'), max_size=8)
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(TEXT, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=30)


def test_parse_rational():
    assert parse_rational("-7/3") == F(-7, 3)
    assert parse_rational("4") == 4
    for bad in ("", "1/0", "1/00", "0x2", "1.5", "2/", "--3", None, 7):
        with pytest.raises(FileFormatError):
            parse_rational(bad)
    # the digit bound is lsconf's own rule, not the interpreter's
    assert parse_rational("-" + "9" * 4300 + "/7") == F(-int("9" * 4300), 7)
    for bad in ("9" * 4301, "-1/" + "9" * 4301):
        with pytest.raises(FileFormatError, match="more than 4300 digits"):
            parse_rational(bad)


def test_round_trip_preserves_algebra(tmp_path):
    alg = rank_two(F(1, 2), -3)
    path = tmp_path / "a.json"
    save_algebra(alg, path)
    back = load_algebra(path)
    assert back == alg


def test_saved_bytes_are_stable(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_algebra(two_dim_lw(), p1)
    save_algebra(load_algebra(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert file_sha256(p1) == file_sha256(p2)
    assert p1.read_bytes().endswith(b"\n")


def test_sparse_table_format(tmp_path):
    doc = algebra_to_json(two_dim_lw())
    assert doc["ops"]["ld"] == {"L,L": {"L": "1"}, "W,L": {"W": "1"}}
    assert "circ" not in doc["ops"]
    # integer cells are accepted on input
    doc["ops"]["ld"]["L,L"]["L"] = 1
    path = tmp_path / "int.json"
    path.write_text(dump_json(doc), encoding="utf-8")
    assert load_algebra(path) == two_dim_lw()


def test_load_algebra_rejections(tmp_path):
    base = algebra_to_json(two_dim_lw())

    def reject(mutate, needle):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc), encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_algebra(path)
        assert needle in str(err.value)

    reject(lambda d: d.pop("dim"), "missing field 'dim'")
    reject(lambda d: d.update(dim=0), "positive")
    reject(lambda d: d.update(basis=["L"]), "dim label strings")
    reject(lambda d: d.update(basis=["L", "L"]), "distinct")
    reject(lambda d: d["ops"].update(bracket={}), "unknown op")
    reject(lambda d: d["ops"]["ld"].update({"L,Q": {"L": "1"}}), "bad basis pair")
    reject(lambda d: d["ops"]["ld"].update({"L,L": {"Q": "1"}}), "unknown label")
    reject(lambda d: d["ops"]["ld"]["L,L"].update(L="1/0"), "ops.ld.L,L.L")

    path = tmp_path / "syntax.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_algebra(path)
    with pytest.raises(FileFormatError):
        load_algebra(tmp_path / "absent.json")


ONE_L = '"name": "r1", "dim": 1, "basis": ["L"]'


@pytest.mark.parametrize("text, location", [
    ('{"name": "a", %s}' % ONE_L, "name"),
    ('{%s, "ops": {"ld": {}, "rd": {}, "ld": {}}}' % ONE_L, "ops.ld"),
    ('{%s, "ops": {"ld": {"L,L": {"L": "1", "L": "2"}}}}' % ONE_L, "ops.ld.L,L.L"),
    # two spellings of one basis pair: the later key is the fault
    ('{%s, "ops": {"ld": {"L,L": {"L": "1"}, "L, L": {"L": "2"}}}}' % ONE_L, "ops.ld.L, L"),
    ('{%s, "ops": {"ld": {" L,L": {"L": "1"}, "L ,L": {}}}}' % ONE_L, "ops.ld.L ,L"),
], ids=["field", "op", "label", "pair", "spaced-pairs"])
def test_repeated_keys_are_refused_at_their_location(tmp_path, text, location):
    """json.loads keeps the last value of a repeated key, and a pair key is
    read through strip(): either would let a file say two things at once."""
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FileFormatError) as err:
        load_algebra(path)
    assert err.value.location == location


def test_repeated_keys_are_refused_in_matrix_and_cocycle_files(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"matrix": [["1"]], "matrix": [["2"]]}', encoding="utf-8")
    with pytest.raises(FileFormatError, match=r"repeated key 'matrix' \(at matrix\)$"):
        load_matrix(path, dim=1)
    path.write_text('{"degree_cap": 0, "forms": [[["1"]]], "note": [{"a": 1, "a": 2}]}',
                    encoding="utf-8")
    with pytest.raises(FileFormatError, match=r"\(at note\[0\]\.a\)$"):
        load_cocycle(path, dim=1)


def assert_same_spec(got, want):
    """Equal specs, with equal den, rows of every op and dense views."""
    assert got == want
    assert got.den == want.den
    for op in STORED_OPS + tuple(DERIVED):
        assert got.rows(op) == want.rows(op), op
    assert dict(got.ops) == dict(want.ops)


@pytest.mark.parametrize("seed", range(20))
def test_dense_rows_and_file_routes_build_the_same_spec(tmp_path, seed):
    """Dims 1-5, entries with denominators 1, 2 and 3, every stored op,
    one of them all zero: the dense constructor, from_rows at a common
    denominator six times too large and a saved-and-loaded file all give
    one spec.  A file carries no bracket, so that route drops it."""
    rng = random.Random(seed)
    dim = 1 + seed % 5
    basis = tuple(f"e{i}" for i in range(dim))
    dense = {op: random_tensor(rng, dim, 0.4) for op in STORED_OPS}
    dense[rng.choice(STORED_OPS)] = tensor(dim)
    alg = AlgebraSpec("routes", dim, basis, dense)
    zero = (((),) * dim,) * dim
    scaled = {op: tuple(tuple(tuple((k, 6 * x) for k, x in row) for row in plane)
                        for plane in alg.stored_rows.get(op, zero)) for op in STORED_OPS}
    assert_same_spec(AlgebraSpec.from_rows("routes", dim, basis, 6 * alg.den, scaled), alg)
    filed = AlgebraSpec("routes", dim, basis, {op: dense[op] for op in STORED_OPS
                                               if op != "bracket"})
    path = tmp_path / "routes.json"
    save_algebra(filed, path)
    assert_same_spec(load_algebra(path), filed)


def test_the_pre_gd_zoo_reads_back_from_its_files(tmp_path):
    path = tmp_path / "zoo.json"
    for alg in pre_gd_zoo_specs():
        dense = AlgebraSpec(alg.name, alg.dim, alg.basis, dict(alg.ops))
        assert_same_spec(dense, alg)
        save_algebra(alg, path)
        assert_same_spec(load_algebra(path), dense)


def test_a_sparse_file_loads_in_memory_that_follows_its_entries(tmp_path):
    """dim 120 with one entry per op: a dense dim^3 tensor per op would
    hold 1.7 million entries; the rows hold four."""
    dim = 120
    basis = [f"e{i}" for i in range(dim)]
    ops = {op: {f"e{n},e{n + 1}": {f"e{n + 2}": "1/2"}}
           for n, op in enumerate(("ld", "rd", "circ", "dot"))}
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"name": "sparse", "dim": dim, "basis": basis, "ops": ops}),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        alg = load_algebra(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert alg.den == 2
    for n, op in enumerate(("ld", "rd", "circ", "dot")):
        assert alg.rows(op)[n][n + 1] == ((n + 2, 1),)
        assert sum(map(len, (row for plane in alg.rows(op) for row in plane))) == 1


@pytest.mark.parametrize("basis", [("a,b", "c"), (" c", "d"), ("c ", "d"), (("a", "L"), "c")],
                         ids=["comma", "leading-space", "trailing-space", "tuple"])
def test_labels_a_pair_key_cannot_carry_are_refused_both_ways(tmp_path, basis):
    """A label is a str with no ',' that equals its own strip(): saving any
    other is refused before a file is opened, and loading one is refused
    at basis."""
    path = tmp_path / "labels.json"
    alg = AlgebraSpec("labels", 2, basis, {"ld": tensor(2, {(0, 1, 0): 1})})
    with pytest.raises(FileFormatError, match=r"\(at basis\)$"):
        save_algebra(alg, path)
    assert not path.exists()
    path.write_text(json.dumps({"name": "labels", "dim": 2, "basis": list(basis)}),
                    encoding="utf-8")
    with pytest.raises(FileFormatError, match=r"\(at basis\)$"):
        load_algebra(path)


def test_ops_without_file_form_are_refused():
    alg = AlgebraSpec("b", 1, ("e",), {"bracket": tensor(1, {(0, 0, 0): 1})})
    with pytest.raises(FileFormatError):
        algebra_to_json(alg)


def test_load_matrix(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(dump_json({"matrix": [["1", "0"], ["-1/2", 3]]}), encoding="utf-8")
    m = load_matrix(path, dim=2)
    assert oracles.apply(m, [1, 1]) == [1, F(5, 2)]
    with pytest.raises(FileFormatError):
        load_matrix(path, dim=3)
    path.write_text(dump_json({"matrix": [["1", "0"]]}), encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_matrix(path, dim=2)


def test_cocycle_round_trip(tmp_path):
    fam = CocycleFamily(2, (((0,),), ((F(1, 3),),), ((0,),)))
    path = tmp_path / "c.json"
    path.write_text(dump_json(cocycle_to_json(fam)), encoding="utf-8")
    assert load_cocycle(path, dim=1) == fam
    with pytest.raises(FileFormatError):
        load_cocycle(path, dim=2)
    path.write_text(dump_json({"degree_cap": 2, "forms": [[["0"]]]}), encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_cocycle(path, dim=1)


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[]], "d": [{}], "e": ["", "\u2028"]})
@example({"k": [{"l": [[[{"m": ["x", 1, None, True]}]]]}]})
def test_dump_json_matches_the_stdlib_rendering(doc):
    assert dump_json(doc) == oracles.dump_json(doc)


@pytest.mark.parametrize("bad", [0.5, F(1, 2), {"residual": [F(1, 2)]}, [1, 2.0],
                                 {1: "int key"}, {"s": {"a", "b"}}])
def test_dump_json_refuses_values_without_an_exact_json_form(bad):
    with pytest.raises(TypeError):
        dump_json(bad)


def test_failing_check_report_is_byte_identical_to_the_golden(capsys, monkeypatch):
    """check_fail.json is the --json report of a failing check, recorded
    with the stdlib writer; its input has non-ASCII and escaped labels."""
    monkeypatch.chdir(GOLDEN)
    code = main(["check", "check_fail_input.json", "--identity", "quadratic-9", "--json"])
    assert code == 1
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "check_fail.json").read_bytes()
