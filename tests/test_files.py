import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lsconf.algebras import AlgebraSpec, tensor
from lsconf.cli import main
from lsconf.cohomology import CocycleFamily
from lsconf.files import (FileFormatError, algebra_to_json, cocycle_to_json,
                          dump_json, file_sha256, load_algebra, load_cocycle,
                          load_matrix, parse_rational, save_algebra)

from conftest import rank_two, two_dim_lw
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
