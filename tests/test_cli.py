import copy
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lsconf
from lsconf import cli, cohomology, constructions, ideals
from lsconf.algebras import AlgebraSpec, check_identity, tensor
from lsconf.cli import build_parser, main
from lsconf.cohomology import ncols
from lsconf.conformal import build_rank_one
from lsconf.constructions import truncated_binomial_zinbiel
from lsconf.files import dump_json, file_sha256, load_algebra, save_algebra
from lsconf.linalg import Subspace, nullspace, unit

from conftest import (gaussian_rationals, is_direct_route, matrices_star_zero,
                      perturbed_product_tensor, rank_two, split_quadratic, two_dim_lw)

F = Fraction


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}

    def put(key, alg):
        paths[key] = str(root / f"{key}.json")
        save_algebra(alg, paths[key])

    put("r0", build_rank_one(0))
    put("r1", build_rank_one(1))
    put("lw", two_dim_lw())
    put("rank_two", rank_two(1, 1))
    put("degenerate", rank_two(0, 0))
    put("zero", AlgebraSpec("zero", 1, ("e",), {}))
    put("rdonly", AlgebraSpec("rdonly", 1, ("L",),
                              {"rd": tensor(1, {(0, 0, 0): 1})}))
    put("zin3", truncated_binomial_zinbiel(3)[0])
    paths["zin3_D"] = str(root / "zin3_D.json")
    with open(paths["zin3_D"], "w", encoding="utf-8") as fh:
        fh.write(dump_json({"matrix": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]}))
    paths["cocycle"] = str(root / "cocycle.json")
    with open(paths["cocycle"], "w", encoding="utf-8") as fh:
        fh.write(dump_json({"degree_cap": 2,
                            "forms": [[["0"]], [["0"]], [["1"]]]}))
    paths["bad"] = str(root / "bad.json")
    with open(paths["bad"], "w", encoding="utf-8") as fh:
        fh.write('{"name": "x", "dim": 1, "basis": ["L"], '
                 '"ops": {"ld": {"L,L": {"L": "1/0"}}}}')
    paths["dir"] = str(root)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_pass_and_fail(capsys, inputs):
    code, out, _ = run(capsys, "check", inputs["r1"], "--identity", "pre-gd")
    assert code == 0
    assert out.splitlines()[0] == "PASS PRE_GD on rank_one(1)"
    code, out, _ = run(capsys, "check", inputs["rdonly"], "--identity", "PRE_NOVIKOV")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL PRE_NOVIKOV on rdonly"
    assert any("pn3 at (L,L,L)" in ln for ln in lines)


def test_check_input_errors(capsys, inputs):
    code, _, err = run(capsys, "check", inputs["bad"], "--identity", "PRE_GD")
    assert code == 2
    assert "ops.ld.L,L.L" in err
    code, _, err = run(capsys, "check", inputs["r1"], "--identity", "NOPE")
    assert code == 2


def test_h2_text_golden(capsys, inputs):
    code, out, _ = run(capsys, "h2", inputs["lw"])
    assert code == 0
    lines = out.splitlines()
    assert "beta = 0" in lines
    assert "spanning products: ast, ld, star" in lines
    assert "dim Z2 = 4" in lines and "dim B2 = 2" in lines
    assert "dim H2 = 2" in lines
    assert "representative 1: alpha_3(L,W) = 1" in lines
    assert "representative 2: alpha_2(L,L) = 1" in lines


def test_json_reports_build_no_text(capsys, monkeypatch, inputs):
    # the text lines of a report are built only when text is printed
    def no_text(alg, fam):
        raise AssertionError("text built under --json")

    monkeypatch.setattr(cli, "family_text", no_text)
    code, out, _ = run(capsys, "h2", inputs["lw"], "--json")
    assert code == 0 and json.loads(out)["dim_H2"] == 2
    with pytest.raises(AssertionError, match="text built"):
        run(capsys, "h2", inputs["lw"])


def test_h2_refusal_and_cap_override(capsys, inputs):
    code, _, err = run(capsys, "h2", inputs["zero"])
    assert code == 3 and "degree cap" in err
    code, out, _ = run(capsys, "h2", inputs["zero"], "--degree-cap", "3")
    assert code == 0
    lines = out.splitlines()
    assert any(ln.startswith("note: no product spans V") for ln in lines)
    assert "dim H2 = 4" in lines


def test_h2_degree_cap_zero(capsys, inputs):
    # at cap 0 only coboundaries of phi with phi(a star b) = 0 are truncated
    # families; rank_one(1) has none, and no cocycle either
    code, out, err = run(capsys, "h2", inputs["r1"], "--degree-cap", "0")
    assert code == 0 and "Traceback" not in err
    lines = out.splitlines()
    assert ["dim Z2 = 0", "dim B2 = 0", "dim H2 = 0"] == [
        ln for ln in lines if ln.startswith("dim ")]
    code, out, _ = run(capsys, "h2", inputs["r1"], "--degree-cap", "1")
    assert code == 0
    assert ["dim Z2 = 1", "dim B2 = 1", "dim H2 = 0"] == [
        ln for ln in out.splitlines() if ln.startswith("dim ")]


def _full_coboundaries(alg, beta, degree_cap):
    return nullspace([], ncols(degree_cap, alg.dim))


def _wrong_ideal(alg, ops):
    return Subspace(alg.dim, [unit(alg.dim, 0)]), None


# a defect planted at one call site: (module, attribute, fake, argv); a
# construction whose output fails its target system, or whose two routes
# disagree, is a defect too, never the exit 1 of an input that fails
ZINBIEL_PREGD = ["construct", "zinbiel-pregd", "{zin3}", "--derivation", "{zin3_D}",
                 "--xi", "1/2", "--k", "1", "-o", "{dir}/defect.json"]


@pytest.mark.parametrize("module, attr, fake, argv", [
    (cohomology, "coboundary_space", _full_coboundaries, ["h2", "{r1}"]),
    (ideals, "_search", _wrong_ideal, ["simple", "{degenerate}"]),
    (constructions, "product_tensor", perturbed_product_tensor(lambda terms: True),
     ZINBIEL_PREGD),
    (constructions, "product_tensor", perturbed_product_tensor(is_direct_route),
     ZINBIEL_PREGD),
], ids=["cohomology", "ideals", "construction-output", "construction-routes"])
def test_internal_defects_exit_70(capsys, monkeypatch, inputs, module, attr,
                                  fake, argv):
    monkeypatch.setattr(module, attr, fake)
    code, _, err = run(capsys, *[a.format(**inputs) for a in argv])
    assert code == 70
    assert err.startswith("error: internal: ") and "Traceback" not in err


def test_h2_json_is_byte_stable(capsys, inputs):
    args = ("h2", inputs["r0"], "--beta", "0", "--json")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["dim_H2"] == 1
    assert doc["input_sha256"] == file_sha256(inputs["r0"])
    assert doc["representatives"][0]["forms"][2] == [["1"]]


def test_input_sha256_hashes_the_bytes_parsed(capsys, monkeypatch, inputs, tmp_path):
    path = tmp_path / "r0.json"
    original = Path(inputs["r0"]).read_bytes()
    path.write_bytes(original)
    real_h2 = cli.h2

    def h2_then_rewrite(*args, **kwargs):
        result = real_h2(*args, **kwargs)
        path.write_text(dump_json(R1), encoding="utf-8")
        return result

    monkeypatch.setattr(cli, "h2", h2_then_rewrite)
    code, out, _ = run(capsys, "h2", str(path), "--json")
    assert code == 0 and path.read_bytes() != original
    assert json.loads(out)["input_sha256"] == hashlib.sha256(original).hexdigest()


def test_parser_is_shared_and_keeps_no_state(capsys, inputs):
    assert build_parser() is build_parser()

    def report(*argv):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        return json.loads(out)

    assert report("h2", inputs["r0"], "--beta", "1/2")["beta"] == "1/2"
    assert report("h2", inputs["r0"])["beta"] == "0"
    with pytest.raises(SystemExit) as exc:
        main(["h2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert report("h2", inputs["r0"])["dim_H2"] == 1
    doc = report("simple", inputs["r1"], "--trials", "3", "--seed", "7")
    assert (doc["seed"], doc["trials"]) == (7, 3)
    doc = report("simple", inputs["r1"])
    assert (doc["seed"], doc["trials"]) == (0, 20)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_parse(capsys):
    """Every `lsconf ...` line of README's console blocks, comment cut,
    is a command line the parser accepts."""
    blocks = re.findall(r"```console\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("lsconf ")]
    assert commands
    for argv in commands:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"lsconf {shlex.join(argv)}: {capsys.readouterr().err}")
        assert args.command == argv[0]


def test_simple_verdicts(capsys, inputs):
    code, out, _ = run(capsys, "simple", inputs["rank_two"])
    assert code == 0
    lines = out.splitlines()
    assert "verdict: simple" in lines
    assert "criterion: rd_trivial_regular_element" in lines
    assert "witness: element L" in lines
    assert "seed = 0, trials = 20" in lines

    code, out, _ = run(capsys, "simple", inputs["degenerate"])
    assert code == 1
    assert "witness: ideal with basis [0, 1]" in out.splitlines()

    code, _, err = run(capsys, "simple", inputs["zero"])
    assert code == 2 and "vanish" in err


@pytest.mark.parametrize("witness, text", [
    ((1, -2, F(1, 2), 0), "element a + -2*b + 1/2*c"),
    ((0, 1, 0, F(-3, 4)), "element b + -3/4*d"),
    ((0, 0, 0, 0), "element 0"),
    (Subspace(4, [[1, F(1, 2), 0, 0], [0, 0, 1, -2]]),
     "ideal with basis [1, 1/2, 0, 0], [0, 0, 1, -2]"),
    (None, "none"),
], ids=["rational-element", "unit-and-rational", "zero-element", "ideal", "none"])
def test_simple_witness_text(witness, text):
    # the text line is read off the JSON witness, with the same bytes
    alg = AlgebraSpec("w", 4, ("a", "b", "c", "d"), {})
    assert cli._witness_text(alg, cli._witness_doc(witness)) == text


@pytest.mark.parametrize("spec", [gaussian_rationals(), split_quadratic()],
                         ids=["gaussian", "split"])
def test_simple_verdict_does_not_depend_on_the_seed(capsys, tmp_path, spec):
    path = str(tmp_path / "alg.json")
    save_algebra(spec, path)
    docs = []
    for seed in map(str, range(4)):
        code, out, _ = run(capsys, "simple", path, "--seed", seed)
        assert code == 1
        lines = out.splitlines()
        assert "  three-operation algebra: not_simple (envelope_not_full)" in lines
        assert "witness: none" in lines
        assert any("Burnside" in ln for ln in lines)
        code, out, _ = run(capsys, "simple", path, "--seed", seed, "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc.pop("seed") == int(seed)
        docs.append(doc)
    assert all(doc == docs[0] for doc in docs)


def test_simple_json(capsys, inputs):
    code, out, _ = run(capsys, "simple", inputs["r1"], "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "simple"
    assert doc["criterion"] == "pre_novikov_simple_spanning"
    assert doc["witness"] is None


def test_simple_inconclusive_exits_4(capsys, tmp_path):
    path = str(tmp_path / "m2.json")
    save_algebra(matrices_star_zero(), path)
    code, out, err = run(capsys, "simple", path, "--json")
    doc = json.loads(out)
    assert (code, err) == (4, "")
    assert (doc["verdict"], doc["criterion"], doc["witness"]) == (
        "inconclusive", "no_applicable_criterion", None)
    assert doc["details"][-1] == "star products do not span V"


def test_construct_rank_one_and_chain(capsys, inputs):
    out_path = inputs["dir"] + "/built_r1.json"
    code, out, _ = run(capsys, "construct", "rank-one", "--c", "1",
                       "-o", out_path)
    assert code == 0 and out.startswith("wrote ")
    assert load_algebra(out_path) == build_rank_one(1)

    zin_path = inputs["dir"] + "/zin4.json"
    d_path = inputs["dir"] + "/zin4_D.json"
    code, _, _ = run(capsys, "construct", "binomial-zinbiel", "--n", "4",
                     "-o", zin_path, "--derivation-out", d_path)
    assert code == 0
    code, _, _ = run(capsys, "construct", "zinbiel-pn", zin_path,
                     "--derivation", d_path, "--xi", "1/2",
                     "-o", inputs["dir"] + "/pn.json")
    assert code == 0
    pn = load_algebra(inputs["dir"] + "/pn.json")
    assert check_identity(pn, "PRE_NOVIKOV").passed
    code, _, _ = run(capsys, "construct", "pn-pregd",
                     inputs["dir"] + "/pn.json", "--k", "-3",
                     "-o", inputs["dir"] + "/pregd.json")
    assert code == 0
    assert check_identity(load_algebra(inputs["dir"] + "/pregd.json"),
                          "PRE_GD").passed


def test_construct_failures(capsys, inputs):
    code, _, err = run(capsys, "construct", "pn-pregd", inputs["rdonly"],
                       "--k", "1", "-o", inputs["dir"] + "/x.json")
    assert code == 1 and "PRE_NOVIKOV" in err
    code, _, err = run(capsys, "construct", "rank-one",
                       "-o", inputs["dir"] + "/x.json")
    assert code == 2 and "--c" in err
    code, _, err = run(capsys, "construct", "current", "-o", inputs["dir"] + "/x.json")
    assert code == 2 and "positional file argument" in err and "--file" not in err
    # an input with ld/rd is the wrong kind of algebra: exit 2, not a finding
    code, _, err = run(capsys, "construct", "current", inputs["lw"],
                       "-o", inputs["dir"] + "/x.json")
    assert code == 2 and "single product (circ)" in err
    assert not os.path.exists(inputs["dir"] + "/x.json")


CONSTRUCT_FLAGS = {"c": ["--c", "1"], "n": ["--n", "3"], "k": ["--k", "1"],
                   "xi": ["--xi", "1/2"], "derivation": ["--derivation", "{zin3_D}"]}


def construct_refusals():
    """(kind, argv, message) for every construct kind without its file, with
    an unreadable file, and without each flag it needs: a missing file comes
    first, then the file's own errors, then the first missing flag."""
    kinds = {"zinbiel-pn": (True, ["derivation", "xi"]), "pn-pregd": (True, ["k"]),
             "zinbiel-pregd": (True, ["derivation", "xi", "k"]), "lsp-pregd": (True, []),
             "ca-np": (True, ["derivation"]), "rank-one": (False, ["c"]),
             "current": (True, []), "binomial-zinbiel": (False, ["n"])}
    for kind, (reads_file, flags) in kinds.items():
        if reads_file:
            yield kind, [], f"construct kind {kind!r} needs the positional file argument"
            yield kind, ["{bad}"], "zero denominator: '1/0' (at ops.ld.L,L.L)"
        for missing in flags:
            argv = ["{zin3}"] if reads_file else []
            argv += sum((CONSTRUCT_FLAGS[f] for f in flags if f != missing), [])
            yield kind, argv, f"construct kind {kind!r} needs --{missing}"


@pytest.mark.parametrize("kind, argv, message", list(construct_refusals()))
def test_construct_refusal_messages(capsys, inputs, kind, argv, message):
    out = inputs["dir"] + "/refused.json"
    code, _, err = run(capsys, "construct", kind, *(a.format(**inputs) for a in argv), "-o", out)
    assert (code, err) == (2, f"error: {message}\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, unwritable", [
    (["rank-one", "--c", "1", "-o", "{missing}/out.json"], "{missing}/out.json"),
    (["binomial-zinbiel", "--n", "3", "-o", "{dir}/zin3.json",
      "--derivation-out", "{missing}/d.json"], "{missing}/d.json"),
])
def test_construct_unwritable_output_exits_2(capsys, tmp_path, argv, unwritable):
    paths = {"dir": str(tmp_path), "missing": str(tmp_path / "missing")}
    code, _, err = run(capsys, "construct", *(a.format(**paths) for a in argv))
    assert code == 2
    assert "Traceback" not in err and f"(at {unwritable.format(**paths)})" in err
    assert not any(tmp_path.iterdir())  # the refusal writes nothing


def test_construct_refusal_leaves_existing_output_unchanged(capsys, tmp_path):
    out = tmp_path / "zin3.json"
    out.write_text("old\n", encoding="utf-8")
    code, _, _ = run(capsys, "construct", "binomial-zinbiel", "--n", "3", "-o", str(out),
                     "--derivation-out", str(tmp_path / "missing" / "d.json"))
    assert code == 2 and out.read_text(encoding="utf-8") == "old\n"


def test_lambda_command(capsys, inputs):
    code, out, _ = run(capsys, "lambda", inputs["r1"], "--left", "L",
                       "--right", "L")
    assert code == 0 and out.strip() == "(∂ + λ + 1)·L"
    code, out, _ = run(capsys, "lambda", inputs["r0"], "--left", "L",
                       "--right", "L", "--cocycle", inputs["cocycle"])
    assert code == 0 and out.strip() == "(∂ + λ)·L + λ^2·c"
    code, _, err = run(capsys, "lambda", inputs["r1"], "--left", "Q",
                       "--right", "L")
    assert code == 2 and "unknown basis label" in err


def test_coeff_check_command(capsys, inputs):
    code, out, _ = run(capsys, "coeff-check", inputs["r1"], "--window", "2")
    assert code == 0
    assert out.startswith("PASS coefficient left-symmetry on rank_one(1) (window 2")
    code, out, _ = run(capsys, "coeff-check", inputs["r0"], "--window", "2",
                       "--cocycle", inputs["cocycle"], "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["skipped"] == 69


def test_coeff_check_failure_report(capsys, tmp_path):
    """Violations name basis labels and exact rational strings; the central
    term has a field of its own, apart from any label (here the label c)."""
    path = str(tmp_path / "bad.json")
    save_algebra(AlgebraSpec("bad", 1, ("c",), {"ld": tensor(1, {(0, 0, 0): F(1, 2)}),
                                                "rd": tensor(1, {(0, 0, 0): 1}),
                                                "circ": tensor(1, {(0, 0, 0): 1})}), path)
    code, out, _ = run(capsys, "coeff-check", path, "--window", "1", "--json")
    assert code == 1 and json.loads(out)["violations"] == [
        {"basis": ["c", "c", "c"], "exponents": [0, 1, 0], "residual": [["c", 0, "-1"]],
         "central": "0"},
        {"basis": ["c", "c", "c"], "exponents": [1, 0, 0], "residual": [["c", 0, "1"]],
         "central": "0"}]
    code, out, _ = run(capsys, "coeff-check", path, "--window", "1")
    assert code == 1 and out.splitlines() == [
        "FAIL coefficient left-symmetry on bad (window 1, skipped 23)",
        "  at (c,c,c) exponents (0,1,0): residual [c t^0: -1], central 0",
        "  at (c,c,c) exponents (1,0,0): residual [c t^0: 1], central 0"]
    code, out, _ = run(capsys, "coeff-check", path, "--window", "2")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 7 and lines[-1] == "  ... and 17 more"
    assert lines[1] == ("  at (c,c,c) exponents (-2,1,1): "
                        "residual [c t^-2: 15/2, c t^-1: -3], central 0")
    # alpha_0 = 1 is not a cocycle of rank_one(0): residuals on the centre alone
    cocycle = str(tmp_path / "alpha0.json")
    Path(cocycle).write_text('{"degree_cap": 0, "forms": [[["1"]]]}', encoding="utf-8")
    save_algebra(build_rank_one(0), path)
    code, out, _ = run(capsys, "coeff-check", path, "--window", "2", "--cocycle", cocycle,
                       "--json")
    violations = json.loads(out)["violations"]
    assert code == 1 and len(violations) == 10
    assert violations[0] == {"basis": ["L", "L", "L"], "exponents": [-2, 1, 1],
                             "residual": [], "central": "-3"}


def test_coeff_check_beta_passes_a_cocycle_of_h2_at_that_beta(capsys, inputs, tmp_path):
    """alpha_0 = 3/2, alpha_1 = 1 spans Z2 of rank_one(1) at beta = 1/2.  The
    centre's modes fold by d c = c / 2, so the check passes at that beta; at
    beta 0 the same family fails on the centre alone."""
    cocycle = tmp_path / "z2.json"
    cocycle.write_text('{"degree_cap": 1, "forms": [[["3/2"]], [["1"]]]}', encoding="utf-8")
    code, out, _ = run(capsys, "coeff-check", inputs["r1"], "--window", "3",
                       "--cocycle", str(cocycle), "--beta", "1/2")
    assert code == 0 and out.splitlines() == [
        "PASS coefficient left-symmetry on rank_one(1) (window 3, beta 1/2, skipped 239)"]
    code, out, _ = run(capsys, "coeff-check", inputs["r1"], "--window", "3",
                       "--cocycle", str(cocycle), "--json")
    doc = json.loads(out)
    assert code == 1 and doc["violations"][0]["central"] == "-2"
    assert all(v["residual"] == [] for v in doc["violations"])
    code, out, _ = run(capsys, "coeff-check", inputs["r1"], "--window", "3",
                       "--cocycle", str(cocycle), "--beta", "1/2", "--json")
    assert code == 0 and sorted(json.loads(out)) == sorted(doc)


R1 = {"name": "r1", "dim": 1, "basis": ["L"], "ops": {"ld": {"L,L": {"L": "1"}}}}


# (file kind, malformed content: a JSON value, or the file's bytes); the other
# files of the command are valid
@pytest.mark.parametrize("kind, content", [
    ("algebra", 5),
    ("algebra", [R1]),
    ("algebra", {**R1, "dim": True}),
    ("algebra", {**R1, "ops": []}),
    ("derivation", [["1"]]),
    ("cocycle", 5),
    ("cocycle", {"degree_cap": 0, "forms": [5]}),
    ("cocycle", {"degree_cap": 0, "forms": [[5]]}),
    ("cocycle", {"degree_cap": 1, "forms": [[["1"]], [["1", "0"]]]}),
    ("algebra", {**R1, "name": 5}),
    pytest.param("algebra", {**R1, "ops": {"ld": {"L,L": {"L": "9" * 5000}}}},
                 id="algebra-long-rational"),
    pytest.param("algebra", b'{"name": "r1", "dim": ' + b"9" * 5000 + b"}",
                 id="algebra-long-integer"),
    pytest.param("algebra", b'{"name": "r\xff"}', id="algebra-not-utf8"),
    pytest.param("algebra", b'{"name": "r1", "dim": 1, "dim": 1, "basis": ["L"]}',
                 id="algebra-repeated-key"),
    pytest.param("algebra", b'{"name": "r1", "dim": 1, "basis": ["L"], '
                 b'"ops": {"ld": {"L,L": {"L": "1"}, "L, L": {"L": "2"}}}}',
                 id="algebra-repeated-pair"),
    pytest.param("derivation", b'{"matrix": [["1"]], "matrix": [["2"]]}',
                 id="derivation-repeated-key"),
    pytest.param("cocycle", b'{"degree_cap": 0, "forms": [[["1"]]], "forms": [[["0"]]]}',
                 id="cocycle-repeated-key"),
])
def test_malformed_files_exit_2_with_location(capsys, tmp_path, kind, content):
    paths = {}
    for name, doc in {"algebra": R1, kind: content}.items():
        paths[name] = str(tmp_path / f"{name}.json")
        data = doc if isinstance(doc, bytes) else json.dumps(doc).encode("utf-8")
        Path(paths[name]).write_bytes(data)
    options = {"algebra": ["check", "--identity", "pre-gd"],
               "derivation": ["check", "--identity", "derivation",
                              "--derivation", paths.get("derivation")],
               "cocycle": ["coeff-check", "--window", "1",
                           "--cocycle", paths.get("cocycle")]}[kind]
    code, _, err = run(capsys, options[0], paths["algebra"], *options[1:])
    assert code == 2
    assert "Traceback" not in err and "(at " in err


def test_answer_past_the_int_str_limit_is_printed(capsys, tmp_path):
    # every entry is within the input bound, but the residual of pn3 at
    # (L, L, L) is -(rd(L,L))^2: about 6,000 digits, past CPython's default
    # int/str conversion limit
    big = "9" * 3000
    lift = getattr(sys, "set_int_max_str_digits", None)
    limit = sys.get_int_max_str_digits() if lift else None
    path = str(tmp_path / "big.json")
    Path(path).write_text(json.dumps({"name": "big", "dim": 1, "basis": ["L"],
                                      "ops": {"rd": {"L,L": {"L": big}}}}),
                          encoding="utf-8")
    code, out, err = run(capsys, "check", path, "--identity", "pre-novikov")
    assert (code, err) == (1, "")
    assert out.startswith("FAIL PRE_NOVIKOV on big\n")
    code, out, err = run(capsys, "check", path, "--identity", "pre-novikov", "--json")
    assert (code, err) == (1, "")
    [violation] = json.loads(out)["violations"]
    [[label, idx, residual]] = check_identity(load_algebra(path), "PRE_NOVIKOV").violations
    assert (violation["identity"], violation["at"]) == (label, ["L", "L", "L"])
    if lift:
        assert sys.get_int_max_str_digits() == limit  # main restored it
        lift(0)
    try:
        assert violation["residual"] == [str(residual[0])]
        assert len(violation["residual"][0]) > 4300
    finally:
        if lift:
            lift(limit)


def respelled(doc):
    """doc spelled another way: keys and ops in reverse order, spaced pair
    keys, an integer entry as a JSON integer, p/q as 2p/2q, and a "-0"
    entry in every cell with room for one."""
    def entry(text):
        x = F(text)
        return x.numerator if x.denominator == 1 else f"{2 * x.numerator}/{2 * x.denominator}"

    ops = {}
    for op, table in reversed(doc["ops"].items()):
        ops[op] = {}
        for pair, cell in reversed(table.items()):
            left, right = pair.split(",")
            ops[op][f" {left} ,  {right}"] = spelled = {
                lab: entry(text) for lab, text in reversed(cell.items())}
            spelled.update([(lab, "-0") for lab in doc["basis"] if lab not in cell][:1])
    return {"ops": ops, **{key: doc[key] for key in ("basis", "dim", "name")}}


@pytest.mark.parametrize("alg", [rank_two(F(1, 2), -3), matrices_star_zero(),
                                 constructions.zinbiel_to_pre_gd(
                                     *truncated_binomial_zinbiel(3), F(1, 2), -3)],
                         ids=["rank_two", "matrices", "zinbiel"])
def test_answers_do_not_depend_on_how_a_file_spells_the_algebra(capsys, tmp_path, alg):
    """Every --json report, and every refusal, is byte-identical but for
    input_sha256."""
    path = str(tmp_path / "alg.json")
    save_algebra(alg, path)
    canonical = json.loads(Path(path).read_text(encoding="utf-8"))
    reports = []
    for doc in (canonical, respelled(canonical)):
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        assert load_algebra(path) == alg
        reports.append([])
        for argv in (["check", "--identity", "pre-gd"], ["check", "--identity", "quadratic-9"],
                     ["h2", "--degree-cap", "2", "--beta", "1/2"], ["simple"]):
            code, out, err = run(capsys, argv[0], path, *argv[1:], "--json")
            reports[-1].append((code, out.replace(file_sha256(path), ""), err))
    assert reports[0] == reports[1]
    assert all(out for _, out, _ in reports[0][:2])


@pytest.mark.parametrize("argv", [
    ["coeff-check", "{r1}", "--window", "-1"],
    ["simple", "{r1}", "--trials", "-5"],
    ["h2", "{r1}", "--degree-cap", "-1"],
    ["h2", "{r1}", "--degree-cap", "two"],
])
def test_negative_counts_are_refused(capsys, inputs, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(**inputs) for a in argv])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e5000", "9" * 5000, "1/0", "0.5"])
@pytest.mark.parametrize("flag", ["--beta", "--xi"])
def test_rational_flags_take_the_file_grammar(capsys, inputs, flag, value):
    """A rational flag is read as a rational string of an input file: an
    exponent, a decimal point, a numeral of more than files.MAX_DIGITS
    digits and a zero denominator are usage errors, refused before any
    number is built."""
    argv = (["h2", inputs["r1"]] if flag == "--beta"
            else ["construct", "zinbiel-pregd", inputs["zin3"], "--derivation",
                  inputs["zin3_D"], "--k", "1", "-o", inputs["dir"] + "/never.json"])
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err
    assert not os.path.exists(inputs["dir"] + "/never.json")


# Values that do not belong where the contract fuzz puts them: wrong types,
# bad or huge rationals, labels and pairs out of place.
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.just(10 ** 40), st.floats(),
    st.sampled_from(["1/0", "1.5", "-1/2", "3", "", "L", "L,L", "ld", "1/-2",
                     "9" * 60 + "/7", "9" * 5000, "0x1", " 1"]),
    st.lists(st.sampled_from(["1", "0", 1]), max_size=3),
    st.dictionaries(st.sampled_from(["L", "W", "L,L", "ld", "x1"]), st.just("1"),
                    max_size=2))


def _json_paths(doc, prefix=()):
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


@st.composite
def mutated_json(draw, doc):
    """doc as JSON text after at most one change: a value replaced by junk, a
    key dropped or renamed, a list grown or cut, or the text truncated."""
    doc = copy.deepcopy(doc)
    how = draw(st.sampled_from(["keep", "replace", "drop", "rekey", "grow", "cut",
                                "truncate"]))
    paths = list(_json_paths(doc))

    def at(path):
        node = doc
        for key in path:
            node = node[key]
        return node

    if how == "truncate":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    if how == "replace":
        path = draw(st.sampled_from(paths))
        if not path:
            return json.dumps(draw(JUNK))
        at(path[:-1])[path[-1]] = draw(JUNK)
    elif how in ("drop", "rekey") and len(paths) > 1:
        path = draw(st.sampled_from(paths[1:]))
        parent = at(path[:-1])
        value = parent.pop(path[-1])
        if how == "rekey" and isinstance(parent, dict):
            parent[draw(st.sampled_from(["L", "Q", "L,Q", "L,L,L", " L , L ",
                                         "dot", "bracket", ""]))] = value
    elif how in ("grow", "cut"):
        lists = [p for p in paths if isinstance(at(p), list) and at(p)]
        if lists:
            target = at(draw(st.sampled_from(lists)))
            if how == "grow":
                target.append(copy.deepcopy(target[-1]))
            else:
                target.pop()
    return json.dumps(doc)


# subcommand -> its arguments, filled in from the drawn fields
FUZZ_COMMANDS = {
    "check": ["{algebra}", "--identity", "{identity}", "--derivation", "{derivation}"],
    "h2": ["{algebra}", "--beta", "{beta}"],  # and --degree-cap 0..3 or none
    "simple": ["{algebra}", "--trials", "{trials}", "--seed", "{seed}"],
    "lambda": ["{algebra}", "--left", "{left}", "--right", "{right}",
               "--cocycle", "{cocycle}", "--beta", "{beta}"],
    "coeff-check": ["{algebra}", "--window", "{window}", "--cocycle", "{cocycle}"],
    "construct": ["{kind}", "{algebra}", "--derivation", "{derivation}",
                  "--xi", "1/2", "--k", "-3", "-o", "{output}"],
}
# subcommand -> whether its output states the finding behind an exit 1;
# h2 and lambda have no finding to report
FINDINGS = {
    "check": lambda out, err: out.startswith("FAIL "),
    "coeff-check": lambda out, err: out.startswith("FAIL "),
    "simple": lambda out, err: "verdict: not_simple" in out.splitlines(),
    "construct": lambda out, err: re.match(r"error: .* fails [A-Z_]+/", err),
}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_exit_code_contract_under_malformed_files(capsys, inputs, data):
    """Every subcommand on mutated input files keeps the exit-code contract:
    a known code, no traceback, and exit 1 only with its finding."""
    base = data.draw(st.sampled_from(["r0", "r1", "lw", "rank_two", "degenerate",
                                      "zero", "rdonly", "zin3"]))
    with open(inputs[base], encoding="utf-8") as fh:
        algebra = json.load(fh)
    n = algebra["dim"]
    zero = [["0"] * n for _ in range(n)]
    originals = {
        "algebra": algebra,
        "derivation": {"matrix": [[str(i + 1) if i == j else "0" for j in range(n)]
                                  for i in range(n)]},
        "cocycle": {"degree_cap": 2,
                    "forms": [zero, zero, [["1"] + row[1:] for row in zero]]}}
    fuzz_dir = Path(inputs["dir"]) / "fuzz"
    fuzz_dir.mkdir(exist_ok=True)
    fields = {"output": str(fuzz_dir / "out.json")}
    target = data.draw(st.sampled_from(sorted(originals)))
    for name, doc in originals.items():
        fields[name] = str(fuzz_dir / f"{name}.json")
        text = (data.draw(mutated_json(doc), label=name) if name == target
                else json.dumps(doc))
        Path(fields[name]).write_text(text, encoding="utf-8")
    command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    fields.update(
        identity=data.draw(st.sampled_from(["pre-gd", "pre-novikov", "derivation",
                                            "zinbiel", "ls-poisson"])),
        beta=data.draw(st.sampled_from(["0", "1/2"])),
        trials=data.draw(st.integers(0, 2)), seed=data.draw(st.integers(0, 3)),
        left=data.draw(st.sampled_from(algebra["basis"])),
        right=data.draw(st.sampled_from(algebra["basis"])),
        window=data.draw(st.integers(0, 2)),
        kind=data.draw(st.sampled_from(["current", "zinbiel-pn", "pn-pregd",
                                        "zinbiel-pregd", "lsp-pregd", "ca-np"])))
    argv = [command] + [a.format(**fields) for a in FUZZ_COMMANDS[command]]
    cap = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
    if command == "h2" and cap is not None:
        argv += ["--degree-cap", str(cap)]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2, 3, 4, 70)
    assert "Traceback" not in err
    if code == 1:
        assert command in FINDINGS and FINDINGS[command](out, err), (out, err)


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The wrapper pip writes for a `module:func` console script.
WRAPPER = """import re
import sys
from {module} import {import_name}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({func}())
"""


def declared_console_script():
    """The wrapper source for `[project.scripts] lsconf` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["lsconf"]
    module, func = target.split(":")
    return WRAPPER.format(module=module, import_name=func.split(".")[0],
                          func=func)


def test_console_script_entry_point(inputs, tmp_path):
    """The declared entry point, run as its own process, keeps the contract."""
    wrapper = tmp_path / "lsconf"
    wrapper.write_text(declared_console_script(), encoding="utf-8")
    src = Path(lsconf.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))

    def lsconf_script(*argv):
        return subprocess.run([sys.executable, str(wrapper), *argv],
                              capture_output=True, encoding="utf-8", cwd=tmp_path,
                              env=env)

    proc = lsconf_script("check", inputs["r1"], "--identity", "pre-gd")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "PASS PRE_GD on rank_one(1)"
    proc = lsconf_script("check", inputs["r1"], "--identity", "NOPE")
    assert proc.returncode == 2


@pytest.mark.parametrize("fmt", [(), ("--json",)])
@pytest.mark.parametrize("spec, identity, code", [("r1", "pre-gd", 0),
                                                  ("rdonly", "pre-novikov", 1)])
def test_closed_stdout_keeps_the_verdict(inputs, spec, identity, code, fmt):
    """A reader that leaves before anything is written costs neither the
    exit code nor a word on stderr.  stdout is a pipe whose read end is
    closed before the run starts, so the report's write always meets
    BrokenPipeError."""
    src = Path(lsconf.__file__).resolve().parents[1]
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "lsconf.cli", "check", inputs[spec],
                               "--identity", identity, *fmt],
                              stdout=w, stderr=subprocess.PIPE, encoding="utf-8",
                              env=dict(os.environ, PYTHONPATH=str(src)))
    finally:
        os.close(w)
    assert proc.returncode == code
    assert proc.stderr == ""


@pytest.mark.skipif(shutil.which("lsconf") is None,
                    reason="no lsconf executable on PATH (package not installed)")
def test_installed_console_script(inputs):
    exe = shutil.which("lsconf")
    assert exe, "console script not installed"
    proc = subprocess.run([exe, "check", inputs["r1"], "--identity", "pre-gd"],
                          capture_output=True, encoding="utf-8")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "PASS PRE_GD on rank_one(1)"
