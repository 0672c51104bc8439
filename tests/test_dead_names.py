"""Every function, class and method defined in src/lsconf is named somewhere
outside the lines of its own definitions (from the def or class line to the
last line of its body): in src/, tests/, scripts/ or perfbench/.  A
definition nothing names is dead code that every cold start still compiles,
and one named only inside itself (a self-recursive helper whose caller is
gone, or a name in its own error message) is named by nothing.

A definition that src/ itself never names is library surface only if README
documents it: it must appear there in backticks, as `name`, `name(...)` or
`Owner.name`.  Otherwise it belongs in tests/oracles.py, or is deleted with
its tests, unless ALLOWED below gives the reason it stays."""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "scripts", "perfbench")

# named outside src/ only, undocumented, and kept: name -> reason
ALLOWED = {
    "coeff_product": "perfbench/spans.py counts its calls by name",
    "mat_mul": "perfbench/spans.py counts its calls by name",
}


def definitions():
    """{name: {(path, line)}}: every line spanned by a def or class of that
    name in src/lsconf, dunders excepted."""
    found = defaultdict(set)
    for path in sorted((ROOT / "src" / "lsconf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                found[node.name].update((path, line)
                                        for line in range(node.lineno, node.end_lineno + 1))
    return found


def named_in():
    """{top: the defined names named in that searched directory}, each
    outside the lines of its own definitions."""
    defined = definitions()
    named = {top: set() for top in SEARCHED}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                for name in set(re.findall(r"[A-Za-z_]\w*", line)) & defined.keys():
                    if (path, lineno) not in defined[name]:
                        named[top].add(name)
    return named


def documented():
    """The names README gives in inline code: `name`, `name(...)` or a
    dotted `owner.name`, outside its fenced blocks."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"),
                  flags=re.S)
    return {m.group(1) for span in re.findall(r"`([^`\n]+)`", text)
            if (m := re.fullmatch(r"(?:\w+\.)*(\w+)(?:\(.*\))?", span))}


def test_every_definition_is_named_elsewhere():
    assert sorted(definitions().keys() - set().union(*named_in().values())) == []


def test_what_only_tests_scripts_or_perfbench_name_is_documented():
    named = named_in()
    outside_only = set().union(*named.values()) - named["src"]
    assert sorted(outside_only - documented() - ALLOWED.keys()) == []


def test_every_allowed_name_is_still_named_outside_src_only():
    named = named_in()
    assert sorted(name for name in ALLOWED
                  if name in named["src"] or name not in set().union(*named.values())) == []


def test_every_name_a_src_module_imports_is_used_there():
    """A call removed from a module takes its import with it: every name
    bound by an import in src/lsconf is read somewhere in that module."""
    stale = []
    for path in sorted((ROOT / "src" / "lsconf").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        stale += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert stale == []
