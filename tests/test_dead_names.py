"""Every function, class and method defined in src/lsconf is named somewhere
other than on a line that defines that name: in src/, tests/, scripts/ or
perfbench/.  A definition nothing names is dead code that every cold start
still compiles."""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "scripts", "perfbench")


def definitions():
    """{name: {(path, line)}} of every def and class in src/lsconf, dunders excepted."""
    found = defaultdict(set)
    for path in sorted((ROOT / "src" / "lsconf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                found[node.name].add((path, node.lineno))
    return found


def test_every_definition_is_named_elsewhere():
    defined = definitions()
    named = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                for name in set(re.findall(r"[A-Za-z_]\w*", line)) & defined.keys():
                    if (path, lineno) not in defined[name]:
                        named.add(name)
    assert sorted(defined.keys() - named) == []
