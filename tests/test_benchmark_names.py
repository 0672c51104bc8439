"""The benchmark's tracer wraps lsconf functions by module and name
(perfbench/spans.py); every name it lists must exist in the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_lsconf():
    spans = load_spans()
    listed = [(mod, name) for mod, names in spans.SPANS.values() for name in names]
    listed += list(spans.COUNTED.values())
    assert listed
    for mod, name in listed:
        assert mod == "lsconf" or mod.startswith("lsconf."), mod
        assert callable(getattr(importlib.import_module(mod), name, None)), (mod, name)
