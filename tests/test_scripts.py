"""The example scripts print exactly the recorded answers in tests/golden."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["simplicity_examples", "h2_examples"])
def test_example_script_output_is_unchanged(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{script}.py")],
                         cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "tests" / "golden" / f"{script}.out").read_bytes()
