"""Smoke test of the benchmark itself: one short pass per workload.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import subprocess
import sys

import pytest

import run

ROOT = os.path.dirname(run.HERE)
with open(os.path.join(ROOT, run.BENCHMARK_PATH), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_and_answers(workload):
    result = bench(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_per_layer_metrics_account_for_the_traced_pass():
    result = bench("check-sweep", 1)
    assert_metrics(result, SPEC["per_layer"])
    assert result["correct"]
    attributed = result["metrics"]["trace.attributed_ratio"]["value"]
    assert 0.95 < attributed <= 1.0


def test_corrupted_expected_hash_counts_as_failure():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(run.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    job = sorted(expected["check-sweep"])[0]
    expected["check-sweep"][job] = "0" * 64
    values, record = run.run_benchmark(ROOT, "check-sweep", run.DEFAULT_SEED,
                                       0, 0, expected)
    assert record["failures"] and {f["job"] for f in record["failures"]} == {job}
    assert values["ok_ratio"] < 1.0
    assert not run.result_line(SPEC, 0, values, record)["correct"]
