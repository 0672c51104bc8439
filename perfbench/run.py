"""Reference-normalised end-to-end benchmark of the lsconf CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload h2-sweep --seed 0 --seconds 40 --trace 0

The inputs are generated from --seed (see inputs.py) before any timing.
Then `lsconf.cli.main(argv)` is driven in-process over the workload's fixed
job list: a closed loop with one client and no threads, in passes
(A B C, A B C, ...) until --seconds are spent, so each job's repeats spread
across the machine's speed phases.  Every job time is divided by the mean of
the reference task timed just before and just after it and multiplied by
reference.NOMINAL_REF_S ("normalised seconds").

Every answer is checked: the exit code must be the job's pinned code, and
the sha256 of its --json document (run-dependent fields stripped) must equal
expected.json at the default seed, or agree across all passes and cold
starts of the run at any other seed.

The last line of stdout is one JSON object.  With --trace 0 its metrics are
the end-to-end ones of BENCHMARK.json: sweep_s, job_p50_s, setup_s,
max_rss_mb and ok_ratio.  With --trace 1, untraced and traced passes
alternate and the metrics are the per-layer ones (see layer_metrics) plus
the run diagnostics.  Per-run records
(hashes, per-job times, failures, spans) go to perfbench/work/records/.

`python3 perfbench/run.py --write-expected` re-records expected.json from
one pass of every workload at the default seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import inputs
from reference import NOMINAL_REF_S, reference_task
from spans import SPANS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORK_DIR = os.path.join(HERE, "work")
DEFAULT_SEED = 0
COLD_STARTS = 15
# Top-level report fields that depend on the run directory or on timing,
# not on the answer.
VOLATILE_KEYS = ("input", "output", "stats", "provenance", "timing")
# The workload's cheapest job, run in a fresh process for setup_s.
COLD_START_JOB = {"h2-sweep": "h2-n4-refused",
                  "simple-sweep": "simple-0-dim3",
                  "check-sweep": "lambda-pregd5"}
# Names and units of the printed metrics come from BENCHMARK.json at the
# root of the checkout; this module computes a value for each name.
BENCHMARK_PATH = "BENCHMARK.json"


def answer_hash(stdout):
    """sha256 of a report with its run-dependent fields removed."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if k not in VOLATILE_KEYS}
        stdout = json.dumps(doc, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def timed_reference():
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


def ratio(num, den):
    return num / den if den else 0.0


class Bench:
    """One run: the job list, the answer gate and every timing taken."""

    def __init__(self, root, workload, seed, expected):
        self.root, self.workload, self.seed = root, workload, seed
        self.expected = expected
        self.cli = importlib.import_module("lsconf.cli")
        self.refs = []
        self.hashes = {}
        self.attempted = 0
        self.failures = []
        os.makedirs(WORK_DIR, exist_ok=True)
        self.workdir = os.path.join(WORK_DIR,
                                    f"inputs-{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        try:
            self.jobs = inputs.build_jobs(workload, seed, self.workdir,
                                          self.setup_cli)
        except BaseException:
            self.close()
            raise

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- running lsconf ---------------------------------------------------------

    def call(self, argv):
        """(seconds, exit code or None, stdout, error text) of one command."""
        out, err = io.StringIO(), io.StringIO()
        error = ""
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:  # argparse refused the command line
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                rc, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
        return elapsed, rc, out.getvalue(), error or err.getvalue()

    def setup_cli(self, argv, stdout_path=None):
        _, rc, stdout, error = self.call(argv)
        if rc is None:
            raise RuntimeError(f"input setup crashed: {' '.join(argv)}\n{error}")
        if stdout_path:
            with open(stdout_path, "w", encoding="utf-8") as fh:
                fh.write(stdout)
        return rc

    def check(self, job, rc, stdout, where, error=""):
        """Count one job run; record it as failed if the answer is wrong."""
        self.attempted += 1
        digest = answer_hash(stdout)
        reason = None
        if rc is None:
            reason = "uncaught exception"
        elif rc != job.rc:
            reason = f"exit code {rc}, expected {job.rc}"
        elif self.expected is not None and self.seed == DEFAULT_SEED:
            want = self.expected.get(self.workload, {}).get(job.name)
            if digest != want:
                reason = f"answer hash {digest[:12]}, expected {str(want)[:12]}"
        if reason is None:
            first = self.hashes.setdefault(job.name, digest)
            if digest != first:
                reason = f"answer hash {digest[:12]} differs from {first[:12]}"
        if reason is not None:
            self.failures.append({"job": job.name, "where": where,
                                  "reason": reason, "error": error[-2000:]})

    def timed_pass(self, label, tracer=None):
        """Run every job once between reference timings.

        Returns {job name: (raw seconds, normalised seconds, scale)}; with a
        tracer, its spans are tagged with the job's index.
        """
        out = {}
        before = timed_reference()
        self.refs.append(before)
        for idx, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = idx
            # Every job starts from the same collector state, so a full
            # collection left over from an earlier job never lands in it.
            gc.collect()
            elapsed, rc, stdout, error = self.call(job.argv)
            after = timed_reference()
            self.refs.append(after)
            scale = NOMINAL_REF_S / ((before + after) / 2)
            out[job.name] = (elapsed, elapsed * scale, scale)
            self.check(job, rc, stdout, label, error)
            before = after
        return out

    def cold_starts(self):
        """Normalised wall times of fresh `python -m lsconf.cli` processes."""
        job = next(j for j in self.jobs if j.name == COLD_START_JOB[self.workload])
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-m", "lsconf.cli", *job.argv]
        times = []
        before = timed_reference()
        self.refs.append(before)
        for k in range(COLD_STARTS):
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True,
                                  text=True, timeout=120)
            elapsed = time.perf_counter() - start
            after = timed_reference()
            self.refs.append(after)
            times.append(elapsed * NOMINAL_REF_S / ((before + after) / 2))
            self.check(job, proc.returncode, proc.stdout, f"cold start {k}",
                       proc.stderr)
            before = after
        return times

    # -- measurement ------------------------------------------------------------

    def passes(self, seconds, traced):
        """Run passes until the next one would end after `seconds`.

        With traced=True, untraced and traced passes alternate; returns
        (untraced passes, [(traced pass, tracer)]).
        """
        plain, traced_passes = [], []
        start = time.perf_counter()
        while True:
            plain.append(self.timed_pass(f"pass {len(plain)}"))
            if traced:
                tracer = Tracer()
                tracer.install()
                try:
                    result = self.timed_pass(f"traced pass {len(traced_passes)}",
                                             tracer)
                finally:
                    tracer.uninstall()
                traced_passes.append((result, tracer))
            spent = time.perf_counter() - start
            if spent + spent / len(plain) > seconds:
                return plain, traced_passes


def job_medians(passes, field):
    names = passes[0].keys()
    return {n: statistics.median(p[n][field] for p in passes) for n in names}


# Per-layer metric -> the end-to-end metric it should move, and where:
#   linalg.rref.{self_s,calls,rows_in,rank_ratio}, linalg.subspace.builds
#       sweep_s and max_rss_mb on h2-sweep (few tall batch eliminations),
#       sweep_s on simple-sweep (many small incremental Subspace rebuilds);
#       nothing on check-sweep.
#   cohomology.{generate_cocycle_system.self_s,rows_out,h2.self_s}
#       sweep_s and job_p50_s on h2-sweep.
#   algebras.check_identity.{self_s,calls}, algebras.{prod_basis,eval_product}.calls
#       sweep_s on check-sweep, a minor share of h2-sweep.
#   conformal.{check_coeff_left_symmetry.self_s,coeff_product.calls,
#              coeff.skip_ratio,lambda_product.self_s}
#       sweep_s on check-sweep.
#   ideals.{associative_envelope.self_s,envelope.accept_ratio,
#           ideal_closure.self_s,ideal_closure.calls,
#           certify_conformal_simplicity.self_s}
#       sweep_s and job_p50_s on simple-sweep.
#   constructions.self_s
#       sweep_s on check-sweep.
#   files.{load_algebra.self_s,dump_json.self_s,bytes_out}, cli.main.self_s
#       job_p50_s on check-sweep, setup_s on every workload.
#   run.{wall_s,ref_s,ref_spread}, trace.{overhead_ratio,attributed_ratio}
#       diagnostics that gate nothing.
COUNTS = ("linalg.rref.calls", "linalg.rref.rows_in", "linalg.subspace.builds",
          "cohomology.rows_out", "algebras.check_identity.calls",
          "algebras.prod_basis.calls", "algebras.eval_product.calls",
          "conformal.coeff_product.calls", "ideals.ideal_closure.calls",
          "files.bytes_out")


def layer_metrics(bench, result, tracer, plain_sweep):
    """Per-layer values of one traced pass, times in normalised seconds."""
    c = tracer.counts
    self_s = tracer.self_times([result[job.name][2] for job in bench.jobs])
    sweep = sum(v[1] for v in result.values())
    m = {f"{name}.self_s": self_s.get(name, 0.0) for name in SPANS}
    m.update((name, c[name]) for name in COUNTS)
    m["linalg.rref.rank_ratio"] = ratio(c["linalg.rref.pivots"],
                                        c["linalg.rref.nonzero_rows_in"])
    m["conformal.coeff.skip_ratio"] = ratio(c["conformal.coeff.skipped"],
                                            c["conformal.coeff.enumerated"])
    m["ideals.envelope.accept_ratio"] = ratio(c["ideals.envelope.accepted"],
                                              c["ideals.envelope.mat_mul"])
    m["trace.overhead_ratio"] = ratio(sweep, plain_sweep)
    m["trace.attributed_ratio"] = ratio(sum(self_s.values()), sweep)
    return m


def run_benchmark(root, workload, seed, seconds, trace, expected):
    """Measure one workload; returns ({metric: value}, record for the log)."""
    wall_start = time.perf_counter()
    bench = Bench(root, workload, seed, expected)
    try:
        setup = [] if trace else bench.cold_starts()
        plain, traced = bench.passes(seconds, bool(trace))
    finally:
        bench.close()
    norm = job_medians(plain, 1)
    raw = job_medians(plain, 0)
    refs = sorted(bench.refs)
    q1, ref_med, q3 = statistics.quantiles(refs, n=4)
    diagnostics = {"run.wall_s": sum(raw.values()),
                   "run.ref_s": ref_med,
                   "run.ref_spread": (q3 - q1) / ref_med,
                   "run.elapsed_s": time.perf_counter() - wall_start,
                   "passes": len(plain), "jobs": len(bench.jobs),
                   "reference_calls": len(refs)}
    if trace:
        plain_sweep = statistics.median(sum(v[1] for v in p.values()) for p in plain)
        per_pass = [layer_metrics(bench, r, t, plain_sweep) for r, t in traced]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        values.update({k: diagnostics[k]
                       for k in ("run.wall_s", "run.ref_s", "run.ref_spread")})
    else:
        values = {"sweep_s": sum(norm.values()),
                  "job_p50_s": statistics.median(norm.values()),
                  "setup_s": statistics.median(setup),
                  "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "ok_ratio": ratio(bench.attempted - len(bench.failures),
                                    bench.attempted)}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "diagnostics": diagnostics,
              "attempted": bench.attempted, "failures": bench.failures,
              "jobs": [{"name": j.name, "argv": list(j.argv),
                        "rc": j.rc, "sha256": bench.hashes.get(j.name),
                        "norm_s": norm[j.name], "raw_s": raw[j.name]}
                       for j in bench.jobs],
              "pass_sweeps_s": [sum(v[1] for v in p.values()) for p in plain],
              "setup_norm_s": setup, "values": values}
    if trace:
        record["spans"] = [s for _, t in traced for s in t.spans]
    return values, record


def result_line(spec, trace, values, record):
    """The JSON object printed as the last line of stdout."""
    metrics = spec["per_layer" if trace else "end_to_end"]
    return {"correct": not record["failures"], "attempted": record["attempted"],
            "failed": len(record["failures"]),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in metrics}}


def write_record(record):
    rec_dir = os.path.join(WORK_DIR, "records")
    os.makedirs(rec_dir, exist_ok=True)
    path = os.path.join(rec_dir, f"{record['workload']}-seed{record['seed']}-"
                                 f"trace{record['trace']}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


def load_lsconf(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lsconf", "cli.py")):
        sys.exit(f"error: no lsconf sources under {src}; run from the root "
                 "of an lsconf checkout")
    sys.path.insert(0, src)


def write_expected(root):
    expected = {}
    for workload in inputs.WORKLOADS:
        _, record = run_benchmark(root, workload, DEFAULT_SEED, 0, 0, None)
        if record["failures"]:
            sys.exit(f"error: {workload} failed: {record['failures']}")
        expected[workload] = {j["name"]: j["sha256"] for j in record["jobs"]}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(expected, sort_keys=True, indent=2) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-expected", action="store_true")
    args = p.parse_args(argv)
    root = os.getcwd()
    load_lsconf(root)
    # The reference task only tracks the speed of the CPU it runs on, so the
    # benchmark and the cold-start processes it spawns share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.write_expected:
        write_expected(root)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    with open(os.path.join(root, BENCHMARK_PATH), encoding="utf-8") as fh:
        spec = json.load(fh)
    values, record = run_benchmark(root, args.workload, args.seed, args.seconds,
                                   args.trace, expected)
    path = write_record(record)
    d = record["diagnostics"]
    print(f"{args.workload} seed {args.seed}: {d['jobs']} jobs x {d['passes']} "
          f"passes, raw sweep {d['run.wall_s']:.3f} s, reference median "
          f"{d['run.ref_s'] * 1000:.2f} ms (IQR/median {d['run.ref_spread']:.3f}), "
          f"{len(record['failures'])} failed; record {path}", file=sys.stderr)
    for failure in record["failures"]:
        print(f"FAILED {failure['job']} ({failure['where']}): "
              f"{failure['reason']}", file=sys.stderr)
    print(json.dumps(result_line(spec, args.trace, values, record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
