"""Seeded benchmark inputs and the fixed job list of each workload.

Nothing here imports lsconf: random algebras come from a frozen copy of the
test-suite generator, and every input reaches lsconf as a JSON file written
by this module or by the `construct` subcommand.  Editing the tests or the
library therefore cannot move the inputs.

Random inputs come from a fixed pool of generator seeds, chosen once so that
verdicts differ and no job fails.  The benchmark seed relabels each pool
algebra by a seeded basis permutation (and seeds the `simple` trials), so
every seed gives new input files of the same isomorphism classes.  The
exact answers change with the seed; the amount of work, and each job's exit
code, do not.  The h2-sweep inputs are fixed; there the seed only orders the
jobs, as it does in every workload.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("h2-sweep", "simple-sweep", "check-sweep")

# (dim, generator seed, exit code): frozen random_algebra draws at
# POOL_DENSITY whose certificate does not hang on the randomised search, so
# the verdict is the same under every relabelling and every `simple --seed`.
POOL_DENSITY = 0.15
SIMPLE_POOL = (
    (3, 6, 1),    # lifted ideal, found from a unit vector
    (4, 2, 1),
    (5, 2, 1),
    (3, 1, 0),    # rd trivial, regular element
    (3, 5, 0),    # full envelopes, spanning star products
    (3, 11, 0),
    (4, 0, 0),
    (4, 10, 0),
    (5, 3, 0),
    (5, 7, 0),
)
# Random (ld, rd, circ) algebras that fail every checked identity, so each
# check produces a long violation list.
FAILING_POOL = ((4, 101), (5, 102))
CHECK_IDENTITIES = ("pre-gd", "quadratic-9", "pre-novikov")


@dataclass(frozen=True)
class Job:
    """One CLI invocation; `rc` is the exit code every seed must give."""

    name: str
    argv: tuple
    rc: int


# ---------------------------------------------------------------------------
# frozen copy of the random_algebra generator

def small_fraction(rng):
    return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 1, 2, 3]))


def random_tensor(rng, dim, density=0.35):
    t = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if rng.random() < density:
                    t[i][j][k] = small_fraction(rng)
    return t


def random_algebra(rng, dim, ops=("ld", "rd", "circ"), density=0.35):
    """{op: dense tensor}; each op is present with probability 0.85."""
    built = {}
    for op in ops:
        if rng.random() < 0.85:
            built[op] = random_tensor(rng, dim, density)
    return built


def permuted(ops, perm):
    """The same algebra with basis vector i renamed perm[i]."""
    out = {}
    for op, t in ops.items():
        dim = len(t)
        nt = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    nt[perm[i]][perm[j]][perm[k]] = t[i][j][k]
        out[op] = nt
    return out


# ---------------------------------------------------------------------------
# files

def algebra_doc(name, basis, ops):
    dim = len(basis)
    doc_ops = {}
    for op in sorted(ops):
        table = {}
        for i in range(dim):
            for j in range(dim):
                cell = {basis[k]: str(ops[op][i][j][k])
                        for k in range(dim) if ops[op][i][j][k]}
                if cell:
                    table[f"{basis[i]},{basis[j]}"] = cell
        if table:
            doc_ops[op] = table
    return {"name": name, "dim": dim, "basis": list(basis), "ops": doc_ops}


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def rank_two_doc():
    """L ld L = L, W ld L = W, L o W = W o L = L, W o W = L + W."""
    return {"name": "rank_two(1,1)", "dim": 2, "basis": ["L", "W"],
            "ops": {"ld": {"L,L": {"L": "1"}, "W,L": {"W": "1"}},
                    "circ": {"L,W": {"L": "1"}, "W,L": {"L": "1"},
                             "W,W": {"L": "1", "W": "1"}}}}


def two_dim_lw_doc():
    """L ld L = L, W ld L = W, L rd W = W: the worked example with H2 != 0."""
    return {"name": "two_dim_lw", "dim": 2, "basis": ["L", "W"],
            "ops": {"ld": {"L,L": {"L": "1"}, "W,L": {"W": "1"}},
                    "rd": {"L,W": {"W": "1"}}}}


def write_pool_algebra(workdir, tag, dim, gen_seed, rng, density=0.35):
    ops = random_algebra(random.Random(gen_seed), dim, density=density)
    perm = list(range(dim))
    rng.shuffle(perm)
    path = os.path.join(workdir, f"{tag}.json")
    write_json(path, algebra_doc(f"random({dim})",
                                 [f"e{i}" for i in range(dim)],
                                 permuted(ops, perm)))
    return path


# ---------------------------------------------------------------------------
# job lists

def build_jobs(workload, seed, workdir, cli):
    """Write the workload's inputs into workdir and return its job list.

    `cli(argv, stdout_path=None)` runs an lsconf command, optionally saving
    its stdout, and returns its exit code.  The binomial family is built
    through `construct` and the cocycle file through `h2`, so those inputs
    are exactly what a CLI user would produce.
    """
    rng = random.Random(seed)

    def p(name):
        return os.path.join(workdir, name)

    def pregd(n):
        z, d, out = p(f"zinbiel{n}.json"), p(f"D{n}.json"), p(f"pregd{n}.json")
        steps = (["construct", "binomial-zinbiel", "--n", str(n), "-o", z,
                  "--derivation-out", d],
                 ["construct", "zinbiel-pregd", z, "--derivation", d,
                  "--xi", "1/2", "--k", "1", "-o", out])
        for argv in steps:
            if cli(argv) != 0:
                raise RuntimeError(f"input setup failed: {' '.join(argv)}")
        return out

    if workload == "h2-sweep":
        rank_two = p("rank_two.json")
        write_json(rank_two, rank_two_doc())
        jobs = [Job(f"h2-n{n}-beta{b}",
                    ("h2", pregd(n), "--degree-cap", "3", "--beta", b, "--json"),
                    0)
                for n in (4, 5, 6) for b in ("0", "1/2")]
        jobs.append(Job("h2-rank_two", ("h2", rank_two, "--json"), 0))
        # No product of the nilpotent family spans V, so the default cap is
        # refused (exit 3) for every member.
        jobs += [Job(f"h2-n{n}-refused", ("h2", p(f"pregd{n}.json"), "--json"), 3)
                 for n in (4, 5, 6)]
    elif workload == "simple-sweep":
        jobs = []
        for k, (dim, gen_seed, rc) in enumerate(SIMPLE_POOL):
            path = write_pool_algebra(workdir, f"simple{k}", dim, gen_seed, rng,
                                      POOL_DENSITY)
            jobs.append(Job(f"simple-{k}-dim{dim}",
                            ("simple", path, "--trials", "20",
                             "--seed", str(seed), "--json"), rc))
    elif workload == "check-sweep":
        cases = [(f"pregd-n{n}", pregd(n), 0) for n in (4, 5)]
        cases += [(f"random-dim{dim}",
                   write_pool_algebra(workdir, f"fail{dim}", dim, gen_seed, rng), 1)
                  for dim, gen_seed in FAILING_POOL]
        jobs = [Job(f"check-{ident}-{tag}",
                    ("check", path, "--identity", ident, "--json"), rc)
                for ident in CHECK_IDENTITIES for tag, path, rc in cases]
        jobs.append(Job("construct-zinbiel-pregd5",
                        ("construct", "zinbiel-pregd", p("zinbiel5.json"),
                         "--derivation", p("D5.json"), "--xi", "1/2", "--k", "1",
                         "-o", p("construct_out.json"), "--json"), 0))
        lw, cocycle = p("two_dim_lw.json"), p("cocycle.json")
        write_json(lw, two_dim_lw_doc())
        write_cocycle_from_h2(cli, lw, cocycle)
        jobs.append(Job("coeff-check-lw",
                        ("coeff-check", lw, "--window", "2", "--json"), 0))
        jobs.append(Job("coeff-check-lw-cocycle",
                        ("coeff-check", lw, "--window", "2",
                         "--cocycle", cocycle, "--json"), 0))
        jobs.append(Job("lambda-pregd5",
                        ("lambda", p("pregd5.json"), "--left", "x1",
                         "--right", "x2", "--json"), 0))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def write_cocycle_from_h2(cli, algebra, path):
    """Write the first H2 representative of `algebra` as a cocycle file."""
    report = path + ".h2.json"
    if cli(["h2", algebra, "--json"], stdout_path=report) != 0:
        raise RuntimeError("input setup failed: h2 for the cocycle file")
    with open(report, encoding="utf-8") as fh:
        reps = json.load(fh)["representatives"]
    if not reps:
        raise RuntimeError("input setup failed: H2 is zero, no cocycle")
    write_json(path, reps[0])
