"""Span and counter wrappers installed on lsconf's public names.

The wrappers live here, in the benchmark, so the library carries no tracing
code.  `Tracer.install()` replaces each listed function in every lsconf
module that bound it (``from .algebras import check_identity`` makes a
second binding in cli, cohomology and ideals) and `uninstall()` puts the
originals back.  Spans (name, start, end, parent, job) are kept in memory;
the caller writes them out when the run ends.  Hot helpers are counted only,
because a span per call would cost more than the call.

A layer's self time is its span duration minus the durations of its direct
children.  Every traced call descends from one `cli.main` span, so the self
times of all span names sum to the traced job time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# span name -> (module, function names)
SPANS = {
    "cli.main": ("lsconf.cli", ("main",)),
    "files.load_algebra": ("lsconf.files", ("load_algebra",)),
    "files.dump_json": ("lsconf.files", ("dump_json",)),
    "linalg.rref": ("lsconf.linalg", ("rref",)),
    "cohomology.generate_cocycle_system": ("lsconf.cohomology",
                                           ("generate_cocycle_system",)),
    "cohomology.h2": ("lsconf.cohomology", ("h2",)),
    "algebras.check_identity": ("lsconf.algebras", ("check_identity",)),
    "conformal.check_coeff_left_symmetry": ("lsconf.conformal",
                                            ("check_coeff_left_symmetry",)),
    "conformal.lambda_product": ("lsconf.conformal", ("lambda_product",)),
    "ideals.associative_envelope": ("lsconf.ideals", ("associative_envelope",)),
    "ideals.ideal_closure": ("lsconf.ideals", ("ideal_closure",)),
    "ideals.certify_conformal_simplicity": ("lsconf.ideals",
                                            ("certify_conformal_simplicity",)),
    "constructions": ("lsconf.constructions", (
        "zinbiel_to_pre_novikov", "pre_novikov_to_pre_gd", "zinbiel_to_pre_gd",
        "ls_poisson_to_pre_gd", "comm_assoc_derivation_to_novikov_poisson",
        "truncated_binomial_zinbiel", "truncated_laurent_slice")),
}

# counter name -> (module, function name)
COUNTED = {
    "algebras.prod_basis.calls": ("lsconf.algebras", "prod_basis"),
    "algebras.eval_product.calls": ("lsconf.algebras", "eval_product"),
    "conformal.coeff_product.calls": ("lsconf.conformal", "coeff_product"),
    "linalg.mat_mul.calls": ("lsconf.linalg", "mat_mul"),
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job]
        self.counts = defaultdict(int)
        self.job = None
        self._stack = []
        self._patched = []       # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.job])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters read off arguments and results ------------------------------

    def _after_rref(self, args, kwargs, result):
        rows = args[0]
        c = self.counts
        c["linalg.rref.calls"] += 1
        c["linalg.rref.rows_in"] += len(rows)
        c["linalg.rref.nonzero_rows_in"] += sum(1 for r in rows if any(r))
        c["linalg.rref.pivots"] += len(result[1])

    def _after_cocycle_system(self, args, kwargs, result):
        self.counts["cohomology.rows_out"] += len(result)

    def _after_check_identity(self, args, kwargs, result):
        self.counts["algebras.check_identity.calls"] += 1

    def _after_coeff_check(self, args, kwargs, result):
        alg, window = args[0], args[1]
        self.counts["conformal.coeff.enumerated"] += (
            alg.dim ** 3 * (2 * window + 1) ** 3)
        self.counts["conformal.coeff.skipped"] += result.skipped

    def _after_closure(self, args, kwargs, result):
        self.counts["ideals.ideal_closure.calls"] += 1

    def _after_dump(self, args, kwargs, result):
        self.counts["files.bytes_out"] += len(result.encode("utf-8"))

    def _envelope(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            before = counts["linalg.mat_mul.calls"]
            result = fn(*args, **kwargs)
            counts["ideals.envelope.mat_mul"] += (
                counts["linalg.mat_mul.calls"] - before)
            counts["ideals.envelope.accepted"] += result.dim - 1
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lsconf"
                                   or mod_name.startswith("lsconf.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        after = {"linalg.rref": self._after_rref,
                 "cohomology.generate_cocycle_system": self._after_cocycle_system,
                 "algebras.check_identity": self._after_check_identity,
                 "conformal.check_coeff_left_symmetry": self._after_coeff_check,
                 "ideals.ideal_closure": self._after_closure,
                 "files.dump_json": self._after_dump}
        for name, (mod_name, fn_names) in COUNTED.items():
            fn = getattr(sys.modules[mod_name], fn_names)
            self._replace_everywhere(fn, self._counted(name, fn))
        for name, (mod_name, fn_names) in SPANS.items():
            for fn_name in fn_names:
                fn = getattr(sys.modules[mod_name], fn_name)
                wrapped = fn
                if name == "ideals.associative_envelope":
                    wrapped = self._envelope(fn)
                self._replace_everywhere(fn, self._span(name, wrapped,
                                                        after.get(name)))
        subspace = sys.modules["lsconf.linalg"].Subspace
        init = subspace.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["linalg.subspace.builds"] += 1
            init(obj, *args, **kwargs)

        self._patched.append((subspace, "__init__", init))
        subspace.__init__ = counted_init

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def self_times(self, job_scale):
        """{span name: self seconds}, each span scaled by job_scale[job]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, parent, job) in enumerate(self.spans):
            out[name] += (end - start - child[k]) * job_scale[job]
        return out
