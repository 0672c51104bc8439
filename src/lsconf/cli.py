"""Command-line front end.

Exit codes are a contract shared by every subcommand:
0 pass/success, 1 negative finding, 2 input error, 3 guarded refusal,
4 inconclusive, 70 internal error (a broken invariant: a defect in lsconf,
never a finding about the input).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from fractions import Fraction

from .algebras import AlgebraError, IdentityError, check_identity, normalize_identity_id
from .cohomology import CohomologyError, SpanningConditionError, h2
from .conformal import (ModuleElement, build_current, build_rank_one,
                        check_coeff_left_symmetry, format_lambda_poly,
                        lambda_product)
from .constructions import (ConstructionDefect,
                            comm_assoc_derivation_to_novikov_poisson,
                            ls_poisson_to_pre_gd, pre_novikov_to_pre_gd,
                            truncated_binomial_zinbiel, zinbiel_to_pre_gd,
                            zinbiel_to_pre_novikov)
from .files import (FileFormatError, _write_json, algebra_to_json, cocycle_to_json, dump_json,
                    file_sha256, load_algebra, load_cocycle, load_matrix, matrix_to_json,
                    parse_rational)
from .ideals import IdealVerificationError, TrivialAlgebra, certify_conformal_simplicity
from .linalg import LinalgError, Subspace

PASS, FAIL, INPUT_ERROR, REFUSED, INCONCLUSIVE, INTERNAL_ERROR = 0, 1, 2, 3, 4, 70


def _err(msg):
    print(f"error: {msg}", file=sys.stderr)


def _cli_rational(text):
    """A rational flag in the file grammar (files.parse_rational)."""
    try:
        return parse_rational(text)
    except FileFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cli_count(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _emit(args, doc, text_lines):
    """Print doc as JSON under --json, else the lines that text_lines()
    returns: the text is built only when it is printed."""
    text = (dump_json(doc) if getattr(args, "json", False)
            else "".join(line + "\n" for line in text_lines()))
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; the exit code still carries the verdict.  Point
        # stdout at devnull so that the interpreter's last flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _load_input(args):
    """The algebra in args.file and the header of the command's report,
    whose sha256 is that of the very bytes the algebra was parsed from, so a
    file rewritten during a long run cannot change the hash."""
    digest = hashlib.sha256()
    alg = load_algebra(args.file, digest=digest)
    return alg, {"command": args.command, "input": args.file,
                 "input_sha256": digest.hexdigest()}


def _load_cocycle(args, alg):
    """The --cocycle family, or None without the flag."""
    return load_cocycle(args.cocycle, alg.dim) if args.cocycle else None


def _violation_lines(violations, line, limit=5):
    """line(v) for the first `limit` violations, then how many are left."""
    lines = [line(v) for v in violations[:limit]]
    if len(violations) > limit:
        lines.append(f"  ... and {len(violations) - limit} more")
    return lines


def cmd_check(args):
    alg, doc = _load_input(args)
    aux = load_matrix(args.derivation, alg.dim) if args.derivation else None
    ident = normalize_identity_id(args.identity)
    report = check_identity(alg, ident, aux=aux)
    doc.update(identity=ident, passed=report.passed, skipped=report.skipped,
               violations=[{"identity": label,
                            "at": [alg.basis[i] for i in idx],
                            "residual": [str(x) for x in residual]}
                           for label, idx, residual in report.violations])
    if report.passed:
        _emit(args, doc, lambda: [f"PASS {ident} on {alg.name}"])
        return PASS
    _emit(args, doc, lambda: [f"FAIL {ident} on {alg.name}"] + _violation_lines(
        doc["violations"], lambda v: f"  {v['identity']} at ({','.join(map(str, v['at']))}): "
                                     f"residual [{', '.join(v['residual'])}]"))
    return FAIL


def family_text(alg, fam):
    cap = fam.degree_cap
    parts = []
    for i in range(cap, -1, -1):
        for a in range(alg.dim):
            for b in range(alg.dim):
                v = fam.forms[i][a][b]
                if v:
                    parts.append(f"alpha_{i}({alg.basis[a]},{alg.basis[b]}) = {v}")
    return ", ".join(parts) if parts else "0"


def cmd_h2(args):
    alg, doc = _load_input(args)
    result = h2(alg, args.beta, degree_cap=args.degree_cap)

    def text_lines():
        lines = [f"beta = {result.beta}",
                 f"degree cap = {result.degree_cap}",
                 "spanning products: " + (", ".join(result.spanning) or "none")]
        if result.cap_limited:
            lines.append("note: no product spans V; results cover cocycles of "
                         f"degree <= {result.degree_cap} only")
        lines += [f"dim Z2 = {result.dim_Z2}",
                  f"dim B2 = {result.dim_B2}",
                  f"dim H2 = {result.dim_H2}"]
        for k, fam in enumerate(result.representatives, 1):
            lines.append(f"representative {k}: {family_text(alg, fam)}")
        return lines

    doc.update(beta=str(result.beta), degree_cap=result.degree_cap,
               cap_limited=result.cap_limited, spanning=list(result.spanning),
               dim_Z2=result.dim_Z2, dim_B2=result.dim_B2, dim_H2=result.dim_H2,
               representatives=[cocycle_to_json(f) for f in result.representatives])
    _emit(args, doc, text_lines)
    return PASS


def _witness_doc(witness):
    if witness is None:
        return None
    if isinstance(witness, Subspace):
        return {"ideal_basis": [[str(x) for x in row] for row in witness.basis]}
    return {"element": [str(x) for x in witness]}


def _witness_text(alg, doc):
    """The text line of a _witness_doc."""
    if doc is None:
        return "none"
    if "ideal_basis" in doc:
        return "ideal with basis " + ", ".join(f"[{', '.join(row)}]" for row in doc["ideal_basis"])
    terms = [label if c == "1" else f"{c}*{label}"
             for label, c in zip(alg.basis, doc["element"]) if c != "0"]
    return "element " + (" + ".join(terms) or "0")


def cmd_simple(args):
    alg, doc = _load_input(args)
    cert = certify_conformal_simplicity(alg, trials=args.trials, rng_seed=args.seed)
    doc.update(seed=args.seed, trials=args.trials, verdict=cert.verdict,
               criterion=cert.criterion, witness=_witness_doc(cert.witness),
               details=list(cert.details))
    _emit(args, doc, lambda: [f"verdict: {cert.verdict}",
                              f"criterion: {cert.criterion}",
                              f"witness: {_witness_text(alg, doc['witness'])}",
                              f"seed = {args.seed}, trials = {args.trials}",
                              *(f"  {d}" for d in cert.details)])
    if cert.verdict == "simple":
        return PASS
    if cert.verdict == "not_simple":
        return FAIL
    return INCONCLUSIVE


# kind -> (reads the positional file, the flags it needs, builder).  A builder
# takes the file's algebra, the --derivation matrix (each None when the kind
# reads neither) and args, and returns the algebra and the derivation to
# write with --derivation-out, if any.
CONSTRUCT_KINDS = {
    "zinbiel-pn": (True, ("derivation", "xi"),
                   lambda alg, D, a: (zinbiel_to_pre_novikov(alg, D, a.xi), None)),
    "pn-pregd": (True, ("k",), lambda alg, D, a: (pre_novikov_to_pre_gd(alg, a.k), None)),
    "zinbiel-pregd": (True, ("derivation", "xi", "k"),
                      lambda alg, D, a: (zinbiel_to_pre_gd(alg, D, a.xi, a.k), None)),
    "lsp-pregd": (True, (), lambda alg, D, a: (ls_poisson_to_pre_gd(alg), None)),
    "ca-np": (True, ("derivation",),
              lambda alg, D, a: (comm_assoc_derivation_to_novikov_poisson(alg, D), None)),
    "rank-one": (False, ("c",), lambda alg, D, a: (build_rank_one(a.c), None)),
    "current": (True, (), lambda alg, D, a: (build_current(alg), None)),
    "binomial-zinbiel": (False, ("n",), lambda alg, D, a: truncated_binomial_zinbiel(a.n)),
}


def _construct_algebra(args):
    reads_file, flags, build = CONSTRUCT_KINDS[args.kind]
    alg = D = None
    if reads_file:
        if args.file is None:
            raise FileFormatError(f"construct kind {args.kind!r} needs the positional "
                                  "file argument")
        alg = load_algebra(args.file)
    for flag in flags:
        if getattr(args, flag) is None:
            raise FileFormatError(f"construct kind {args.kind!r} needs --{flag}")
    if "derivation" in flags:
        D = load_matrix(args.derivation, alg.dim)
    return build(alg, D, args)


def cmd_construct(args):
    try:
        alg, D = _construct_algebra(args)
    except IdentityError as exc:
        _err(str(exc))
        return FAIL
    outputs = [(algebra_to_json(alg), args.output)]
    if D is not None and args.derivation_out:
        outputs.append((matrix_to_json(D), args.derivation_out))
    _write_json(*outputs)
    doc = {"command": "construct", "kind": args.kind, "output": args.output,
           "output_sha256": file_sha256(args.output),
           "name": alg.name, "dim": alg.dim}
    _emit(args, doc, lambda: [f"wrote {args.output} ({alg.name}, dim {alg.dim})"])
    return PASS


def cmd_lambda(args):
    alg, doc = _load_input(args)
    for label in (args.left, args.right):
        if label not in alg.basis:
            raise FileFormatError(f"unknown basis label {label!r}")
    x = ModuleElement.basis(alg.index(args.left))
    y = ModuleElement.basis(alg.index(args.right))
    poly = lambda_product(alg, x, y, cocycle=_load_cocycle(args, alg), beta=args.beta)
    rendered = format_lambda_poly(poly, alg.basis)
    doc.update(left=args.left, right=args.right, beta=str(args.beta), result=rendered)
    _emit(args, doc, lambda: [rendered])
    return PASS


def cmd_coeff_check(args):
    alg, doc = _load_input(args)
    report = check_coeff_left_symmetry(alg, args.window, cocycle=_load_cocycle(args, alg),
                                       beta=args.beta)
    violations = []
    for idx, exps, residual in report.violations:
        # a residual's central term is keyed ("central",), its others (k, exponent)
        terms = dict(residual)
        central = terms.pop(("central",), 0)
        violations.append({"basis": [alg.basis[i] for i in idx], "exponents": list(exps),
                           "residual": [[alg.basis[k], e, str(v)] for (k, e), v in terms.items()],
                           "central": str(central)})
    doc.update(window=args.window, passed=report.passed, skipped=report.skipped,
               violations=violations)

    def line(v):
        terms = ", ".join(f"{label} t^{e}: {x}" for label, e, x in v["residual"])
        return (f"  at ({','.join(v['basis'])}) exponents ({','.join(map(str, v['exponents']))}): "
                f"residual [{terms}], central {v['central']}")

    status = "PASS" if report.passed else "FAIL"
    beta = f", beta {args.beta}" if args.beta else ""
    _emit(args, doc, lambda: [f"{status} coefficient left-symmetry on {alg.name} "
                              f"(window {args.window}{beta}, skipped {report.skipped})"]
          + _violation_lines(violations, line))
    return PASS if report.passed else FAIL


@functools.cache
def build_parser():
    """The lsconf argument parser, built on the first call and shared by
    every later call in the process: callers must not mutate it.

    Sharing is safe because parse_args returns a fresh Namespace, prog is
    fixed and every default is immutable.  The cmd_* handlers are bound
    when the parser is built, but they look up the library functions they
    call (h2, load_algebra, ...) when they run, so replacing one of those
    module attributes still takes effect."""
    p = argparse.ArgumentParser(
        prog="lsconf",
        description="Exact checks for pre-Novikov, pre-Gelfand-Dorfman and "
                    "quadratic left-symmetric conformal structures.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify an identity system on an algebra file")
    c.add_argument("file")
    c.add_argument("--identity", required=True)
    c.add_argument("--derivation", help="matrix file for derivation checks")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("h2", help="second cohomology of the quadratic "
                                  "conformal algebra")
    c.add_argument("file")
    c.add_argument("--beta", type=_cli_rational, default=Fraction(0))
    c.add_argument("--degree-cap", type=_cli_count, default=None)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_h2)

    c = sub.add_parser("simple", help="certify conformal simplicity")
    c.add_argument("file")
    c.add_argument("--trials", type=_cli_count, default=20,
                   help="random candidates for the regular-element rule only")
    c.add_argument("--seed", type=int, default=0, help="seed of those candidates")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_simple)

    c = sub.add_parser("construct", help="build and verify a derived algebra")
    c.add_argument("kind", choices=list(CONSTRUCT_KINDS))
    c.add_argument("file", nargs="?")
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--c", type=_cli_rational)
    c.add_argument("--n", type=int)
    c.add_argument("--k", type=_cli_rational)
    c.add_argument("--xi", type=_cli_rational)
    c.add_argument("--derivation")
    c.add_argument("--derivation-out")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_construct)

    c = sub.add_parser("lambda", help="print one lambda-product")
    c.add_argument("file")
    c.add_argument("--left", required=True)
    c.add_argument("--right", required=True)
    c.add_argument("--beta", type=_cli_rational, default=Fraction(0))
    c.add_argument("--cocycle")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_lambda)

    c = sub.add_parser("coeff-check", help="left-symmetry of the windowed "
                                           "coefficient algebra")
    c.add_argument("file")
    c.add_argument("--window", type=_cli_count, required=True)
    c.add_argument("--beta", type=_cli_rational, default=Fraction(0))
    c.add_argument("--cocycle")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_coeff_check)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    # inputs are bounded by files.MAX_DIGITS, but an answer computed from
    # them can have more digits than the interpreter's int/str conversion
    # limit, and must still be printed
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except SpanningConditionError as exc:
        _err(str(exc))
        return REFUSED
    except (FileFormatError, AlgebraError, LinalgError, TrivialAlgebra, ValueError) as exc:
        _err(str(exc))
        return INPUT_ERROR
    except (CohomologyError, IdealVerificationError, ConstructionDefect) as exc:
        _err(f"internal: {exc}")
        return INTERNAL_ERROR
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
