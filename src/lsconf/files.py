"""JSON file formats: algebras, derivation matrices, cocycle families.

Algebra files are sparse and label-keyed so that small examples diff
cleanly:

    {"name": "...", "dim": 2, "basis": ["L", "W"],
     "ops": {"ld": {"L,L": {"L": "1"}, "W,L": {"W": "1"}}}}

A label is a string with no "," that equals its own strip(), so that a
pair key carries any two; load and save both refuse other labels.
Derivations {"matrix": rows} and cocycle forms {"degree_cap": cap,
"forms": [rows, ...]} are square in the dimension their loader is given.

Rationals travel as strings matching -?digits[/digits]; they are
canonicalized on load, so load -> save -> load is identity on the
canonical spec.  A numeral (a JSON integer, or the numerator or the
denominator of a rational string) has at most MAX_DIGITS digits; a longer
one is refused with its location.  That is lsconf's own rule, so it holds
whatever the interpreter's int/str conversion limit is set to.

Every JSON we write, files and --json reports alike, goes through one
direct writer, `dump_json`, whose bytes equal those of
json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) plus a
newline.  It takes only str-keyed dicts, lists, tuples, strings, ints,
bools and None; anything else (a float or a Fraction, say) is a defect
and raises TypeError.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from fractions import Fraction
from json.encoder import encode_basestring

from .algebras import AlgebraSpec, LinearMapSpec
from .cohomology import CocycleFamily
from .linalg import ZERO

RATIONAL_RE = re.compile(r"-?\d+(/\d+)?$")
# CPython's default int/str conversion limit
MAX_DIGITS = 4300

FILE_OPS = ("ld", "rd", "circ", "dot")


class FileFormatError(Exception):
    def __init__(self, message, location=None):
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)
        self.location = location


def parse_rational(text, location=None):
    if not isinstance(text, str) or not RATIONAL_RE.match(text):
        raise FileFormatError(f"not a rational string: {text!r}", location)
    if len(text) > MAX_DIGITS and any(len(part) > MAX_DIGITS
                                      for part in text.lstrip("-").split("/")):
        raise FileFormatError(f"a numeral has more than {MAX_DIGITS} digits", location)
    if "/" in text and text.split("/")[1].lstrip("0") == "":
        raise FileFormatError(f"zero denominator: {text!r}", location)
    return Fraction(text)


def _rational_cell(value, location):
    """Accept rational strings and plain JSON integers."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    return parse_rational(value, location)


def _parse_int(text):
    """json's parse_int hook: an integer literal, with at most MAX_DIGITS
    digits."""
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"an integer has more than {MAX_DIGITS} digits")
    return int(text)


def _load_json(path, digest=None):
    """The JSON object in path, read once; digest (a hashlib object), when
    given, is updated with exactly the bytes that were parsed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FileFormatError(str(exc), path) from exc
    if digest is not None:
        digest.update(data)
    try:
        doc = json.loads(data.decode("utf-8"), parse_int=_parse_int)
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not UTF-8: {exc}", path) from exc
    except ValueError as exc:  # a JSONDecodeError, or an over-long integer
        raise FileFormatError(f"invalid JSON: {exc}", path) from exc
    if not isinstance(doc, dict):
        raise FileFormatError("top-level JSON value must be an object", path)
    return doc


def load_algebra(path, digest=None):
    """The algebra in path; digest as in _load_json."""
    doc = _load_json(path, digest)
    for key in ("name", "dim", "basis"):
        if key not in doc:
            raise FileFormatError(f"missing field {key!r}", path)
    name, dim, basis = doc["name"], doc["dim"], doc["basis"]
    if not isinstance(name, str):
        raise FileFormatError("name must be a string", "name")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError("dim must be a positive integer", "dim")
    if not isinstance(basis, list) or len(basis) != dim:
        raise FileFormatError("basis must list dim label strings", "basis")
    _check_labels(basis)
    if len(set(basis)) != dim:
        raise FileFormatError("basis labels must be distinct", "basis")
    index = {lab: i for i, lab in enumerate(basis)}
    tables = doc.get("ops", {})
    if not isinstance(tables, dict):
        raise FileFormatError("ops must be an object", "ops")
    ops = {}
    for op, table in tables.items():
        if op not in FILE_OPS:
            raise FileFormatError(f"unknown op {op!r}", f"ops.{op}")
        tensor = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        if not isinstance(table, dict):
            raise FileFormatError("op table must be an object", f"ops.{op}")
        for pair, cell in table.items():
            parts = [p.strip() for p in pair.split(",")]
            if len(parts) != 2 or not all(p in index for p in parts):
                raise FileFormatError(f"bad basis pair {pair!r}", f"ops.{op}.{pair}")
            i, j = index[parts[0]], index[parts[1]]
            if not isinstance(cell, dict):
                raise FileFormatError("entry must map labels to rationals",
                                      f"ops.{op}.{pair}")
            for lab, val in cell.items():
                if lab not in index:
                    raise FileFormatError(f"unknown label {lab!r}",
                                          f"ops.{op}.{pair}.{lab}")
                tensor[i][j][index[lab]] = _rational_cell(
                    val, f"ops.{op}.{pair}.{lab}")
        ops[op] = tensor
    return AlgebraSpec(name, dim, tuple(basis), ops)


def _check_labels(basis):
    """The one label rule, checked on load and before any save."""
    if not all(isinstance(b, str) and "," not in b and b == b.strip() for b in basis):
        raise FileFormatError("basis labels must be strings with no ',' and no "
                              "surrounding whitespace", "basis")


def algebra_to_json(alg):
    _check_labels(alg.basis)
    ops = {}
    for op in sorted(alg.ops):
        if op not in FILE_OPS:
            raise FileFormatError(f"op {op!r} has no file representation", op)
        table = {}
        t = alg.ops[op]
        for i in range(alg.dim):
            for j in range(alg.dim):
                cell = {alg.basis[k]: str(t[i][j][k])
                        for k in range(alg.dim) if t[i][j][k]}
                if cell:
                    table[f"{alg.basis[i]},{alg.basis[j]}"] = cell
        if table:
            ops[op] = table
    return {"name": alg.name, "dim": alg.dim,
            "basis": list(alg.basis), "ops": ops}


def dump_json(doc):
    """The byte-stable rendering used for every JSON we write."""
    out = []
    _dump(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _dump(x, out, nl):
    """Append the chunks of x to out; nl is a newline and x's indent."""
    if isinstance(x, str):
        out.append(encode_basestring(x))
    elif x is None or x is True or x is False:
        out.append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, (list, tuple)):
        inner = nl + "  "
        if not x:
            out.append("[]")
            return
        try:
            # a list of strings in one join; encode_basestring refuses
            # anything else, and then the items go one by one
            out.append("[" + inner + ("," + inner).join(map(encode_basestring, x))
                       + nl + "]")
            return
        except TypeError:
            pass
        sep = "[" + inner
        for item in x:
            out.append(sep)
            _dump(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(x, dict):
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(x):
            # encode_basestring raises TypeError on a key that is not a str
            out.append(sep + encode_basestring(key) + ": ")
            _dump(x[key], out, inner)
            sep = "," + inner
        out.append(nl + "}" if x else "{}")
    else:
        raise TypeError(f"{type(x).__name__} {x!r} has no JSON form here")


def _write_json(*outputs):
    """Write dump_json(doc) for each (doc, path) pair, opening every path
    (without truncating) before writing any; on failure, remove the files
    this call created and report the path as an input error."""
    opened = []
    try:
        for _, path in outputs:
            opened.append((not os.path.exists(path), open(path, "a", encoding="utf-8")))
        for (doc, path), (_, fh) in zip(outputs, opened):
            with fh:
                fh.truncate(0)
                fh.write(dump_json(doc))
    except OSError as exc:
        for fresh, fh in opened:
            fh.close()
            if fresh:
                os.remove(fh.name)
        raise FileFormatError(str(exc), path) from exc


def save_algebra(alg, path):
    _write_json((algebra_to_json(alg), path))


def _square(rows, n, location):
    """rows as an n x n tuple of rational tuples; a fault is located at
    location, or at its offending row or entry."""
    if not isinstance(rows, list) or len(rows) != n:
        raise FileFormatError(f"need a list of {n} rows (the algebra's dimension)", location)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(f"need a list of {n} entries", f"{location}[{r}]")
    return tuple(tuple(_rational_cell(x, f"{location}[{r}][{c}]") for c, x in enumerate(row))
                 for r, row in enumerate(rows))


def load_matrix(path, dim):
    return LinearMapSpec(_square(_load_json(path).get("matrix"), dim, "matrix"))


def matrix_to_json(m):
    return {"matrix": [[str(x) for x in row] for row in m.matrix]}


def load_cocycle(path, dim):
    doc = _load_json(path)
    cap = doc.get("degree_cap")
    forms = doc.get("forms")
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
        raise FileFormatError("degree_cap must be a non-negative integer",
                              "degree_cap")
    if not isinstance(forms, list) or len(forms) != cap + 1:
        raise FileFormatError("need degree_cap + 1 forms", "forms")
    return CocycleFamily(cap, tuple(_square(f, dim, f"forms[{i}]")
                                    for i, f in enumerate(forms)))


def cocycle_to_json(fam):
    return {"degree_cap": fam.degree_cap,
            "forms": [[[str(x) for x in row] for row in f] for f in fam.forms]}


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
