"""JSON file formats: algebras, derivation matrices, cocycle families.

Algebra files are sparse and label-keyed so that small examples diff
cleanly:

    {"name": "...", "dim": 2, "basis": ["L", "W"],
     "ops": {"ld": {"L,L": {"L": "1"}, "W,L": {"W": "1"}}}}

A label is a string with no "," that equals its own strip(), so that a
pair key carries any two; load and save both refuse other labels.  A key
repeated in one JSON object, or a basis pair named by two keys of one op
table ("L,L" and "L, L"), is refused with its location: json.loads would
silently keep the last value.
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
from math import gcd, lcm

from .algebras import AlgebraSpec, LinearMapSpec
from .cohomology import CocycleFamily

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


def _rational(text, location):
    """A rational string as its reduced (numerator, denominator) pair."""
    if not isinstance(text, str) or not RATIONAL_RE.match(text):
        raise FileFormatError(f"not a rational string: {text!r}", location)
    if len(text) > MAX_DIGITS and any(len(part) > MAX_DIGITS
                                      for part in text.lstrip("-").split("/")):
        raise FileFormatError(f"a numeral has more than {MAX_DIGITS} digits", location)
    num, _, den = text.partition("/")
    num, den = int(num), int(den) if den else 1
    if not den:
        raise FileFormatError(f"zero denominator: {text!r}", location)
    g = gcd(num, den)
    return num // g, den // g


def parse_rational(text, location=None):
    return Fraction(*_rational(text, location))


def _cell(value, location):
    """A rational string or a plain JSON integer, as _rational's pair."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    return _rational(value, location)


def _parse_int(text):
    """json's parse_int hook: an integer literal, with at most MAX_DIGITS
    digits."""
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"an integer has more than {MAX_DIGITS} digits")
    return int(text)


class _RepeatedKey(Exception):
    """Some JSON object repeats a key; _repeated_key names it."""


def _unique_keys(pairs):
    """json's object_pairs_hook: the object as a dict, refusing a repeated
    key (json.loads would keep its last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise _RepeatedKey
    return obj


class _Object(list):
    """A JSON object read as its list of (key, value) pairs."""


def _repeated_key(x, where=""):
    """(key, its location) for a repeated key in x, a document read with
    _Object for objects, or None."""
    if isinstance(x, _Object):
        seen = set()
        for key, _ in x:
            if key in seen:
                return key, f"{where}.{key}" if where else key
            seen.add(key)
        items = ((f"{where}.{key}" if where else key, v) for key, v in x)
    elif isinstance(x, list):
        items = ((f"{where}[{n}]", v) for n, v in enumerate(x))
    else:
        return None
    return next(filter(None, (_repeated_key(v, loc) for loc, v in items)), None)


def _load_json(path, digest=None):
    """The JSON object in path, read once; digest (a hashlib object), when
    given, is updated with exactly the bytes that were parsed.  A repeated
    key is refused with its location."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FileFormatError(str(exc), path) from exc
    if digest is not None:
        digest.update(data)
    try:
        text = data.decode("utf-8")
        doc = json.loads(text, parse_int=_parse_int, object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not UTF-8: {exc}", path) from exc
    except ValueError as exc:  # a JSONDecodeError, or an over-long integer
        raise FileFormatError(f"invalid JSON: {exc}", path) from exc
    except _RepeatedKey:
        key, where = _repeated_key(json.loads(text, parse_int=_parse_int,
                                              object_pairs_hook=_Object))
        raise FileFormatError(f"repeated key {key!r}", where) from None
    if not isinstance(doc, dict):
        raise FileFormatError("top-level JSON value must be an object", path)
    return doc


def load_algebra(path, digest=None):
    """The algebra in path; digest as in _load_json.  Each cell is read to
    a reduced fraction, and the spec's integer rows are built from those
    directly, with no dense tensor in between."""
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
    # op -> {(i, j): [(k, numerator, denominator), ...]} over the nonzero cells
    entries = {}
    for op, table in tables.items():
        if op not in FILE_OPS:
            raise FileFormatError(f"unknown op {op!r}", f"ops.{op}")
        if not isinstance(table, dict):
            raise FileFormatError("op table must be an object", f"ops.{op}")
        cells = entries[op] = {}
        for pair, cell in table.items():
            where = f"ops.{op}.{pair}"
            parts = [p.strip() for p in pair.split(",")]
            if len(parts) != 2 or parts[0] not in index or parts[1] not in index:
                raise FileFormatError(f"bad basis pair {pair!r}", where)
            ij = index[parts[0]], index[parts[1]]
            if ij in cells:
                raise FileFormatError(f"basis pair {pair!r} repeats an earlier key", where)
            if not isinstance(cell, dict):
                raise FileFormatError("entry must map labels to rationals", where)
            row = cells[ij] = []
            for lab, val in cell.items():
                k = index.get(lab)
                if k is None:
                    raise FileFormatError(f"unknown label {lab!r}", f"{where}.{lab}")
                num, den = _cell(val, f"{where}.{lab}")
                if num:
                    row.append((k, num, den))
    den = lcm(*{d for cells in entries.values() for row in cells.values() for _, _, d in row})
    rows = {}
    for op, cells in entries.items():
        planes = [[()] * dim for _ in range(dim)]
        for (i, j), row in cells.items():
            planes[i][j] = tuple(sorted((k, num * (den // d)) for k, num, d in row))
        rows[op] = tuple(map(tuple, planes))
    return AlgebraSpec.from_rows(name, dim, basis, den, rows)


def _check_labels(basis):
    """The one label rule, checked on load and before any save."""
    if not all(isinstance(b, str) and "," not in b and b == b.strip() for b in basis):
        raise FileFormatError("basis labels must be strings with no ',' and no "
                              "surrounding whitespace", "basis")


def algebra_to_json(alg):
    _check_labels(alg.basis)
    basis, ops = alg.basis, {}
    for op, rows in alg.stored_rows.items():
        if op not in FILE_OPS:
            raise FileFormatError(f"op {op!r} has no file representation", op)
        ops[op] = {f"{basis[i]},{basis[j]}": {basis[k]: str(Fraction(x, alg.den))
                                              for k, x in row}
                   for i, plane in enumerate(rows) for j, row in enumerate(plane) if row}
    return {"name": alg.name, "dim": alg.dim, "basis": list(basis), "ops": ops}


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
    return tuple(tuple(Fraction(*_cell(x, f"{location}[{r}][{c}]")) for c, x in enumerate(row))
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
