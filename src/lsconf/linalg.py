"""Exact linear algebra over the rationals.

Input is made exact by `exact` (an entry) and `exact_array` (an array).
Everything downstream reduces to ranks, nullspaces and membership tests of
matrices with Fraction entries.  A row is a dense list of Fractions or ints,
or a sparse row {col: x} of either; int_row turns it into a gcd-primitive
integer row, rescaling only a row that holds a Fraction.  Every echelon
is built in Subspace.add, a streaming fraction-free echelon (Bareiss 1968
style) of sparse integer rows: each arriving vector is reduced against all
the stored pivots it meets in one integer accumulator, scaled by the lcm of
the pivot denominators and divided by its gcd once, at the end (the proof
is in Subspace._residual); a dependent vector (a duplicate, say) is dropped
on arrival.  The stored rows are back-substituted one pivot at a time, each
re-reduced by its gcd, so they stay the canonical primitive RREF.  rref, rank,
nullspace, Subspace.contains and quotient_representatives read the same
echelon; nullspace and quotient_representatives work on its integer
rows, not on the Fraction `basis`.  Columns known to vanish on the kernel
can be declared zero to nullspace instead of being eliminated as unit rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


class LinalgError(Exception):
    pass


class DimensionMismatch(LinalgError):
    pass


class ContainmentError(LinalgError):
    """Raised when a claimed subspace inclusion does not hold."""


class ZeroColumnPivot(Exception):
    """nullspace was told that a column is zero where its rows make a pivot:
    a defect in the caller, not bad input, so not a LinalgError."""


def exact(x):
    """x as a Fraction, kept as is when it is one; a float or a bool is
    refused, not read as exact."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__} {x!r}")


def exact_array(x, shape):
    """x, nested sequences of the given shape (a tuple of lengths), as
    nested tuples of exact entries (see exact); a wrong length raises
    DimensionMismatch."""
    if len(x) != shape[0]:
        raise DimensionMismatch(f"expected length {shape[0]}, got {len(x)}")
    if len(shape) == 1:
        return tuple(map(exact, x))
    return tuple(exact_array(y, shape[1:]) for y in x)


# ---------------------------------------------------------------------------
# vectors

def vzero(n):
    return [ZERO] * n


def unit(n, i):
    v = [ZERO] * n
    v[i] = ONE
    return v


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("inner dimensions differ")
    n = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(n)] for row in a]


# ---------------------------------------------------------------------------
# elimination on sparse integer rows {col: int}

def _primitive(row):
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def int_row(v):
    """v, dense or sparse {col: x} (columns trusted to be in range), with
    ints or Fractions, as a gcd-primitive sparse integer row.  The gcd is
    taken first: it raises TypeError on a Fraction, so an integer row is
    divided by it directly and only a row with a Fraction is rescaled."""
    nz = {j: x for j, x in (v.items() if isinstance(v, dict) else enumerate(v)) if x}
    try:
        g = gcd(*nz.values())
    except TypeError:
        den = lcm(*(x.denominator for x in nz.values()))
        return _primitive({j: x.numerator * (den // x.denominator) for j, x in nz.items()})
    return {j: x // g for j, x in nz.items()} if g > 1 else nz


def _clear(t, r, p):
    """Column p eliminated from row t by row r (r[p] > 0): the primitive
    row of a*t - b*r with a > 0, so a stored t keeps a positive pivot."""
    g = gcd(r[p], t[p])
    a, b = r[p] // g, t[p] // g
    out = dict(t) if a == 1 else {c: a * x for c, x in t.items()}
    for c, y in r.items():
        z = out.get(c, 0) - b * y
        if z:
            out[c] = z
        else:
            del out[c]
    return _primitive(out)


def rref(rows, ncols):
    """Reduced row echelon form of `rows` (each of length `ncols`, or a
    sparse row {col: x}).

    Returns (rref_rows, pivot_cols): rows with leading entry 1, zeros above
    and below every pivot, ordered by pivot column.
    """
    s = Subspace(ncols, rows)
    return s.basis, s.pivots


def rank(rows, ncols):
    return len(rref(rows, ncols)[1])


def nullspace(rows, ncols, zero=frozenset()):
    """Kernel of the matrix as a canonical Subspace of Q^ncols: for each
    free column f, the integer vector with f scaled to the lcm of the
    pivot entries of the echelon rows that reach f.  The columns in zero
    are declared zero, neither pivot nor free, so the kernel lies in the
    coordinate subspace where they vanish; no pivot of the echelon may fall
    in them (ZeroColumnPivot), and a row may reach them only off its pivot.
    That is the kernel of rows plus the unit rows of those columns, without
    eliminating the unit rows."""
    echelon = Subspace(ncols, rows)._rows
    if not echelon.keys().isdisjoint(zero):
        raise ZeroColumnPivot(f"zero columns {sorted(echelon.keys() & set(zero))} are pivots")
    basis = []
    for f in range(ncols):
        if f not in echelon and f not in zero:
            ps = [p for p, row in echelon.items() if f in row]
            den = lcm(*(echelon[p][p] for p in ps))
            v = {f: den}
            v.update((p, -echelon[p][f] * (den // echelon[p][p])) for p in ps)
            basis.append(v)
    return Subspace(ncols, basis)


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """A subspace of Q^n as its RREF with each row scaled to coprime
    integers, positive at its pivot: `_rows` maps pivot column -> sparse
    integer row.  That form is canonical, so subspaces are equal iff their
    `_rows` are.  Rows are never changed in place, so copies share them;
    the Fraction RREF `basis` is derived once per state.
    """

    __slots__ = ("ambient_dim", "_rows", "_basis")

    def __init__(self, ambient_dim, vectors=()):
        self.ambient_dim = ambient_dim
        self._rows = {}
        self._basis = None
        for v in vectors:
            self.add(v)

    def _residual(self, v):
        """v (dense or sparse) as a primitive integer row with every stored
        pivot eliminated; empty iff v is in the span.  A stored row r_p is
        zero at every other pivot, so eliminating one pivot never brings in
        another and the entries of t at the pivots it meets never change:
        the residual is t - sum_p (t[p] / r_p[p]) r_p.  It is built in one
        integer accumulator, times the lcm m of the r_p[p] / gcd(r_p[p], t[p]),
        and divided by its gcd once, at the end.  That is a positive multiple
        of the row that clearing one pivot at a time (_clear) leaves, so the
        same primitive row.  A sparse row of ints is read as it is; any other
        row goes through int_row."""
        n = self.ambient_dim
        if not isinstance(v, dict) and len(v) != n:
            raise DimensionMismatch(f"vector of length {len(v)} in ambient dimension {n}")
        t = v if isinstance(v, dict) and {*map(type, v.values())} <= {int} else int_row(v)
        rows, met, m = self._rows, [], 1
        for p in rows.keys() & t.keys():
            r = rows[p]
            x, rp = t[p], r[p]
            if x % rp:
                m = lcm(m, rp // gcd(rp, x))
            met.append((r, x, rp))
        if not met and t is not v:
            return t
        out = {c: m * x for c, x in t.items()} if m > 1 else dict(t)
        for r, x, rp in met:
            b = m * x // rp
            for c, y in r.items():
                out[c] = out.get(c, 0) - b * y
        return _primitive({c: x for c, x in out.items() if x})

    def add(self, v):
        """Put v into the span; True iff it was not already there."""
        t = self._residual(v)
        if not t:
            return False
        rows = self._rows
        p = min(t)
        if t[p] < 0:
            t = {c: -x for c, x in t.items()}
        for q, r in rows.items():
            if p in r:
                rows[q] = _clear(r, t, p)
        rows[p] = t
        self._basis = None
        return True

    def copy(self):
        out = Subspace(self.ambient_dim)
        out._rows = dict(self._rows)
        return out

    @property
    def basis(self):
        if self._basis is None:
            self._basis = []
            for p in self.pivots:
                row = [ZERO] * self.ambient_dim
                for c, x in self._rows[p].items():
                    row[c] = Fraction(x, self._rows[p][p])
                self._basis.append(row)
        return self._basis

    @property
    def pivots(self):
        return sorted(self._rows)

    @property
    def dim(self):
        return len(self._rows)

    def is_full(self):
        return len(self._rows) == self.ambient_dim

    def contains(self, v):
        return not self._residual(v)

    def contains_subspace(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return all(self.contains(r) for r in other._rows.values())

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self._rows == other._rows)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def quotient_representatives(big, small):
    """Vectors of big whose classes form a basis of big/small: big's
    canonical basis rows, in pivot order, reduced modulo small and the rows
    already kept, where nonzero.  The reduction runs on the integer echelon
    rows.  small and the kept rows lie in big, so the pivots of their
    echelon are among big's; big's row t at pivot p is zero at big's other
    pivots, so only their row s at p can meet it.  The residual of the
    basis row t / t[p] is then (s[p] t - t[p] s) / (s[p] t[p]), or t / t[p]
    when there is no such s.
    """
    if not big.contains_subspace(small):
        raise ContainmentError("claimed subspace is not contained in the larger space")
    reps = []
    seen = small.copy()
    for p in big.pivots:
        t, s = big._rows[p], seen._rows.get(p, {})
        m = s.get(p, 1)
        r = {c: m * x for c, x in t.items()}
        for c, y in s.items():
            r[c] = r.get(c, 0) - t[p] * y
        r = {c: x for c, x in r.items() if x}
        if r:
            rep, den = [ZERO] * big.ambient_dim, m * t[p]
            for c, x in r.items():
                rep[c] = Fraction(x, den)
            reps.append(rep)
            seen.add(r)
    return reps
