"""Exact linear algebra over the rationals.

Everything downstream reduces to ranks, nullspaces and membership tests of
matrices with Fraction entries.  A matrix is a plain list of rows (lists of
Fractions); the one class here is Subspace, which keeps its basis in reduced
row echelon form so that two subspaces are equal iff their stored bases are
equal componentwise.

Elimination is done on gcd-normalised integer rows: each row is scaled to
coprime integers, combined by cross multiplication, and re-reduced by the
gcd after every combination.  That keeps intermediate entries small without
ever leaving exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

ZERO = Fraction(0)
ONE = Fraction(1)


class LinalgError(Exception):
    pass


class DimensionMismatch(LinalgError):
    pass


class ContainmentError(LinalgError):
    """Raised when a claimed subspace inclusion does not hold."""


# ---------------------------------------------------------------------------
# vectors

def vzero(n):
    return [ZERO] * n


def vadd(u, v):
    return [a + b for a, b in zip(u, v)]


def vsub(u, v):
    return [a - b for a, b in zip(u, v)]


def vscale(c, u):
    return [c * a for a in u]


def unit(n, i):
    v = [ZERO] * n
    v[i] = ONE
    return v


def mat_vec(rows, v):
    if rows and len(rows[0]) != len(v):
        raise DimensionMismatch(f"matrix has {len(rows[0])} columns, vector has {len(v)}")
    return [sum(r[j] * v[j] for j in range(len(v))) for r in rows]


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("inner dimensions differ")
    n = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(n)] for row in a]


def identity_matrix(n):
    return [unit(n, i) for i in range(n)]


# ---------------------------------------------------------------------------
# elimination

def _int_row(row):
    """Scale a Fraction row to coprime integers; None for the zero row."""
    den = 1
    for x in row:
        d = x.denominator
        den = den * d // gcd(den, d)
    ints = [int(x * den) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g == 0:
        return None
    return [v // g for v in ints]


def rref(rows, ncols):
    """Reduced row echelon form of `rows` (each of length `ncols`).

    Returns (rref_rows, pivot_cols): rows with leading entry 1, zeros above
    and below every pivot, ordered by pivot column.
    """
    work = []
    for r in rows:
        if len(r) != ncols:
            raise DimensionMismatch(f"row of length {len(r)}, expected {ncols}")
        ir = _int_row(r)
        if ir is not None:
            work.append(ir)
    pivots = []
    nrows = len(work)
    for col in range(ncols):
        npiv = len(pivots)
        hit = None
        for i in range(npiv, nrows):
            if work[i][col]:
                hit = i
                break
        if hit is None:
            continue
        work[npiv], work[hit] = work[hit], work[npiv]
        prow = work[npiv]
        pv = prow[col]
        for i in range(nrows):
            if i == npiv:
                continue
            v = work[i][col]
            if not v:
                continue
            row = work[i]
            comb = [pv * a - v * b for a, b in zip(row, prow)]
            g = 0
            for x in comb:
                g = gcd(g, x)
            if g > 1:
                comb = [x // g for x in comb]
            work[i] = comb
        pivots.append(col)
        if len(pivots) == nrows:
            break
    out = []
    for k, col in enumerate(pivots):
        row = work[k]
        lead = Fraction(row[col])
        out.append([Fraction(x) / lead for x in row])
    return out, pivots


def rank(rows, ncols):
    return len(rref(rows, ncols)[1])


def nullspace(rows, ncols):
    """Kernel of the matrix as a canonical Subspace of Q^ncols."""
    red, pivots = rref(rows, ncols)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row, pc in zip(red, pivots):
            v[pc] = -row[f]
        basis.append(v)
    return Subspace(ncols, basis)


def solve(rows, rhs):
    """One exact solution of rows*x = rhs, or None if inconsistent."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols]
    return x


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """A subspace of Q^n held as a canonical (RREF) basis.

    Equality of subspaces is literal equality of the stored bases; dim is
    the number of basis rows.  Construction accepts any spanning list.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim, vectors=()):
        self.ambient_dim = ambient_dim
        vecs = list(vectors)
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}")
        self.basis, self.pivots = rref(vecs, ambient_dim)

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def is_full(self):
        return len(self.basis) == self.ambient_dim

    def reduce(self, v):
        """Residual of v after eliminating all pivot coordinates."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector/ambient mismatch")
        w = list(v)
        for row, pc in zip(self.basis, self.pivots):
            c = w[pc]
            if c:
                for j in range(self.ambient_dim):
                    w[j] -= c * row[j]
        return w

    def contains(self, v):
        return not any(self.reduce(v))

    def coordinates(self, v):
        """Coefficients of v on the stored basis, or None if v is outside."""
        if not self.contains(v):
            return None
        return [v[pc] for pc in self.pivots]

    def contains_subspace(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return all(self.contains(b) for b in other.basis)

    def sum(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return Subspace(self.ambient_dim, self.basis + other.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, tuple(tuple(r) for r in self.basis)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def quotient_dim(big, small):
    """dim(big/small); raises ContainmentError unless small <= big."""
    if not big.contains_subspace(small):
        raise ContainmentError("claimed subspace is not contained in the larger space")
    return big.dim - small.dim


def quotient_representatives(big, small):
    """Vectors of big whose classes form a basis of big/small.

    Taken from big's canonical basis, reduced modulo small, keeping a
    maximal independent subset in order.
    """
    if not big.contains_subspace(small):
        raise ContainmentError("claimed subspace is not contained in the larger space")
    reps = []
    seen = Subspace(big.ambient_dim, small.basis)
    for b in big.basis:
        r = seen.reduce(b)
        if any(r):
            reps.append(r)
            seen = Subspace(big.ambient_dim, seen.basis + [r])
    return reps
