"""The frozen reference task every benchmark timing is divided by.

The machine this benchmark runs on changes speed in phases lasting from a
second to minutes, and CPU time tracks wall time, so raw seconds cannot be
compared between runs.  Each timed job is bracketed by this task; the job's
time over the mean of the two bracketing reference times, times
NOMINAL_REF_S, is its reference-normalised time.

The task is pure-Python exact arithmetic of the same kind lsconf does:
fraction-free integer Gauss-Jordan elimination with gcd normalisation, plus
a running `Fraction` sum.  It imports nothing from lsconf and must never be
edited: changing it rescales every normalised number.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# A fixed nominal duration (about one call on the 2-core VM the benchmark
# was written on); it only sets the scale of the reported seconds.
NOMINAL_REF_S = 0.010


def reference_task():
    n, x = 28, 12345
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(x % 19 - 9)
        rows.append(row)
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for r in range(n):
            if r != rank and rows[r][col]:
                v = rows[r][col]
                comb = [p[col] * a - v * b for a, b in zip(rows[r], p)]
                g = 0
                for c in comb:
                    g = gcd(g, c)
                rows[r] = [c // g for c in comb] if g > 1 else comb
        rank += 1
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction(k % 7 - 3, k)
    return rank, total
