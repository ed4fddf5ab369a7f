"""Small exact linear algebra helpers over Fraction vectors.

Everything works on tuples/lists of Fraction and never leaves the rationals:
to_vec admits only int and Fraction entries, so no float is ever read as
the binary fraction it stores.
Only the handful of primitives the geometry layers need: rank, reduced row
echelon form, and kernels.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DomainError

Vec = tuple[Fraction, ...]


def _exact(v: object) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise DomainError(f"coordinate {v!r} is not an int or a Fraction")


def to_vec(values: Sequence) -> Vec:
    """The entries as Fractions; anything but an int (bool excluded) or a
    Fraction is a DomainError."""
    return tuple(map(_exact, values))


def vec_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def rref(rows: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """Reduced row echelon form; zero rows dropped."""
    m = [list(r) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    out: list[list[Fraction]] = []
    pivot_row = 0
    work = [row[:] for row in m]
    for col in range(ncols):
        pivot = next((i for i in range(pivot_row, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        inv = work[pivot_row][col]
        work[pivot_row] = [v / inv for v in work[pivot_row]]
        for i in range(len(work)):
            if i != pivot_row and work[i][col] != 0:
                c = work[i][col]
                work[i] = [v - c * w for v, w in zip(work[i], work[pivot_row])]
        pivot_row += 1
        if pivot_row == len(work):
            break
    for row in work[:pivot_row]:
        out.append(row)
    return [tuple(r) for r in out]


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows))


def nullspace(rows: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """Basis of the right kernel of the matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced = rref(rows)
    pivots = []
    for row in reduced:
        pivots.append(next(j for j in range(ncols) if row[j] != 0))
    free = [j for j in range(ncols) if j not in pivots]
    basis: list[Vec] = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for row, pj in zip(reduced, pivots):
            v[pj] = -row[j]
        basis.append(tuple(v))
    return basis

