"""Reference linear algebra on Fraction vectors, for the tests.

The package solves every exact linear system on one fraction-free integer
echelon (zsolve.echelon) and reads a quadric's inertia on integers; the
tests check those against this plain Gauss-Jordan elimination and Schur
complement walk over the rationals, which share no code with them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vec = tuple[Fraction, ...]


def vec_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def rref(rows: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """Reduced row echelon form; zero rows dropped."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row = 0
    work = [[Fraction(v) for v in row] for row in rows]
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
    return [tuple(r) for r in work[:pivot_row]]


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows))


def nullspace(rows: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """Basis of the right kernel of the matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced = rref(rows)
    pivots = [next(j for j in range(ncols) if row[j] != 0) for row in reduced]
    basis: list[Vec] = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for row, pj in zip(reduced, pivots):
            v[pj] = -row[j]
        basis.append(tuple(v))
    return basis


def symmetric_inertia(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
    """Exact (positive, negative, zero) inertia of a rational symmetric matrix.

    Congruence diagonalization by Schur complements: eliminating below a
    pivot row leaves exactly the Schur complement in the trailing block, so
    row operations alone walk through a congruence-diagonal sequence and the
    pivot signs give the inertia.
    """
    n = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]
    pos = neg = zero = 0
    for i in range(n):
        if m[i][i] == 0:
            j = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if j is not None:
                for row in m:
                    row[i], row[j] = row[j], row[i]
                m[i], m[j] = m[j], m[i]
            else:
                j = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if j is None:
                    zero += 1
                    continue
                # congruence by adding the j-th basis vector to the i-th:
                # the new diagonal entry is 2*m[i][j] since m[j][j] = 0
                for row in m:
                    row[i] += row[j]
                m[i] = [a + b for a, b in zip(m[i], m[j])]
        pivot = m[i][i]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if m[j][i] != 0:
                c = m[j][i] / pivot
                m[j] = [a - c * b for a, b in zip(m[j], m[i])]
    return pos, neg, zero
