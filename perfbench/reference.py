"""Reference computation: a fixed stdlib-only job that measures the host.

    python3 perfbench/reference.py

run.py starts this in a fresh interpreter between timed ops.  It does the
kinds of work an incgeo op does (interpreter start-up, exact `Fraction`
elimination, a determinant of polynomials with `Fraction` coefficients)
but never imports incgeo, so no change to the program can move its time:
only the host can.  The end-to-end timings are reported in units of its
wall time in the same run, which cancels most of the host's speed drift
between runs.

It prints one checksum line; run.py compares it with CHECKSUM.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import permutations

CHECKSUM = "13 42 -35/144"


def rank(rows: list) -> int:
    rows = [list(r) for r in rows]
    rank, cols = 0, len(rows[0])
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_det(matrix: list) -> dict:
    """Determinant of a square matrix of polynomials, by Laplace expansion."""
    total: dict = {}
    for perm in permutations(range(len(matrix))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = {(0, 0, 0): Fraction(-1 if inversions % 2 else 1)}
        for row, col in enumerate(perm):
            term = poly_mul(term, matrix[row][col])
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def main() -> int:
    # a 14x16 rational matrix of rank 13: row 13 is the sum of rows 0 and 1
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(16)] for i in range(13)]
    rows.append([a + b for a, b in zip(rows[0], rows[1])])
    r = max(rank(rows) for _ in range(20))
    # a 5x5 matrix of affine forms in x, y, z with rational coefficients
    matrix = [[{(1, 0, 0): Fraction((i * j) % 5 + 1, j + 2), (0, 1, 0): Fraction((i + 3 * j) % 7 - 3, 3),
                (0, 0, 1): Fraction(1, i + j + 1), (0, 0, 0): Fraction((i * i + j) % 4 - 1, 7)}
               for j in range(5)] for i in range(5)]
    det = poly_det(matrix)
    line = f"{r} {len(det)} {det[max(det)]}"
    print(line)
    return 0 if line == CHECKSUM else 1


if __name__ == "__main__":
    sys.exit(main())
