"""The integer echelon and the integer inertia against their Fraction oracles.

zsolve.echelon serves every exact linear solve of the package (a rank, a
cone apex of any degree) and zsolve.symmetric_inertia reads a quadric's
inertia off its integer characteristic polynomial; both are checked here
against the plain Gauss-Jordan elimination and Schur complement walk over
the rationals in linref.
"""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

import linref
from incgeo.zsolve import echelon, echelon_point, symmetric_inertia

entries = st.integers(-6, 6)


@st.composite
def matrices(draw, min_rows=0, min_cols=1):
    """Tall, wide and square integer matrices whose rows are random, zero,
    or integer combinations of two earlier rows, so many are rank-deficient."""
    nrows, ncols = draw(st.integers(min_rows, 7)), draw(st.integers(min_cols, 7))
    rows: list[list[int]] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(entries), draw(entries)
            rows.append([ca * x + cb * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return rows


def pivot(row) -> int:
    return next(j for j, x in enumerate(row) if x)


@settings(max_examples=300, deadline=None)
@given(matrices())
@example([])
@example([[0, 0, 0], [0, 0, 0]])
def test_echelon_is_the_rref_with_primitive_rows(rows):
    reduced, reference = echelon(rows), linref.rref(rows)
    assert len(reduced) == len(reference) == linref.rank(rows)
    for row, ref in zip(reduced, reference):
        k = pivot(row)
        assert k == pivot(ref)
        assert row[k] > 0 and gcd(*row) == 1
        assert tuple(Fraction(x, row[k]) for x in row) == ref


def rref_point(rows) -> tuple[Fraction, ...] | None:
    """The solution of the augmented system [A | b] with free coordinates
    0, read off the Fraction rref; None when a row reads 0 = 1."""
    n = len(rows[0]) - 1
    x = [Fraction(0)] * n
    for row in linref.rref(rows):
        k = pivot(row)
        if k == n:
            return None
        x[k] = row[n]
    return tuple(x)


@settings(max_examples=300, deadline=None)
@given(matrices(min_rows=1, min_cols=2))
@example([[0, 0, 5]])
@example([[2, 4, 6], [1, 2, 4]])
def test_echelon_point_is_the_rref_point(rows):
    point, reference = echelon_point(rows), rref_point(rows)
    if reference is None:
        assert point is None
        return
    pv, q = point
    assert q > 0 and gcd(q, *pv) == 1
    assert tuple(Fraction(c, q) for c in pv) == reference


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices: random ones with some diagonal entries
    set to zero, hyperbolic blocks [[0, a], [a, 0]] with a zero diagonal
    throughout, and Gram forms A^T*diag(signs)*A of low rank."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "hyperbolic", "gram"]))
    m = [[0] * n for _ in range(n)]
    if kind == "random":
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = draw(entries)
        for i in draw(st.sets(st.integers(0, n - 1))):
            m[i][i] = 0
    elif kind == "hyperbolic":
        order = draw(st.permutations(range(n)))
        for i, j in zip(order[::2], order[1::2]):
            m[i][j] = m[j][i] = draw(entries)
    else:
        k = draw(st.integers(0, n))
        a = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]
        signs = [draw(st.sampled_from([-1, 1])) for _ in range(k)]
        for i in range(n):
            for j in range(n):
                m[i][j] = sum(s * r[i] * r[j] for s, r in zip(signs, a))
    return m


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
def test_integer_inertia_matches_the_fraction_walk(m):
    inertia = symmetric_inertia(m)
    assert inertia == linref.symmetric_inertia(m)
    assert sum(inertia) == len(m)
