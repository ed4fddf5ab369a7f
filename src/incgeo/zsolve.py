"""Exact linear algebra on integers: the fraction-free echelon that every
exact solve runs on (a rank in forge and linespace, a cone apex of any
degree as a scaled point), and a quadric's inertia.  It is apart from
zpoly and surfaces, and imported where it solves, so that reading a
surface file or ruling a factor out on the line certificate compiles none
of it."""

from __future__ import annotations

from math import factorial, gcd, lcm
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError
from .zpoly import form_degree

if TYPE_CHECKING:
    from .lattice import Scaled
    from .zpoly import Form


def _primitive(row: list[int]) -> list[int]:
    """A nonzero integer row over the gcd of its entries; a zero row as it is."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def echelon(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The reduced row echelon form of an integer matrix, fraction-free:
    its nonzero rows in pivot order, each the primitive integer multiple of
    the reduced row over Q with a positive pivot.  Their number is the rank.

    Each pivot row eliminates its column from every other row r as
    p*r - r[col]*pivot_row, p > 0, which keeps the other pivots positive,
    and every changed row is made primitive again, so entries stay small.
    """
    work = [list(r) for r in rows]
    done: list[list[int]] = []
    for col in range(len(work[0]) if work else 0):
        i = next((i for i, r in enumerate(work) if r[col]), None)
        if i is None:
            continue
        top = _primitive(work.pop(i))
        if top[col] < 0:
            top = [-x for x in top]
        p = top[col]
        work, done = (
            [_primitive([p * x - r[col] * y for x, y in zip(r, top)]) if r[col] else r for r in rs]
            for rs in (work, done)
        )
        done.append(top)
    return done


def echelon_point(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int] | None:
    """The solution with free coordinates 0 of the integer system A*x = b
    given by its augmented rows [A | b], as a scaled pair (P, q): x = P/q,
    q > 0 and gcd 1.  None when the system has no solution."""
    n = len(rows[0]) - 1
    reduced = echelon(rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
    if n in pivots:  # a row 0 = b with b nonzero
        return None
    # x_k = row[n]/row[k] at each pivot k, over one denominator
    q = lcm(*(row[k] for row, k in zip(reduced, pivots)))
    num = [0] * n
    for row, k in zip(reduced, pivots):
        num[k] = row[n] * (q // row[k])
    g = gcd(q, *num)
    return tuple(x // g for x in num), q // g


def _quadric_matrix(form: Form) -> list[list[int]]:
    """Symmetric 4x4 matrix of the homogenized quadric, index 0 homogenizing,
    times 2*den > 0, read off its integer form: the term c*x_i*x_j adds c at
    (i, j) and at (j, i)."""
    terms, _ = form
    m = [[0] * 4 for _ in range(4)]
    for e, c in terms.items():
        if sum(e) > 2:
            raise DomainError("not a quadric")
        i, j = ([k + 1 for k, n in enumerate(e) for _ in range(n)] + [0, 0])[:2]
        m[i][j] += c
        m[j][i] += c
    return m


def symmetric_inertia(matrix: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Exact (positive, negative, zero) inertia of an integer symmetric matrix.

    The Faddeev-LeVerrier recurrence M_k = A*M_(k-1) + c_(n-k+1)*I,
    c_(n-k) = -tr(A*M_k)/k gives the characteristic polynomial p of A, whose
    coefficients are integers and whose divisions are exact.  Its roots are
    all real, so Descartes' rule of signs counts them exactly: the zero
    eigenvalues are the power of x dividing p, the positive ones the sign
    changes of its coefficients, and the negative ones the rest.
    """
    n = len(matrix)
    coeffs = [1]  # of p, highest power first
    am = [[0] * n for _ in range(n)]  # A*M_k, from M_0 = 0
    for k in range(1, n + 1):
        m = [[x + coeffs[-1] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(am)]
        am = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in matrix]
        coeffs.append(-sum(am[i][i] for i in range(n)) // k)
    zero = next(i for i, c in enumerate(reversed(coeffs)) if c)
    signs = [c > 0 for c in coeffs if c]
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    return pos, n - pos - zero, zero


def _cone_apex(form: Form) -> Scaled | None:
    """The apex of a cone of degree d >= 2, as a scaled point, or None when
    the factor f of the form is no cone.

    If f(p + x) is homogeneous of degree d, every (d-1)-th partial of f is
    affine-linear and vanishes at p, so p solves one linear system, taken
    term by term: c*x^e with |e| = d adds c*e! to the x_i coefficient of
    the partial D^(e - unit_i), and |e| = d - 1 adds c*e! to the constant
    of D^e.  On its solution set S each lower partial is constant, since
    its gradient is made of higher partials, which vanish on S; so one
    test at the echelon point of S (free coordinates 0) decides all of S.
    The integer numerators of the form give the system times den.
    """
    d = form_degree(form)
    rows: dict[tuple[int, ...], list[int]] = {}
    for e, c in form[0].items():
        if sum(e) < d - 1:
            continue
        weight = c * factorial(e[0]) * factorial(e[1]) * factorial(e[2])
        if sum(e) == d - 1:
            rows.setdefault(e, [0] * 4)[3] -= weight
            continue
        for i in range(3):
            if e[i]:
                rows.setdefault(e[:i] + (e[i] - 1,) + e[i + 1 :], [0] * 4)[i] += weight
    apex = echelon_point(list(rows.values()))  # None: the partials share no zero
    return apex if apex is not None and _is_cone_apex(form, apex) else None


def _is_cone_apex(form: Form, apex: Scaled) -> bool:
    """Whether f(apex + x) is homogeneous: its top part is f's own, so
    every order below the degree must vanish."""
    from .surfaces import _at_point

    return not _at_point(form, apex, form_degree(form) - 1)
