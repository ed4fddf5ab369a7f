"""Reference computations on Fraction polynomials, for the tests.

The package expands along lines and at points on integers only; the tests
check those expansions against this plain composition of Poly arithmetic,
which shares no code with them.  restrict_to_line, the Poly of one such
expansion along a line, is what the tests read a restriction off.  The
evaluator and the division algorithm on Fraction terms check the integer
kernels pointwise; the Poly witness path below checks the one on packed
term maps.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from incgeo.errors import ArityError, DomainError
from incgeo.poly import Poly, exact_div, remove_content
from incgeo.surfaces import _chart_forms
from incgeo.zpoly import (
    _bareiss,
    _guard,
    _line_expansion,
    _pack,
    _taylor_weights,
    _unpack,
    _zcross,
    _zquot,
    grlex_key,
    sylvester_rows,
)


def substitute(p: Poly, values: Sequence[Poly]) -> Poly:
    """p with variable i mapped to values[i]; all values share one arity."""
    if len(values) != p.nvars:
        raise ArityError(f"expected {p.nvars} substitution values, got {len(values)}")
    if not values:
        return Poly(0, dict(p.terms))
    m = values[0].nvars
    if any(v.nvars != m for v in values):
        raise ArityError("substitution values have mixed arities")
    powers: list[dict[int, Poly]] = [{} for _ in values]

    def power(i: int, k: int) -> Poly:
        got = powers[i].get(k)
        if got is None:
            got = powers[i][k] = values[i] ** k
        return got

    out = Poly.zero(m)
    for e, c in p.terms.items():
        term = Poly.const(m, c)
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k)
        out = out + term
    return out


def restrict_to_line(p: Poly, base: Sequence, direction: Sequence) -> Poly:
    """Univariate polynomial t -> p(base + t*direction), divided back once
    from its integer expansion along the line, with base = B/s and
    direction = D/s for the lcm s of their denominators."""
    if len(base) != p.nvars or len(direction) != p.nvars:
        raise ArityError("base/direction arity does not match polynomial")
    b, v = [Fraction(a) for a in base], [Fraction(a) for a in direction]
    s = lcm(*(a.denominator for a in b + v))
    bv, dv = ([a.numerator * (s // a.denominator) for a in w] for w in (b, v))
    parts, scale = _line_expansion(p.form, bv, dv, s, 0)
    return Poly(1, {(j,): Fraction(c, scale) for j, c in enumerate(parts.get((0,) * p.nvars, ()))})


def evaluate(p: Poly, at: Sequence) -> Fraction:
    """p at a point of ints or Fractions."""
    if len(at) != p.nvars:
        raise ArityError(f"expected {p.nvars} coordinates, got {len(at)}")
    total = Fraction(0)
    for e, c in p.terms.items():
        for a, k in zip(at, e):
            if k:
                c *= Fraction(a) ** k
        total += c
    return total


def quotient(g: Poly, f: Poly) -> Poly | None:
    """g/f by the division algorithm on Fraction terms in graded lex order,
    or None when a remainder is left: for one divisor, that is exactly
    when f does not divide g."""
    lead = max(f.terms, key=grlex_key)
    rem, quot = dict(g.terms), {}
    while rem:
        e = max(rem, key=grlex_key)
        if any(a < b for a, b in zip(e, lead)):
            return None
        m = tuple(a - b for a, b in zip(e, lead))
        quot[m] = c = rem[e] / f.terms[lead]
        for fe, fc in f.terms.items():
            te = tuple(a + b for a, b in zip(m, fe))
            v = rem.get(te, 0) - c * fc
            if v:
                rem[te] = v
            else:
                rem.pop(te, None)
    return Poly(g.nvars, quot)


# -- the flecnode witness as it was built on Polys ------------------------
#
# The package builds the witness on the packed term maps of a form; these
# are the Poly determinant, the Poly Taylor data and the chart eliminant
# that it replaced, kept as oracles.


def _packed(p: Poly, width: int, den: int) -> dict[int, int]:
    """zpoly's packed term map of den*p; den is a multiple of p's denominators."""
    return _pack({e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}, width)


def _from_packed(terms: dict[int, int], nvars: int, width: int, den: int) -> Poly:
    return Poly(nvars, {e: Fraction(c, den) for e, c in _unpack(terms, nvars, width).items()})


def taylor(p: Poly, order: int, width: int, den: int) -> dict[tuple[int, ...], dict[int, int]]:
    """The Taylor data of p at a symbolic point x, on integers, up to the
    given order: each a with |a| <= order that some term reaches maps to the
    y^a coefficient of den*p(x + y), a packed term map in x; den is a
    multiple of p's denominators.  The term c*x^e gives
    den*c*prod comb(e_i, a_i) at x^(e - a)."""
    out: dict[tuple[int, ...], dict[int, int]] = {}
    for e, c in p.terms.items():
        coef = c.numerator * (den // c.denominator)
        for a, weight in _taylor_weights(e, order):
            m = sum(e) - sum(a)
            for k, j in zip(e, a):
                m = (m << width) | (k - j)
            out.setdefault(a, {})[m] = coef * weight
    return out


def matrix_determinant(mat: list[list[Poly]], nvars: int) -> Poly:
    """Exact determinant of a square matrix of polynomials: each row is
    scaled by the lcm of its denominators, and Bareiss elimination runs on
    the packed integer matrix, where every division is exact in Z[x]."""
    if any(len(row) != len(mat) for row in mat):
        raise DomainError("determinant needs a square matrix")
    if not mat:
        return Poly.const(nvars, 1)
    # a product of two minors bounds every degree the elimination reaches
    width = (2 * sum(max(max(p.degree() for p in row), 0) for row in mat)).bit_length() + 1
    guard = _guard(nvars, width)
    m, scale = [], 1
    for row in mat:
        den = lcm(*(p.form[1] for p in row))
        m.append([_packed(p, width, den) for p in row])
        scale *= den

    def step(a, d, b, c, p):
        cross = _zcross(a, d, b, c)
        return cross if p is None else _zquot(cross, p, guard)

    det, sign = _bareiss(m, step)
    return _from_packed(det, nvars, width, sign * scale)


def sylvester_determinant(a: Sequence[Poly], b: Sequence[Poly], nvars: int) -> Poly:
    """Sylvester determinant of two coefficient lists, highest power first."""
    return matrix_determinant(sylvester_rows(a, b, Poly.zero(nvars)), nvars)


def chart_eliminant(f: Poly, c: int) -> Poly | None:
    """The chart's direction eliminant on Polys: the resultant of the chart
    forms on the Taylor data of f, over f_c^6 and made primitive; None when
    the chart's partial vanishes or its power does not divide."""
    width = (4 * f.degree()).bit_length()
    forms = _chart_forms(taylor(f, 3, width, f.form[1]), c)
    if forms is None:
        return None
    a, b = ([_from_packed(t, 3, width, 1) for t in form] for form in forms)
    res = sylvester_determinant(a, b, 3)
    if res.is_zero:
        return res
    try:
        return remove_content(exact_div(res, f.diff(c) ** 6))
    except DomainError:
        return None
