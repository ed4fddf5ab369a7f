"""Reference substitution on Fraction polynomials, for the tests.

The package expands along lines and at points on integers only; the tests
check those expansions against this plain composition of Poly arithmetic,
which shares no code with them.  restrict_to_line, the Poly of one such
expansion along a line, is what the tests read a restriction off.
"""

from fractions import Fraction
from math import lcm
from typing import Sequence

from incgeo.errors import ArityError
from incgeo.poly import Poly
from incgeo.zpoly import _line_expansion


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
