"""Reference substitution on Fraction polynomials, for the tests.

The package expands along lines and at points on integers only; the tests
check those expansions against this plain composition of Poly arithmetic,
which shares no code with them.
"""

from typing import Sequence

from incgeo.errors import ArityError
from incgeo.poly import Poly


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
