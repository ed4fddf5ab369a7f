"""The gcd over Q of integer term maps: the exact answer that decides what
no fixed-line or fixed-point certificate settles, whether a factor is
square-free (zpoly.square_free) and whether a tangent pencil has a common
factor (exceptional).

A term map is {exponent tuple: int}, the numerators of a zpoly form.  The
module is apart from zpoly, and imported only when a certificate fails, so
that a call which every certificate settles does not compile it: each CLI
call compiles the modules it imports when no bytecode is cached.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import add
from typing import Iterable

from .errors import ArityError
from .zpoly import Exponent, form_degree, primitive_terms


def _term_cross(
    a: dict[Exponent, int], d: dict[Exponent, int], b: dict[Exponent, int], c: dict[Exponent, int]
) -> dict[Exponent, int]:
    """a*d - b*c on integer term maps of one arity."""
    out: dict[Exponent, int] = {}
    for x, y, sign in ((a, d, 1), (b, c, -1)):
        for ex, cx in x.items():
            for ey, cy in y.items():
                e = tuple(map(add, ex, ey))
                out[e] = out.get(e, 0) + sign * cx * cy
    return {e: v for e, v in out.items() if v}


def _content(coeffs: Iterable[dict[Exponent, int]]) -> dict[Exponent, int]:
    """The gcd of the nonzero term maps among coeffs, stopping at a constant."""
    cont: dict[Exponent, int] = {}
    for c in coeffs:
        if c:
            cont = term_gcd(cont, c)
            if form_degree((cont, 1)) == 0:
                break
    return cont


def _primitive_part(coeffs: list[dict[Exponent, int]]) -> list[dict[Exponent, int]]:
    """A coefficient list over its content (_content), made primitive over Z."""
    cont = _content(coeffs)
    if form_degree((cont, 1)) > 0:
        from .witness import form_quotient

        coeffs = [form_quotient((c, 1), (cont, 1))[0] for c in coeffs]
    g = gcd(*(x for c in coeffs for x in c.values()))
    return [{e: x // g for e, x in c.items()} for c in coeffs]


def term_gcd(a: dict[Exponent, int], b: dict[Exponent, int]) -> dict[Exponent, int]:
    """The gcd over Q of two integer term maps of one arity, primitive with
    positive graded-lex leading coefficient ({} when both are zero).

    In the highest variable v that either uses, each is its list of
    coefficients in v, term maps without v.  The gcd is the gcd of their
    contents in v (the gcds of those coefficients, taken recursively)
    times the last nonzero entry of the primitive remainder sequence of
    their primitive parts: each step reduces one by the other, multiplying
    by the divisor's leading coefficient, and keeps the remainder over its
    content.  By Gauss's lemma every division on the way is exact over Z.
    """
    if not a or not b:
        return primitive_terms(a or b) if a or b else {}
    n = len(next(iter(a)))
    if len(next(iter(b))) != n:
        raise ArityError(f"mixed arities {n} and {len(next(iter(b)))}")
    if not form_degree((a, 1)) or not form_degree((b, 1)):
        return {(0,) * n: 1}
    v = max(i for e in itertools.chain(a, b) for i, k in enumerate(e) if k)
    # coefficient lists in v, highest power first
    x, y = ([{} for _ in range(max(e[v] for e in p) + 1)] for p in (a, b))
    for p, coeffs in ((a, x), (b, y)):
        for e, c in p.items():
            coeffs[-1 - e[v]][e[:v] + (0,) + e[v + 1 :]] = c
    if len(y) == 1:
        return term_gcd(_content(x), b)
    if len(x) == 1:
        return term_gcd(a, _content(y))
    cont = term_gcd(_content(x), _content(y))
    x, y = sorted((_primitive_part(x), _primitive_part(y)), key=len, reverse=True)
    while y:
        lead = y[0]
        while len(x) >= len(y):
            pad = y + [{}] * (len(x) - len(y))
            x = [_term_cross(p, lead, x[0], q) for p, q in zip(x[1:], pad[1:])]
            x = x[next((i for i, c in enumerate(x) if c), len(x)) :]
        x, y = y, (_primitive_part(x) if x else [])
    top = len(x) - 1
    g = {e[:v] + (top - k,) + e[v + 1 :]: c for k, coeffs in enumerate(x) for e, c in coeffs.items()}
    return primitive_terms(_term_cross(g, cont, {}, {}))
