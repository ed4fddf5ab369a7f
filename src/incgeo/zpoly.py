"""Integer forms of polynomials, the kernels that read a surface, and Surface.

A polynomial's form is (terms, den): its coefficients' integer numerators
over den, the lcm of their reduced denominators, zero terms dropped, so
equal polynomials have equal forms.  A form is expanded along a line (with
direction zero, around a point) and certified square-free on three fixed
lines here; a factor that no line certifies square-free is decided by the
gcd of zgcd, on integers.  The module holds only what reading a surface
runs: the line certificate's determinant is in surfaces, the exact solves
in zsolve, and the full witness and exact division in witness.  Surface
holds its factors as forms, so a surface file is read, checked, written
and measured without poly or fractions; poly's Poly caches its form, and
Surface.factors, the Poly views, loads poly, as does rendering a refused
factor.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import comb, gcd, prod
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ArityError, DomainError

if TYPE_CHECKING:
    from .poly import Poly

Exponent = tuple[int, ...]
# (integer numerators by exponent, common denominator) of a polynomial
Form = tuple[dict[Exponent, int], int]


def grlex_key(e: Exponent) -> tuple[int, Exponent]:
    """Sort key realizing graded lex order: compare total degree, then lex."""
    return (sum(e), e)


def form_degree(form: Form) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max(map(sum, form[0]), default=-1)


def _taylor_weights(e: Exponent, order: int) -> Sequence[tuple[Exponent, int]]:
    """The pairs (a, prod comb(e_i, a_i)) for a <= e with |a| <= order: the
    y^a coefficient of (x + y)^e is the weight times x^(e - a).  Order 0,
    the restriction to a line, is the hot case and needs no product."""
    if not order:
        return (((0,) * len(e), 1),)
    ranges = (range(min(k, order) + 1) for k in e)
    return [(a, prod(map(comb, e, a))) for a in itertools.product(*ranges) if sum(a) <= order]


def _line_expansion(
    form: Form, base: Sequence[int], direction: Sequence[int], s: int, order: int
) -> tuple[dict[Exponent, list[int]], int]:
    """The expansion of the polynomial p = terms/den along the line
    X(t) = (base + t*direction)/s, on integers, up to the given order in
    the transverse variables y, and scale.

    With d = deg p, F(y) = den*s^d*p(y/s) has integer coefficients and
    F(base + t*direction + y) = scale*p(X(t) + y/s) for scale = den*s^d.
    Each a with |a| <= order that some term reaches maps to the y^a
    coefficient of F(base + t*direction + y), a list in t, lowest power
    first, of length d - |a| + 1.  The term c*x^e of terms gives
    c*s^(d-|e|) times comb(e_i, a_i)*(base_i + t*direction_i)^(e_i-a_i)
    over i; exponents a above order are never formed.

    With direction zero it expands around the point q = base/s: entry 0 of
    the y^a list is den*s^(d-|a|) times the x^a coefficient of p(q + x), so
    each order of the Taylor expansion at q comes out as one positive
    multiple of it, p(q) and the gradient among them.
    """
    terms, den = form
    d = form_degree(form)
    # powers[i][k]: (base_i + direction_i t)^k, lowest power first, up to its
    # last nonzero entry, so a zero direction entry leaves one entry
    powers = [[[1]] for _ in base]
    out: dict[Exponent, list[int]] = {}
    for e, c in terms.items():
        coef = c * s ** (d - sum(e))
        for a, weight in _taylor_weights(e, order):
            term = [coef * weight]
            for i, k in enumerate(e):
                k -= a[i]
                if k:
                    pw = powers[i]
                    while len(pw) <= k:
                        prev = pw[-1]
                        nxt = [base[i] * x + direction[i] * y for x, y in zip(prev + [0], [0] + prev)]
                        while nxt and not nxt[-1]:
                            nxt.pop()
                        pw.append(nxt)
                    conv = [0] * (len(term) + len(pw[k]) - 1)
                    for m, x in enumerate(term):
                        for l, y in enumerate(pw[k]):
                            conv[m + l] += x * y
                    term = conv
            acc = out.get(a)
            if acc is None:
                acc = out[a] = [0] * (d - sum(a) + 1)
            for m, x in enumerate(term):
                acc[m] += x
    return out, den * s ** max(d, 0)


def _fixed_lines(nvars: int) -> list[tuple[list[int], list[int]]]:
    """Three fixed integer lines (base, direction), none through the
    origin or along an axis, on which the line certificates test a
    polynomial."""
    return [
        ([(k + i) ** 2 % 11 - 5 for i in range(nvars)], [k * (i + 1) ** 2 % 13 - 6 for i in range(nvars)])
        for k in range(1, 4)
    ]


def univariate_gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd up to a constant of two nonzero integer polynomials given as
    coefficient lists, highest power first and leading entry nonzero: a
    primitive remainder sequence.  A list of length 1 means a constant gcd."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        lb = b[0]
        while len(a) >= len(b):
            la = a[0]
            pad = b + [0] * (len(a) - len(b))
            a = [lb * x - la * y for x, y in zip(a[1:], pad[1:])]
            lead = next((i for i, x in enumerate(a) if x), len(a))
            a = a[lead:]
        if not a:
            return b
        g = gcd(*a)
        a, b = b, [x // g for x in a]
    return b


def _univariate_square_free(r: list[int]) -> bool:
    """True iff the integer polynomial r (highest power first, r[0] != 0)
    has a constant gcd with its derivative."""
    n = len(r) - 1
    return len(univariate_gcd(r, [c * (n - i) for i, c in enumerate(r[:-1])])) == 1


def square_free_on_lines(form: Form) -> bool:
    """Whether a fixed line certifies a nonconstant form square-free: if p
    restricted to a line keeps its degree and is square-free, so is p (were
    p = g^2 h, g restricted would keep its degree, and its square divide)."""
    nvars = len(next(iter(form[0])))
    for base, direction in _fixed_lines(nvars):
        r = _line_expansion(form, base, direction, 1, 0)[0][(0,) * nvars][::-1]
        if r[0] and _univariate_square_free(r):
            return True
    return False


def primitive_terms(terms: dict[Exponent, int]) -> dict[Exponent, int]:
    """The primitive integer multiple of nonzero terms with positive
    graded-lex leading coefficient: equal for two forms iff they are
    proportional."""
    g = gcd(*terms.values())
    if terms[max(terms, key=grlex_key)] < 0:
        g = -g
    return {e: c // g for e, c in terms.items()}


def square_free(form: Form) -> bool:
    """Whether the polynomial of a nonconstant form has no repeated factor.

    A variable whose square divides every term refutes it at once; a
    fixed line certifies it (square_free_on_lines); else it is square-free
    exactly when the gcd of the form and its partial derivatives
    (zgcd.term_gcd) is constant.
    """
    terms = form[0]
    nvars = len(next(iter(terms)))
    if any(all(e[i] > 1 for e in terms) for i in range(nvars)):
        return False
    if square_free_on_lines(form):
        return True
    from .zgcd import term_gcd

    g = terms
    for i in range(nvars):
        partial = {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in terms.items() if e[i]}
        if partial:
            g = term_gcd(g, partial)
            if not form_degree((g, 1)):
                return True
    return False


class Surface:
    """A squarefree trivariate polynomial, kept as its known factor list.

    Each factor is held and checked as its form: not constant, square-free
    (square_free, on integers), and not proportional to an earlier one;
    poly is imported only to render a factor that is refused as not
    square-free.  Immutable; surfaces are equal when their forms are.
    factors, the Poly views, is built on first read.
    """

    forms: tuple[Form, ...]
    degrees: tuple[int, ...]

    def __init__(self, factors: Sequence[Poly]):
        factors = tuple(factors)
        self._check((w.form, w.nvars) for w in factors)
        self.__dict__["factors"] = factors

    @classmethod
    def from_forms(cls, forms: Iterable[Form]) -> Surface:
        surface = cls.__new__(cls)
        surface._check((w, 3) for w in forms)
        return surface

    def _check(self, forms: Iterable[tuple[Form, int]]) -> None:  # (form, nvars) pairs
        checked: dict[frozenset, Form] = {}
        for form, nvars in forms:
            if nvars != 3:
                raise ArityError("surface factors must be trivariate")
            if form_degree(form) < 1:
                raise DomainError("constant factor in surface")
            if not square_free(form):
                from .poly import Poly  # only to render the refused factor

                raise DomainError(f"factor {Poly.from_form(3, form).render()} is not square-free")
            key = frozenset(primitive_terms(form[0]).items())
            if key in checked:
                raise DomainError("repeated factor in surface")
            checked[key] = form
        if not checked:
            raise DomainError("surface needs at least one factor")
        kept = tuple(checked.values())
        self.__dict__.update(forms=kept, degrees=tuple(map(form_degree, kept)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Surface is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Surface is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.forms == other.forms

    def __hash__(self) -> int:
        return hash(self.degrees)  # equal forms have equal degrees

    def __repr__(self) -> str:
        return f"Surface(factors={self.factors!r})"

    @cached_property
    def factors(self) -> tuple[Poly, ...]:
        from .poly import Poly

        return tuple(Poly.from_form(3, w) for w in self.forms)

    @property
    def degree(self) -> int:
        return sum(self.degrees)
