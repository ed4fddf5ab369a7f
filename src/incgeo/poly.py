"""Sparse multivariate polynomials over the rationals.

Coefficients are fractions.Fraction throughout the API; nothing in this
module ever rounds.  Each Poly caches its integer form of zpoly
(Poly.form), on which a line or a point is expanded and exact division
runs (witness.form_quotient, on packed term maps).  A polynomial is a map
from exponent tuples to nonzero coefficients, wrapped in an immutable
Poly object.  Monomials are ordered graded lexicographically (total
degree first, then lex with variable 0 highest); the zero polynomial has
degree -1.

It is the ring view: arithmetic, render, the cached form and divides
(witness.form_quotient).  The flecnode witness, its divisibility test,
Surface and its square-free check (zpoly.square_free) run on zpoly forms,
and the gcd that decides what no certificate settles on integer term
maps (zgcd), so the analysis builds a Poly only for flecnode_polynomial's
result, for Surface.factors and to render a refused factor.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping

from .errors import ArityError, DomainError
from .zpoly import Exponent, Form, grlex_key

RatLike = int | Fraction


def _frac(value: RatLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class Poly:
    """Immutable sparse polynomial with Fraction coefficients.

    Zero coefficients are dropped on construction, so two polynomials are
    equal iff their term maps are equal.  Instances hash, so a set of them
    finds repeated factors.
    """

    __slots__ = ("nvars", "terms", "_hash", "_form")

    def __init__(self, nvars: int, terms: Mapping[Exponent, RatLike] | None = None):
        if nvars < 0:
            raise DomainError("nvars must be nonnegative")
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ArityError(f"exponent {e} has length {len(e)}, expected {nvars}")
                if any(k < 0 for k in e):
                    raise DomainError(f"negative exponent in {e}")
                fc = _frac(c)
                if fc:
                    clean[tuple(e)] = fc
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_form", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> Poly:
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, value: RatLike) -> Poly:
        return Poly(nvars, {(0,) * nvars: _frac(value)})

    @staticmethod
    def variable(nvars: int, index: int) -> Poly:
        if not 0 <= index < nvars:
            raise DomainError(f"variable index {index} out of range for {nvars} vars")
        e = tuple(1 if i == index else 0 for i in range(nvars))
        return Poly(nvars, {e: Fraction(1)})

    @staticmethod
    def from_form(nvars: int, form: Form) -> Poly:
        """The polynomial terms/den of an integer form (terms, den)."""
        terms, den = form
        p = Poly(nvars, {e: Fraction(c, den) for e, c in terms.items()})
        object.__setattr__(p, "_form", form)
        return p

    # -- basic queries -------------------------------------------------

    @property
    def form(self) -> Form:
        """The integer form: numerators over the lcm of the denominators."""
        form = self._form
        if form is None:
            den = lcm(*(c.denominator for c in self.terms.values()))
            form = {e: c.numerator * (den // c.denominator) for e, c in self.terms.items()}, den
            object.__setattr__(self, "_form", form)
        return form

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check_same(self, other: Poly) -> None:
        if self.nvars != other.nvars:
            raise ArityError(f"mixed arities {self.nvars} and {other.nvars}")

    # -- ring structure ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __neg__(self) -> Poly:
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: Poly | RatLike) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        self._check_same(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other: Poly | RatLike) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other: RatLike) -> Poly:
        return (-self) + other

    def __mul__(self, other: Poly | RatLike) -> Poly:
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if not c:
                return Poly.zero(self.nvars)
            return Poly(self.nvars, {e: k * c for e, k in self.terms.items()})
        self._check_same(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(e)
                out[e] = c1 * c2 if acc is None else acc + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise DomainError("negative power")
        out = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __repr__(self) -> str:
        return f"Poly({self.render()})"

    def render(self) -> str:
        """Human-readable form, mostly for error messages and reports."""
        if not self.terms:
            return "0"
        names = "xyzw" if self.nvars <= 4 else [f"x{i}" for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def variables(nvars: int) -> tuple[Poly, ...]:
    """Convenience tuple of the coordinate polynomials."""
    return tuple(Poly.variable(nvars, i) for i in range(nvars))


def divides(f: Poly, g: Poly) -> bool:
    """True iff f divides g exactly (f nonzero; g zero is divisible)."""
    if f.is_zero:
        raise DomainError("divisibility by the zero polynomial is undefined")
    g._check_same(f)
    from .witness import form_quotient

    return form_quotient(g.form, f.form) is not None
