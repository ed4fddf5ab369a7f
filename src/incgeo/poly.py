"""Sparse multivariate polynomials over the rationals.

Coefficients are fractions.Fraction throughout the API; nothing in this
module ever rounds.  Each Poly caches its integer form of zpoly
(Poly.form), on which a line or a point is expanded and exact division
runs (zpoly.form_quotient, on packed term maps).  A polynomial is a map
from exponent tuples to nonzero coefficients, wrapped in an immutable
Poly object.  Monomials are ordered graded lexicographically (total
degree first, then lex with variable 0 highest); the zero polynomial has
degree -1.

Beyond ring arithmetic the module provides partial derivatives,
single-divisor exact division, multivariate gcd, and a square-free test
that falls back on the gcd when zpoly's certificate on lines says
nothing.  It is a library view: the flecnode witness, its divisibility
test and Surface, the container of a surface's factor list, run on zpoly
forms, so the analysis builds a Poly only for flecnode_polynomial's
result, for Surface.factors and in the two gcd fallbacks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping

from .errors import ArityError, DomainError
from .zpoly import Exponent, Form, form_quotient, grlex_key, primitive_terms, square_free_on_lines

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

    def degree_in(self, var: int) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        self._check_var(var)
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def vars_used(self) -> tuple[int, ...]:
        used = [False] * self.nvars
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used[i] = True
        return tuple(i for i, u in enumerate(used) if u)

    def _check_var(self, var: int) -> None:
        if not 0 <= var < self.nvars:
            raise DomainError(f"variable index {var} out of range for {self.nvars} vars")

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

    # -- derivatives -----------------------------------------------------

    def diff(self, var: int) -> Poly:
        self._check_var(var)
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            k = e[var]
            if k:
                e2 = e[:var] + (k - 1,) + e[var + 1 :]
                out[e2] = out.get(e2, Fraction(0)) + c * k
        return Poly(self.nvars, out)

    def coeffs_in(self, var: int) -> list[Poly]:
        """Coefficients [c_0, ..., c_d] of var^k, as polynomials without var."""
        self._check_var(var)
        d = self.degree_in(var)
        if d < 0:
            return []
        buckets: list[dict[Exponent, Fraction]] = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            k = e[var]
            e2 = e[:var] + (0,) + e[var + 1 :]
            buckets[k][e2] = c
        return [Poly(self.nvars, b) for b in buckets]


def variables(nvars: int) -> tuple[Poly, ...]:
    """Convenience tuple of the coordinate polynomials."""
    return tuple(Poly.variable(nvars, i) for i in range(nvars))


# -- division and gcd ---------------------------------------------------


def _exact_quotient(g: Poly, f: Poly) -> Poly | None:
    """Quotient g/f, or None when f does not divide g (zpoly.form_quotient)."""
    g._check_same(f)
    q = form_quotient(g.form, f.form)
    return None if q is None else Poly.from_form(g.nvars, q)


def divides(f: Poly, g: Poly) -> bool:
    """True iff f divides g exactly (f nonzero; g zero is divisible)."""
    if f.is_zero:
        raise DomainError("divisibility by the zero polynomial is undefined")
    return _exact_quotient(g, f) is not None


def exact_div(g: Poly, f: Poly) -> Poly:
    """Quotient g/f when the division is exact; DomainError otherwise."""
    q = _exact_quotient(g, f)
    if q is None:
        raise DomainError("division is not exact")
    return q


def remove_content(p: Poly) -> Poly:
    """Scale to integer primitive form with positive graded-lex leading sign."""
    return p if p.is_zero else Poly.from_form(p.nvars, (primitive_terms(p.form[0]), 1))


def _content_and_primitive(p: Poly, var: int) -> tuple[Poly, Poly]:
    """Content of p in var, and p over it scaled to integer primitive form,
    which keeps the coefficients of a remainder sequence from growing."""
    coeffs = [c for c in p.coeffs_in(var) if not c.is_zero]
    cont = Poly.zero(p.nvars)
    for c in coeffs:
        cont = poly_gcd(cont, c)
        if cont.degree() == 0:
            cont = remove_content(cont)
            break
    return cont, remove_content(exact_div(p, cont))


def _pseudo_reduce(a: Poly, b: Poly, var: int) -> Poly:
    """Reduce a by b in var, multiplying by powers of b's leading coefficient.

    Output agrees with the classical pseudo-remainder up to a unit times a
    power of that leading coefficient, which is all a primitive PRS needs.
    """
    db = b.degree_in(var)
    b_coeffs = b.coeffs_in(var)
    lb = b_coeffs[db]
    r = a
    while not r.is_zero:
        dr = r.degree_in(var)
        if dr < db:
            break
        lr = r.coeffs_in(var)[dr]
        xshift = Poly(r.nvars, {tuple(dr - db if i == var else 0 for i in range(r.nvars)): Fraction(1)})
        r = r * lb - b * lr * xshift
    return r


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Greatest common divisor over Q, integer primitive, positive leading sign.

    Multivariate gcd by the classical primitive remainder sequence: recurse
    on contents with respect to the highest variable present, run the PRS on
    the primitive parts.
    """
    if f.is_zero and g.is_zero:
        return Poly.zero(f.nvars)
    if f.is_zero:
        return remove_content(g)
    if g.is_zero:
        return remove_content(f)
    f._check_same(g)
    if f.degree() == 0 or g.degree() == 0:
        return Poly.const(f.nvars, 1)
    fv, gv = f.vars_used(), g.vars_used()
    var = max(max(fv, default=-1), max(gv, default=-1))
    f_has, g_has = var in fv, var in gv
    if f_has and not g_has:
        cont_f, _ = _content_and_primitive(f, var)
        return poly_gcd(cont_f, g)
    if g_has and not f_has:
        cont_g, _ = _content_and_primitive(g, var)
        return poly_gcd(f, cont_g)
    cont_f, prim_f = _content_and_primitive(f, var)
    cont_g, prim_g = _content_and_primitive(g, var)
    cont = poly_gcd(cont_f, cont_g)
    a, b = prim_f, prim_g
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_reduce(a, b, var)
        if r.is_zero:
            a, b = b, r
            break
        _, r = _content_and_primitive(r, var)
        a, b = b, r
    return remove_content(cont * a)


def is_square_free(p: Poly) -> bool:
    """True iff p has no repeated factor: certified on the fixed lines of
    zpoly (square_free_on_lines), else decided by the gcd of p and its
    partials."""
    if p.is_zero:
        return False
    if p.degree() == 0 or square_free_on_lines(p.form):
        return True
    g = p
    for var in p.vars_used():
        g = poly_gcd(g, p.diff(var))
        if g.degree() == 0:
            return True
    return g.degree() == 0
