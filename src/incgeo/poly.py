"""Sparse multivariate polynomials over the rationals.

Coefficients are fractions.Fraction throughout the API; nothing in this
module ever rounds.  Inside, the determinant and exact division run on
integer term maps with packed monomials, and the expansion along a line on
integer coefficient lists.  A polynomial is a map from exponent tuples to
nonzero coefficients, wrapped in an immutable Poly object.  Monomials are
ordered graded lexicographically (total degree first, then lex with
variable 0 highest); the zero polynomial has degree -1.

Beyond ring arithmetic the module provides the calculus and elimination
tools the geometry layers need: one integer expansion along a line (with
direction zero, around a point), the integer Taylor data at a symbolic
point, polynomial determinants (Bareiss) and the Sylvester determinant
built on them, single-divisor exact division, multivariate gcd, and a
square-free test with a certificate on lines.

Surface, the container of a surface's known square-free factor list, lives
here too: checking its factors needs only the square-free test and the
content, so reading or writing a surface file loads no surface analysis.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import comb, gcd, lcm, prod
from typing import Mapping, Sequence

from .errors import ArityError, DomainError

Exponent = tuple[int, ...]

RatLike = int | Fraction


def _frac(value: RatLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def grlex_key(e: Exponent) -> tuple[int, Exponent]:
    """Sort key realizing graded lex order: compare total degree, then lex."""
    return (sum(e), e)


class Poly:
    """Immutable sparse polynomial with Fraction coefficients.

    Zero coefficients are dropped on construction, so two polynomials are
    equal iff their term maps are equal.  Instances hash, so a set of them
    finds repeated factors.
    """

    __slots__ = ("nvars", "terms", "_hash")

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

    # -- basic queries -------------------------------------------------

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

    def leading(self) -> tuple[Exponent, Fraction]:
        """Graded-lex leading term of a nonzero polynomial."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

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

    # -- evaluation and derivatives --------------------------------------

    def eval(self, at: Sequence[RatLike]) -> Fraction:
        if len(at) != self.nvars:
            raise ArityError(f"expected {self.nvars} coordinates, got {len(at)}")
        pt = [_frac(a) for a in at]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for a, k in zip(pt, e):
                if k:
                    v *= a**k
            total += v
        return total

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


# -- spec-level operations ---------------------------------------------


def restrict_to_line(p: Poly, base: Sequence[RatLike], direction: Sequence[RatLike]) -> Poly:
    """Univariate polynomial t -> p(base + t*direction), divided back once
    from its integer expansion."""
    if len(base) != p.nvars or len(direction) != p.nvars:
        raise ArityError("base/direction arity does not match polynomial")
    coeffs, scale = _line_coeffs(p, base, direction)
    return Poly(1, {(j,): Fraction(c, scale) for j, c in enumerate(reversed(coeffs))})


# -- division, gcd, resultants -----------------------------------------


# The determinant and exact division run on integer term maps {packed
# monomial: int}.  A monomial packs into one int of `width`-bit fields: from
# the top, the total degree, then e[0], e[1], ...  Multiplying monomials is
# adding ints, and int order is graded lex order.  The width is one bit more
# than the operation's degree bound needs, so for packed m, n the difference
# m - n borrows across a field (n does not divide m) exactly when it is
# negative or shows one of those top guard bits.


def _guard(nvars: int, width: int) -> int:
    bit = 1 << (width - 1)
    return sum(bit << (i * width) for i in range(nvars + 1))


def _den(polys: Sequence[Poly]) -> int:
    """Least common denominator of the coefficients of polys."""
    return lcm(*(c.denominator for p in polys for c in p.terms.values()))


def _pack(p: Poly, width: int, den: int) -> dict[int, int]:
    """Packed integer term map of den*p; den is a multiple of _den((p,))."""
    out = {}
    for e, c in p.terms.items():
        m = sum(e)
        for k in e:
            m = (m << width) | k
        out[m] = c.numerator * (den // c.denominator)
    return out


def _unpack(terms: dict[int, int], nvars: int, width: int, den: int) -> Poly:
    """The Poly with term map terms/den."""
    mask = (1 << width) - 1
    out = {}
    for m, c in terms.items():
        e = [0] * nvars
        for i in range(nvars - 1, -1, -1):
            e[i] = m & mask
            m >>= width
        out[tuple(e)] = Fraction(c, den)
    return Poly(nvars, out)


def _zcross(a: dict[int, int], d: dict[int, int], b: dict[int, int], c: dict[int, int]) -> dict[int, int]:
    """a*d - b*c on integer term maps."""
    out: dict[int, int] = {}
    get = out.get
    for ea, ca in a.items():
        for ed, cd in d.items():
            e = ea + ed
            out[e] = get(e, 0) + ca * cd
    for eb, cb in b.items():
        for ec, cc in c.items():
            e = eb + ec
            out[e] = get(e, 0) - cb * cc
    return {e: v for e, v in out.items() if v}


def _zquot(g: dict[int, int], f: dict[int, int], guard: int) -> dict[int, int] | None:
    """Quotient g/f in Z[x] by division in graded lex order, or None as soon
    as a term of g's remainder shows up, that is when f does not divide g
    over Z.  f is nonzero; all monomials fit the packing behind guard."""
    lt_e = max(f)
    lt_c = f[lt_e]
    rest = [(e, c) for e, c in f.items() if e != lt_e]
    work = dict(g)
    heap = [-e for e in work]  # heapq pops smallest: walk graded lex from the top
    heapq.heapify(heap)
    quot = {}
    while heap:
        e = -heapq.heappop(heap)
        c = work.pop(e)
        if not c:
            continue
        q_e = e - lt_e
        if q_e < 0 or q_e & guard:
            return None
        q_c, r = divmod(c, lt_c)
        if r:
            return None
        quot[q_e] = q_c
        for fe, fc in rest:
            te = q_e + fe  # below e, so not yet popped
            prev = work.get(te)
            if prev is None:
                heapq.heappush(heap, -te)
                work[te] = -q_c * fc
            else:
                work[te] = prev - q_c * fc
    return quot


def _exact_quotient(g: Poly, f: Poly) -> Poly | None:
    """Quotient g/f, or None when f does not divide g.  By Gauss's lemma,
    f divides g over Q exactly when f's primitive integer part divides an
    integer multiple of g over Z."""
    g._check_same(f)
    if f.is_zero:
        raise DomainError("division by the zero polynomial")
    if g.is_zero:
        return Poly.zero(g.nvars)
    if f.degree() > g.degree():
        return None
    width = g.degree().bit_length() + 1
    g_den, f_den = _den((g,)), _den((f,))
    fz = _pack(f, width, f_den)
    f_num = gcd(*fz.values())
    q = _zquot(_pack(g, width, g_den), {e: c // f_num for e, c in fz.items()}, _guard(g.nvars, width))
    if q is None:
        return None
    return _unpack({e: c * f_den for e, c in q.items()}, g.nvars, width, g_den * f_num)


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


def rational_content(p: Poly) -> Fraction:
    """Positive rational c with p/c integer-coefficient and primitive.

    The sign is normalized separately; content of zero is defined as 1.
    """
    if p.is_zero:
        return Fraction(1)
    den = lcm(*(c.denominator for c in p.terms.values()))
    num = gcd(*(abs(c.numerator) for c in p.terms.values()))
    return Fraction(num, den)


def remove_content(p: Poly) -> Poly:
    """Scale to integer primitive form with positive graded-lex leading sign."""
    if p.is_zero:
        return p
    c = rational_content(p)
    out = p * (1 / c)
    if out.leading()[1] < 0:
        out = -out
    return out


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


def _taylor_weights(e: Exponent, order: int) -> Sequence[tuple[Exponent, int]]:
    """The pairs (a, prod comb(e_i, a_i)) for a <= e with |a| <= order: the
    y^a coefficient of (x + y)^e is the weight times x^(e - a).  Order 0,
    the restriction to a line, is the hot case and needs no product."""
    if not order:
        return (((0,) * len(e), 1),)
    ranges = (range(min(k, order) + 1) for k in e)
    return [(a, prod(map(comb, e, a))) for a in itertools.product(*ranges) if sum(a) <= order]


def _line_expansion(
    p: Poly, base: Sequence[int], direction: Sequence[int], s: int, order: int
) -> tuple[dict[Exponent, list[int]], int]:
    """The expansion of p along the line X(t) = (base + t*direction)/s, on
    integers, up to the given order in the transverse variables y, and scale.

    With d = deg p and den the lcm of p's denominators, F(y) = den*s^d*p(y/s)
    has integer coefficients and F(base + t*direction + y) = scale*p(X(t) + y/s)
    for scale = den*s^d.  Each a with |a| <= order that some term reaches maps
    to the y^a coefficient of F(base + t*direction + y), a list in t, lowest
    power first, of length d - |a| + 1.  The term c*x^e gives
    den*c*s^(d-|e|) times comb(e_i, a_i)*(base_i + t*direction_i)^(e_i-a_i)
    over i; exponents a above order are never formed.

    With direction zero it expands around the point q = base/s: entry 0 of
    the y^a list is den*s^(d-|a|) times the x^a coefficient of p(q + x), so
    each order of the Taylor expansion at q comes out as one positive
    multiple of it, p(q) and the gradient among them.
    """
    d = p.degree()
    den = _den((p,))
    # powers[i][k]: (base_i + direction_i t)^k, lowest power first, up to its
    # last nonzero entry, so a zero direction entry leaves one entry
    powers = [[[1]] for _ in range(p.nvars)]
    out: dict[Exponent, list[int]] = {}
    for e, c in p.terms.items():
        coef = c.numerator * (den // c.denominator) * s ** (d - sum(e))
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


def _taylor(p: Poly, order: int, width: int, den: int) -> dict[Exponent, dict[int, int]]:
    """The Taylor data of p at a symbolic point x, on integers, up to the
    given order: each a with |a| <= order that some term reaches maps to the
    y^a coefficient of den*p(x + y), a packed integer term map in x (_pack;
    den is a multiple of _den((p,))).  The term c*x^e gives
    den*c*prod comb(e_i, a_i) at x^(e - a)."""
    out: dict[Exponent, dict[int, int]] = {}
    for e, c in p.terms.items():
        coef = c.numerator * (den // c.denominator)
        for a, weight in _taylor_weights(e, order):
            m = sum(e) - sum(a)
            for k, j in zip(e, a):
                m = (m << width) | (k - j)
            out.setdefault(a, {})[m] = coef * weight
    return out


def _line_coeffs(p: Poly, base: Sequence[RatLike], direction: Sequence[RatLike]) -> tuple[list[int], int]:
    """Integer coefficients of t -> scale*p(base + t*direction), highest
    power of t first, padded to length deg p + 1, and scale: the order-0
    part of _line_expansion, with base = B/s and direction = D/s for the
    lcm s of their denominators.
    """
    b, v = [_frac(a) for a in base], [_frac(a) for a in direction]
    s = lcm(*(a.denominator for a in b + v))
    bv = [a.numerator * (s // a.denominator) for a in b]
    dv = [a.numerator * (s // a.denominator) for a in v]
    parts, scale = _line_expansion(p, bv, dv, s, 0)
    return parts.get((0,) * p.nvars, [])[::-1], scale


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


def is_square_free(p: Poly) -> bool:
    """True iff p has no repeated factor.

    If p restricted to a line keeps p's degree and is square-free, so is p
    (were p = g^2 h, g restricted would keep its degree, and its square
    divide); if three fixed lines fail, the gcd of p and its partials decides.
    The restrictions run on integer coefficient lists.
    """
    if p.is_zero:
        return False
    d = p.degree()
    if d == 0:
        return True
    for base, direction in _fixed_lines(p.nvars):
        r, _ = _line_coeffs(p, base, direction)
        if r[0] and _univariate_square_free(r):
            return True
    g = p
    for var in p.vars_used():
        g = poly_gcd(g, p.diff(var))
        if g.degree() == 0:
            return True
    return g.degree() == 0


class Surface:
    """A squarefree trivariate polynomial, kept as its known factor list.

    Immutable; surfaces are equal when their factor tuples are.
    """

    __slots__ = ("factors",)

    factors: tuple[Poly, ...]

    def __init__(self, factors: Sequence[Poly]):
        factors = tuple(factors)
        if not factors:
            raise DomainError("surface needs at least one factor")
        seen = set()
        for w in factors:
            if w.nvars != 3:
                raise ArityError("surface factors must be trivariate")
            if w.degree() < 1:
                raise DomainError("constant factor in surface")
            if not is_square_free(w):
                raise DomainError(f"factor {w.render()} is not square-free")
            key = remove_content(w)
            if key in seen:
                raise DomainError("repeated factor in surface")
            seen.add(key)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Surface is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Surface is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.factors,))

    def __repr__(self) -> str:
        return f"Surface(factors={self.factors!r})"

    @property
    def degree(self) -> int:
        return sum(w.degree() for w in self.factors)


def _bareiss(m: list[list], step) -> tuple[object, int]:
    """Fraction-free elimination of a square matrix over Z or Z[x], in
    place: its determinant up to the sign of the row swaps, and that sign.
    step(a, d, b, c, p) is (a*d - b*c)/p, exact; p is None at the first
    step, whose divisor is 1."""
    n, sign, prev = len(m), 1, None
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return m[k][k], sign
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = step(m[i][j], m[k][k], m[i][k], m[k][j], prev)
        prev = m[k][k]
    return m[n - 1][n - 1], sign


def matrix_determinant(mat: list[list[Poly]], nvars: int) -> Poly:
    """Exact determinant of a square matrix of polynomials.

    Each row is scaled by the lcm of its denominators, and Bareiss
    elimination runs on the integer matrix, where every division is exact
    in Z[x]; the result is its determinant over the product of the scales.
    Univariate entries are evaluated at t = 2^k first, so the elimination
    runs on integers (_univariate_determinant).
    """
    if any(len(row) != len(mat) for row in mat):
        raise DomainError("determinant needs a square matrix")
    n = len(mat)
    if n == 0:
        return Poly.const(nvars, 1)
    if nvars == 1:
        return _univariate_determinant(mat)
    # a product of two minors bounds every degree the elimination reaches
    width = (2 * sum(max(max(p.degree() for p in row), 0) for row in mat)).bit_length() + 1
    guard = _guard(nvars, width)
    m, scale = [], 1
    for row in mat:
        den = _den(row)
        m.append([_pack(p, width, den) for p in row])
        scale *= den

    def step(a, d, b, c, p):
        cross = _zcross(a, d, b, c)
        return cross if p is None else _zquot(cross, p, guard)

    det, sign = _bareiss(m, step)
    return _unpack(det, nvars, width, sign * scale)


def _univariate_determinant(mat: list[list[Poly]]) -> Poly:
    """matrix_determinant for univariate entries, as one integer.

    With each row scaled to integers, every coefficient of the determinant
    is at most the permanent of the entries' coefficient 1-norms, so at
    most the product of the row sums of those norms; k is one bit above
    it.  The entries are evaluated at t = 2^k, the integer determinant is
    taken by Bareiss elimination, and its balanced base-2^k digits are the
    coefficients.
    """
    rows, scale = [], 1
    for row in mat:
        den = _den(row)
        rows.append([[(e, c.numerator * (den // c.denominator)) for (e,), c in p.terms.items()] for p in row])
        scale *= den
    k = prod(sum(abs(c) for p in row for _, c in p) for row in rows).bit_length() + 1
    m = [[sum(c << (k * e) for e, c in p) for p in row] for row in rows]
    det, sign = _bareiss(m, lambda a, d, b, c, p: a * d - b * c if p is None else (a * d - b * c) // p)
    det *= sign
    half, mask = 1 << (k - 1), (1 << k) - 1
    terms, e = {}, 0
    while det:
        digit = ((det + half) & mask) - half
        if digit:
            terms[e,] = Fraction(digit, scale)
        det = (det - digit) >> k
        e += 1
    return Poly(1, terms)


def sylvester_determinant(a: Sequence[Poly], b: Sequence[Poly], nvars: int) -> Poly:
    """Sylvester determinant of two coefficient lists, highest power first:
    len(b) - 1 shifted rows of a above len(a) - 1 shifted rows of b."""
    n = len(a) + len(b) - 2
    zero = Poly.zero(nvars)
    mat: list[list[Poly]] = []
    for coeffs, shifts in ((a, len(b) - 1), (b, len(a) - 1)):
        for i in range(shifts):
            row = [zero] * n
            for j, c in enumerate(coeffs):
                row[i + j] = c
            mat.append(row)
    return matrix_determinant(mat, nvars)

