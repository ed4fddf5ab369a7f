"""Integer forms of polynomials, the kernels that read them, and Surface.

A polynomial's form is (terms, den): its coefficients' integer numerators
over den, the lcm of their reduced denominators, zero terms dropped, so
equal polynomials have equal forms.  A form is expanded along a line (with
direction zero, around a point) and certified square-free on three fixed
lines here.  One builder makes the Sylvester rows of two coefficient
lists, and one Bareiss elimination takes their determinant: the line
certificate of surfaces runs on integer lists in t (at t = 2^k), and the
full flecnode witness on packed term maps, where the exact division of
form_quotient also runs (poly's divides reads it).  A factor that no line
certifies square-free is decided by the gcd of zgcd, on integers.  Every
exact linear solve of the package runs on the fraction-free integer
echelon.  Surface holds its factors as forms, so a surface file is read,
checked, written and measured without poly or fractions; poly's Poly
caches its form, and Surface.factors, the Poly views, loads poly, as does
rendering a refused factor.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import comb, gcd, lcm, prod
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


def univariate_divides(f: list[int], g: list[int]) -> bool:
    """Whether the nonzero integer polynomial f divides g over Q, both
    highest power first with leading entry nonzero ([] for zero).  By
    Gauss's lemma f's primitive part p then divides g over Z, so every step
    of g's long division by p is exact in Z."""
    c = gcd(*f)
    p = [x // c for x in f]
    while len(g) >= len(p):
        q, r = divmod(g[0], p[0])
        if r:
            return False
        g = [x - q * y for x, y in zip(g[1:], p[1:] + [0] * (len(g) - len(p)))]
        g = g[next((i for i, x in enumerate(g) if x), len(g)) :]
    return not g


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


def univariate_determinant(mat: Sequence[Sequence[dict[int, int]]]) -> list[int]:
    """Determinant of a square matrix of integer polynomials in t, each a
    term map {power: coefficient}: its coefficients, highest power first
    with leading entry nonzero ([] for zero).

    Every coefficient of the determinant is at most the permanent of the
    entries' coefficient 1-norms, so at most the product of the row sums of
    those norms; k is one bit above it.  The entries are evaluated at
    t = 2^k, the integer determinant is taken by Bareiss elimination, and
    its balanced base-2^k digits are the coefficients.
    """
    if not mat:
        return [1]
    k = prod(sum(abs(c) for p in row for c in p.values()) for row in mat).bit_length() + 1
    m = [[sum(c << (k * e) for e, c in p.items()) for p in row] for row in mat]
    det, sign = _bareiss(m, lambda a, d, b, c, p: a * d - b * c if p is None else (a * d - b * c) // p)
    det *= sign
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while det:
        digit = ((det + half) & mask) - half
        out.append(digit)
        det = (det - digit) >> k
    return out[::-1]


def sylvester_rows(a: Sequence, b: Sequence, zero) -> list[list]:
    """The Sylvester matrix of two coefficient lists, highest power first:
    len(b) - 1 shifted rows of a above len(a) - 1 shifted rows of b, zero
    elsewhere."""
    n = len(a) + len(b) - 2
    rows = ((coeffs, i) for coeffs, shifts in ((a, len(b) - 1), (b, len(a) - 1)) for i in range(shifts))
    return [[zero] * i + list(c) + [zero] * (n - i - len(c)) for c, i in rows]


def univariate_sylvester(a: Sequence[dict[int, int]], b: Sequence[dict[int, int]]) -> list[int]:
    """univariate_determinant of the Sylvester matrix of two coefficient
    lists of term maps in t."""
    return univariate_determinant(sylvester_rows(a, b, {}))


# The witness determinant and exact division run on integer term maps
# {packed monomial: int}.  A monomial packs into one int of `width`-bit
# fields: from the top, the total degree, then e[0], e[1], ...  Multiplying
# monomials is adding ints, and int order is graded lex order.  The width is
# one bit more than the operation's degree bound needs, so for packed m, n
# the difference m - n borrows across a field (n does not divide m) exactly
# when it is negative or shows one of those top guard bits.


def _guard(nvars: int, width: int) -> int:
    bit = 1 << (width - 1)
    return sum(bit << (i * width) for i in range(nvars + 1))


def _pack(terms: dict[Exponent, int], width: int) -> dict[int, int]:
    """The packed term map of an integer term map."""
    out = {}
    for e, c in terms.items():
        m = sum(e)
        for k in e:
            m = (m << width) | k
        out[m] = c
    return out


def _unpack(packed: dict[int, int], nvars: int, width: int) -> dict[Exponent, int]:
    """The integer term map of a packed one."""
    mask = (1 << width) - 1
    out = {}
    for m, c in packed.items():
        e = [0] * nvars
        for i in range(nvars - 1, -1, -1):
            e[i] = m & mask
            m >>= width
        out[tuple(e)] = c
    return out


def _zcross(a: dict[int, int], d: dict[int, int], b: dict[int, int], c: dict[int, int]) -> dict[int, int]:
    """a*d - b*c on packed term maps."""
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
    import heapq

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


def form_quotient(g: Form, f: Form) -> Form | None:
    """The form of g/f, or None when f does not divide g.  By Gauss's
    lemma, f divides g over Q exactly when f's primitive integer part
    divides g's numerators over Z; the quotient is that one over den."""
    if not f[0]:
        raise DomainError("division by the zero polynomial")
    if not g[0]:
        return {}, 1
    d = form_degree(g)
    if form_degree(f) > d:
        return None
    nvars, width = len(next(iter(g[0]))), d.bit_length() + 1
    content = gcd(*f[0].values())
    q = _zquot(_pack(g[0], width), _pack({e: c // content for e, c in f[0].items()}, width), _guard(nvars, width))
    if q is None:
        return None
    # g/f = q * f_den / (g_den * content), reduced to the canonical form
    terms, den = {e: c * f[1] for e, c in _unpack(q, nvars, width).items()}, g[1] * content
    k = gcd(den, *terms.values())
    return {e: c // k for e, c in terms.items()}, den // k


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
