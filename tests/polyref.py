"""Reference computations on Fraction polynomials, for the tests.

The package expands along lines and at points on integers only; the tests
check those expansions against this plain composition of Poly arithmetic,
which shares no code with them.  restrict_to_line, the Poly of one such
expansion along a line, is what the tests read a restriction off.  The
evaluator and the division algorithm on Fraction terms check the integer
kernels pointwise; the Poly witness path below checks the one on packed
term maps, and the gcd on Fraction polynomials the one on integer term
maps (zgcd.term_gcd).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from incgeo.errors import ArityError, DomainError
from incgeo.poly import Poly
from incgeo.surfaces import _chart_forms
from incgeo.zpoly import (
    Exponent,
    _bareiss,
    _guard,
    _line_expansion,
    _pack,
    _taylor_weights,
    _unpack,
    _zcross,
    _zquot,
    form_quotient,
    grlex_key,
    primitive_terms,
    square_free_on_lines,
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


# -- derivatives, coefficients, exact division and gcd on Polys --------------
#
# The package takes gcds on integer term maps (zgcd.term_gcd); this is the
# primitive remainder sequence on Fraction polynomials that it replaced.


def degree_in(p: Poly, var: int) -> int:
    """Degree in one variable; -1 for the zero polynomial."""
    return max((e[var] for e in p.terms), default=-1)


def vars_used(p: Poly) -> tuple[int, ...]:
    return tuple(i for i in range(p.nvars) if any(e[i] for e in p.terms))


def diff(p: Poly, var: int) -> Poly:
    """The partial derivative of p in one variable."""
    if not 0 <= var < p.nvars:
        raise DomainError(f"variable index {var} out of range for {p.nvars} vars")
    out: dict[Exponent, Fraction] = {}
    for e, c in p.terms.items():
        k = e[var]
        if k:
            e2 = e[:var] + (k - 1,) + e[var + 1 :]
            out[e2] = out.get(e2, Fraction(0)) + c * k
    return Poly(p.nvars, out)


def coeffs_in(p: Poly, var: int) -> list[Poly]:
    """Coefficients [c_0, ..., c_d] of var^k, as polynomials without var."""
    buckets: list[dict[Exponent, Fraction]] = [dict() for _ in range(degree_in(p, var) + 1)]
    for e, c in p.terms.items():
        buckets[e[var]][e[:var] + (0,) + e[var + 1 :]] = c
    return [Poly(p.nvars, b) for b in buckets]


def exact_div(g: Poly, f: Poly) -> Poly:
    """Quotient g/f when the division is exact; DomainError otherwise."""
    g._check_same(f)
    q = form_quotient(g.form, f.form)
    if q is None:
        raise DomainError("division is not exact")
    return Poly.from_form(g.nvars, q)


def remove_content(p: Poly) -> Poly:
    """Scale to integer primitive form with positive graded-lex leading sign."""
    return p if p.is_zero else Poly.from_form(p.nvars, (primitive_terms(p.form[0]), 1))


def _content_and_primitive(p: Poly, var: int) -> tuple[Poly, Poly]:
    """Content of p in var, and p over it scaled to integer primitive form,
    which keeps the coefficients of a remainder sequence from growing."""
    coeffs = [c for c in coeffs_in(p, var) if not c.is_zero]
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
    db = degree_in(b, var)
    lb = coeffs_in(b, var)[db]
    r = a
    while not r.is_zero:
        dr = degree_in(r, var)
        if dr < db:
            break
        lr = coeffs_in(r, var)[dr]
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
    fv, gv = vars_used(f), vars_used(g)
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
    if degree_in(a, var) < degree_in(b, var):
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
    for var in vars_used(p):
        g = poly_gcd(g, diff(p, var))
        if g.degree() == 0:
            return True
    return g.degree() == 0


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
        return remove_content(exact_div(res, diff(f, c) ** 6))
    except DomainError:
        return None
