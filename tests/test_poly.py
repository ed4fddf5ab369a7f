"""Tests for the exact polynomial layer.

Expected values below were worked out by hand (binomial expansions, 2x2 and
3x3 determinants) and frozen; property tests cross-check the algebra against
plain rational evaluation, which is independent of the symbolic code paths.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incgeo.errors import ArityError, DomainError
from incgeo.poly import Poly, divides, variables
from incgeo.surfaces import _taylor
from incgeo.zgcd import term_gcd
from incgeo.zpoly import (
    _line_expansion,
    _univariate_square_free,
    _unpack,
    form_quotient,
    grlex_key,
    square_free,
    univariate_determinant,
    univariate_divides,
    univariate_sylvester,
)
from polyref import (
    coeffs_in,
    diff,
    evaluate,
    exact_div,
    is_square_free,
    matrix_determinant,
    poly_gcd,
    quotient,
    remove_content,
    restrict_to_line,
    substitute,
    sylvester_determinant,
    vars_used,
)

X, Y, Z = variables(3)


def frac_vec(*vals):
    return [Fraction(v) for v in vals]


# -- construction and arithmetic ----------------------------------------


def test_zero_polynomial_degree_is_minus_one():
    assert Poly.zero(3).degree() == -1
    assert (X - X).degree() == -1
    assert (X - X).is_zero


def test_constructor_drops_zero_coefficients():
    p = Poly(2, {(1, 0): 0, (0, 1): 2})
    assert p.terms == {(0, 1): Fraction(2)}


def test_constructor_rejects_bad_exponents():
    with pytest.raises(ArityError):
        Poly(2, {(1, 0, 0): 1})
    with pytest.raises(DomainError):
        Poly(2, {(-1, 0): 1})


def test_grlex_leading_term():
    p = X**2 + X * Y * Z + Y**3
    # degree 3 terms: xyz (1,1,1) and y^3 (0,3,0); lex puts (1,1,1) first
    assert max(p.terms, key=grlex_key) == (1, 1, 1)
    # the primitive form makes the leading coefficient positive
    assert remove_content(-2 * p) == p


def test_eval_example_and_arity():
    f = X**2 - Y**2 * Z
    assert evaluate(f, frac_vec(2, 1, 4)) == 0
    assert evaluate(f, frac_vec(1, 1, 2)) == -1
    with pytest.raises(ArityError):
        evaluate(f, frac_vec(1, 2))


def test_partial_derivative_matches_hand_result():
    f = X**2 - Y**2 * Z
    assert diff(f, 0) == 2 * X
    assert diff(f, 1) == -2 * Y * Z
    assert diff(f, 2) == -(Y**2)
    assert diff(Poly.const(3, 5), 1).is_zero


# -- taylor components --------------------------------------------------


def taylor_components(p, at):
    """The homogeneous parts of p(at + x), degree 0 first, read off the
    expansion along a line with direction zero: its order k is
    den*s^(d-k) times the degree-k part, for at = P/s."""
    at = [Fraction(c) for c in at]
    s = lcm(*(c.denominator for c in at))
    d = p.degree()
    parts, scale = _line_expansion(p.form, [int(c * s) for c in at], [0] * len(at), s, max(d, 0))
    out: list[dict] = [{} for _ in range(d + 1)]
    for a, c in parts.items():
        assert not any(c[1:])  # a zero direction leaves nothing in t
        out[sum(a)][a] = Fraction(c[0] * s ** sum(a), scale)
    return [Poly(p.nvars, terms) for terms in out]


def test_taylor_components_at_origin():
    f = X**2 - Y**2 * Z
    parts = taylor_components(f, frac_vec(0, 0, 0))
    assert parts == [Poly.zero(3), Poly.zero(3), X**2, -(Y**2) * Z]


def test_taylor_components_sphere_at_pole():
    f = X**2 + Y**2 + Z**2 - 1
    parts = taylor_components(f, frac_vec(0, 0, 1))
    assert parts == [Poly.zero(3), 2 * Z, X**2 + Y**2 + Z**2]


def test_taylor_components_sum_reconstructs_shift():
    rng = random.Random(7)
    for _ in range(20):
        p = _random_poly(rng, 3, max_deg=4)
        at = frac_vec(rng.randint(-3, 3), rng.randint(-3, 3), Fraction(rng.randint(-6, 6), 2))
        total = sum(taylor_components(p, at), Poly.zero(3))
        # evaluating the shift at x - at recovers p(x) on sample points
        probe = frac_vec(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
        moved = [q - a for q, a in zip(probe, at)]
        assert evaluate(total, moved) == evaluate(p, probe)


# -- resultants ----------------------------------------------------------


def resultant(p, q, var):
    """Resultant of p and q in one variable: the Sylvester determinant of
    their coefficient lists in that variable."""
    return sylvester_determinant(coeffs_in(p, var)[::-1], coeffs_in(q, var)[::-1], p.nvars)


def test_sylvester_resultant_quadratic_example():
    v, t = variables(2)
    res = resultant(v**2 - t, v - 1, 0)
    assert res == Poly(2, {(0, 0): 1, (0, 1): -1})


def test_sylvester_resultant_two_linear():
    (v,) = variables(1)
    res = resultant(2 * v + 3, 5 * v + 7, 0)
    assert res.terms == {(0,): Fraction(-1)}  # 2*7 - 3*5


def test_sylvester_resultant_detects_common_root():
    (v,) = variables(1)
    p = (v - 2) * (v - 3)
    q = (v - 2) * (v - 5)
    assert resultant(p, q, 0).is_zero
    r = (v - 4) * (v - 5)
    assert not resultant(p, r, 0).is_zero


def test_sylvester_resultant_vanishes_iff_shared_factor():
    v, t = variables(2)
    p = (v - t) * (v + 1)
    q = (v - t) * (v - 2)
    assert resultant(p, q, 0).is_zero
    q2 = (v + t) * (v - 2)
    res = resultant(p, q2, 0)
    # res vanishes exactly at t values where roots collide: -t = t or -t = -1
    assert not res.is_zero
    assert evaluate(res, [Fraction(0), Fraction(0)]) == 0
    assert evaluate(res, [Fraction(0), Fraction(3)]) != 0


def test_sylvester_determinant_takes_highest_power_first():
    t, _ = variables(2)
    one, zero = Poly.const(2, 1), Poly.zero(2)
    # v - t against v^2 - 1: g(t) for the monic linear f
    assert sylvester_determinant([one, -t], [one, zero, -one], 2) == t**2 - 1
    # v - t against v^2 - t^2: common root v = t
    assert sylvester_determinant([one, -t], [one, zero, -(t**2)], 2).is_zero
    # binary forms whose leading coefficients both vanish share the root (1:0)
    assert sylvester_determinant([zero, one, -t], [zero, one, t, one], 2).is_zero


# -- division, gcd, square-free -------------------------------------------


def test_divides_basic_examples():
    assert divides(X - Y, X**2 - Y**2)
    assert not divides(X - Y, X**2 + Y**2)
    assert divides(X - Y, Poly.zero(3))
    with pytest.raises(DomainError):
        divides(Poly.zero(3), X)


def test_exact_div_recovers_cofactor():
    f = X**2 - Y**2
    assert exact_div(f, X - Y) == X + Y
    with pytest.raises(DomainError):
        exact_div(X**2 + Y**2, X - Y)


def test_divides_random_products():
    rng = random.Random(3)
    for _ in range(25):
        f = _random_poly(rng, 3, max_deg=2, nonzero=True)
        h = _random_poly(rng, 3, max_deg=2)
        g = f * h
        assert divides(f, g)
        if not h.is_zero:
            assert exact_div(g, f) == h
        assert not divides(f, g + 1) or divides(f, Poly.const(3, 1))


def test_poly_gcd_examples():
    # the integer gcd and its Fraction oracle, on hand-checked examples
    cases = [
        ((X - Y) ** 2 * (X + Z), (X - Y) * (X + Y), X - Y),
        (X * Y, Z, Poly.const(3, 1)),
        (Poly.zero(3), X * Y, X * Y),
        (Poly.zero(3), -2 * X, X),
    ]
    for f, g, want in cases:
        assert poly_gcd(f, g) == want
        assert term_gcd(f.form[0], g.form[0]) == want.form[0]
    assert term_gcd({}, {}) == {}
    with pytest.raises(ArityError):
        term_gcd(X.form[0], {(1, 0): 1})


def test_poly_gcd_divides_both_inputs():
    rng = random.Random(17)
    for _ in range(15):
        a = _random_poly(rng, 3, max_deg=2, nonzero=True)
        b = _random_poly(rng, 3, max_deg=2, nonzero=True)
        c = _random_poly(rng, 3, max_deg=1, nonzero=True)
        g = Poly(3, term_gcd((a * c).form[0], (b * c).form[0]))
        assert divides(g, a * c)
        assert divides(g, b * c)
        assert divides(c, g) or c.degree() == 0


def test_is_square_free():
    assert square_free((X * Y - 1).form)
    assert not square_free((X**2 * Y).form)
    # x^2 divides every term: refused before any gcd
    assert not square_free((X**3 * Y - 2 * X**2 * Z**4 + X**2).form)
    assert is_square_free(Poly.const(3, 4))


# -- property tests -------------------------------------------------------

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def polys(draw, nvars=2, max_deg=3, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, max_deg)) for _ in range(nvars))
        terms[e] = draw(small_fracs)
    return Poly(nvars, terms)


@settings(max_examples=80, deadline=None)
@given(polys(nvars=3, max_deg=3, max_terms=6), st.tuples(small_fracs, small_fracs, small_fracs))
def test_shift_matches_substitution(p, at):
    # p(at + x) by substituting x_i + at_i, independent of the integer
    # expansion, split by degree
    shifted = substitute(p, [v + a for v, a in zip((X, Y, Z), at)])
    parts = taylor_components(p, at)
    assert len(parts) == p.degree() + 1
    for k, part in enumerate(parts):
        assert part == Poly(3, {e: c for e, c in shifted.terms.items() if sum(e) == k})


def reference_restriction(p, base, direction):
    """Reference: substitute b_i + d_i*t for variable i, on Fractions."""
    t = Poly.variable(1, 0)
    return substitute(p, [Poly.const(1, Fraction(b)) + Fraction(d) * t for b, d in zip(base, direction)])


# entries with denominators, and zeros
line_entries = st.one_of(st.just(0), st.integers(-5, 5), st.fractions(-5, 5, max_denominator=7))
line_triples = st.tuples(line_entries, line_entries, line_entries)


@settings(max_examples=150, deadline=None)
@given(polys(nvars=3, max_deg=3, max_terms=6), line_triples, line_triples)
def test_restrict_to_line_matches_substitution(p, base, direction):
    assert restrict_to_line(p, base, direction) == reference_restriction(p, base, direction)


@settings(max_examples=100, deadline=None)
@given(polys(nvars=3, max_deg=3, max_terms=6), line_triples, line_triples)
def test_line_expansion_matches_substitution(p, base, direction):
    # with base = B/s and direction = D/s, F(B + t*D + y) = scale*p(base + t*direction + y/s),
    # so its y^a part is scale/s^|a| times the y^a part of p(base + t*direction + y)
    base, direction = [Fraction(c) for c in base], [Fraction(c) for c in direction]
    s = lcm(*(c.denominator for c in base + direction))
    bv, dv = [int(c * s) for c in base], [int(c * s) for c in direction]
    t, *y = variables(4)
    r = substitute(p, [b + c * t + yi for b, c, yi in zip(base, direction, y)])
    d = p.degree()
    for order in range(3):
        parts, scale = _line_expansion(p.form, bv, dv, s, order)
        assert scale == lcm(*(c.denominator for c in p.terms.values())) * s ** max(d, 0)
        expected: dict = {}
        for e, c in r.terms.items():
            if sum(e[1:]) <= order:
                expected.setdefault(e[1:], [0] * (d - sum(e[1:]) + 1))[e[0]] = scale * c / s ** sum(e[1:])
        assert all(len(c) == d - sum(a) + 1 and sum(a) <= order for a, c in parts.items())
        assert all(isinstance(x, int) for c in parts.values() for x in c)
        assert {a: c for a, c in parts.items() if any(c)} == expected


@settings(max_examples=100, deadline=None)
@given(polys(nvars=3, max_deg=3, max_terms=6), st.integers(0, 3))
def test_taylor_matches_substitution(p, order):
    # the y^a part of den*p(x + y), den the form's, by substitution on Fractions
    den = p.form[1]
    width = (p.degree() + 1).bit_length() + 1
    x = variables(6)
    r = substitute(p, [x[i] + x[3 + i] for i in range(3)])
    expected: dict = {}
    for e, c in r.terms.items():
        if sum(e[3:]) <= order:
            expected.setdefault(e[3:], {})[e[:3]] = den * c
    data = _taylor(p.form, order, width)
    assert all(isinstance(c, int) for terms in data.values() for c in terms.values())
    assert {a: Poly(3, _unpack(terms, 3, width)) for a, terms in data.items()} == {
        a: Poly(3, terms) for a, terms in expected.items()
    }


def test_restrict_to_line_on_zero_constant_and_large_factors():
    base, direction = (Fraction(1, 7), Fraction(-3, 2), 0), (Fraction(2, 3), 0, Fraction(-4, 5))
    assert restrict_to_line(Poly.zero(3), base, direction) == Poly.zero(1)
    assert restrict_to_line(Poly.const(3, Fraction(-5, 6)), base, direction) == Poly.const(1, Fraction(-5, 6))
    # 64 terms of degree up to 64, one at the top degree
    rng = random.Random(1)
    terms = {(20, 30, 14): Fraction(3, 4)}
    while len(terms) < 64:
        a = rng.randint(0, 64)
        b = rng.randint(0, 64 - a)
        terms[(a, b, rng.randint(0, 64 - a - b))] = Fraction(rng.randint(1, 50) * rng.choice((-1, 1)), rng.randint(1, 9))
    p = Poly(3, terms)
    assert (p.degree(), len(p.terms)) == (64, 64)
    r = restrict_to_line(p, base, direction)
    assert r == reference_restriction(p, base, direction)
    assert r.degree() == 64


def test_restrict_to_line_checks_arity():
    with pytest.raises(ArityError):
        restrict_to_line(X + Y, (0, 0), (1, 1, 1))


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.tuples(small_fracs, small_fracs))
def test_eval_is_ring_homomorphism(p, q, at):
    pt = list(at)
    assert evaluate(p + q, pt) == evaluate(p, pt) + evaluate(q, pt)
    assert evaluate(p * q, pt) == evaluate(p, pt) * evaluate(q, pt)


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_mul_commutes_and_degree_adds(p, q):
    assert p * q == q * p
    if not p.is_zero and not q.is_zero:
        assert (p * q).degree() == p.degree() + q.degree()


@st.composite
def linear_forms(draw):
    """A nonconstant a0 + a1 x + a2 y + a3 z with small integer coefficients."""
    a = draw(st.tuples(*[st.integers(-3, 3)] * 4).filter(lambda a: any(a[1:])))
    return a[0] + a[1] * X + a[2] * Y + a[3] * Z


# Factors stay small: the gcd blows up on dense inputs, and with factors of
# degree up to 2 in each variable some planted squares g^2 h run past 5 s.
@settings(max_examples=40, deadline=None)
@given(polys(nvars=3, max_deg=1, max_terms=4), polys(nvars=3, max_deg=1, max_terms=4))
def test_planted_square_is_not_square_free(g, h):
    if g.degree() < 1 or h.is_zero:
        return
    assert not square_free((g**2 * h).form)


@settings(max_examples=40, deadline=None)
@given(st.lists(linear_forms(), min_size=1, max_size=3), st.integers(1, 5))
def test_distinct_irreducible_factors_are_square_free(factors, scale):
    distinct = {remove_content(f) for f in factors}
    product = Poly.const(3, scale)
    for f in distinct:
        product = product * f
    assert square_free(product.form)


# -- helpers ---------------------------------------------------------------


def _random_poly(rng, nvars, max_deg, nonzero=False):
    terms = {}
    for _ in range(rng.randint(0 if not nonzero else 1, 5)):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
    p = Poly(nvars, terms)
    if nonzero and p.is_zero:
        return Poly.const(nvars, 1) + Poly.variable(nvars, 0)
    return p


# -- integer kernel: determinant and exact division ------------------------
#
# matrix_determinant and sylvester_determinant are the Poly oracles of
# polyref, on zpoly's packed kernels; Laplace expansion checks them.


def laplace_determinant(mat, nvars):
    """Reference determinant: cofactor expansion along the first row."""
    if not mat:
        return Poly.const(nvars, 1)
    total = Poly.zero(nvars)
    for j, entry in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total = total + (-1) ** j * entry * laplace_determinant(minor, nvars)
    return total


@st.composite
def square_matrices(draw, nvars=2, max_deg=2):
    """0x0 to 4x4 matrices with rational polynomial entries; some with zero
    leading entries down the first column (forcing row swaps), some with a
    last row that is a polynomial multiple of the first (singular)."""
    n = draw(st.integers(0, 4))
    rows = [[draw(polys(nvars=nvars, max_deg=max_deg, max_terms=3)) for _ in range(n)] for _ in range(n)]
    for i in range(draw(st.integers(0, n))):
        rows[i][0] = Poly.zero(nvars)
    if n >= 2 and draw(st.booleans()):
        c = draw(polys(nvars=nvars, max_deg=1, max_terms=2))
        rows[-1] = [c * x for x in rows[0]]
    return rows


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_matrix_determinant_matches_laplace_expansion(mat):
    assert matrix_determinant(mat, 2) == laplace_determinant(mat, 2)


def term_map(p: Poly) -> dict[int, int]:
    """An integer univariate Poly as zpoly's term map {power: coefficient}."""
    return {e: int(c) for (e,), c in p.terms.items()}


def coefficient_list(p: Poly) -> list[int]:
    """An integer univariate Poly's coefficients, highest power first, as
    zpoly's kernels give them ([] for zero)."""
    return [int(p.terms.get((e,), 0)) for e in range(p.degree(), -1, -1)]


def integer_rows(mat):
    """mat with each row scaled to integer coefficients."""
    return [[p * lcm(*(q.form[1] for q in row)) for p in row] for row in mat]


@settings(max_examples=150, deadline=None)
@given(square_matrices(nvars=1, max_deg=6))
def test_univariate_determinant_matches_laplace_expansion(mat):
    # the evaluation at t = 2^k must leave every coefficient its own digit
    mat = integer_rows(mat)
    expected = coefficient_list(laplace_determinant(mat, 1))
    assert univariate_determinant([[term_map(p) for p in row] for row in mat]) == expected


def test_univariate_determinant_reads_back_large_and_negative_coefficients():
    t = Poly.variable(1, 0)
    big = 3**40
    mat = integer_rows([[big * t**3 - 1, t + Fraction(1, 7)], [-t, big - t**2]])
    expected = coefficient_list(laplace_determinant(mat, 1))
    assert univariate_determinant([[term_map(p) for p in row] for row in mat]) == expected
    assert univariate_determinant([[term_map(t), term_map(t)], [term_map(t**2), term_map(t**2)]]) == []


# integer univariate polynomials with wide, negative and zero coefficients,
# as Polys; the zero polynomial among them
wide_integers = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))
integer_polys = st.dictionaries(st.integers(0, 4), wide_integers, max_size=3).map(
    lambda terms: Poly(1, {(e,): c for e, c in terms.items()})
)


@settings(max_examples=100, deadline=None)
@given(st.lists(integer_polys, min_size=1, max_size=4), st.lists(integer_polys, min_size=1, max_size=4),
       st.booleans())
def test_univariate_sylvester_matches_laplace_expansion(a, b, at_infinity):
    if at_infinity:  # zero leading coefficients: a common root at (1:0)
        a[0] = b[0] = Poly.zero(1)
    n = len(a) + len(b) - 2
    zero = Poly.zero(1)
    mat = [
        [zero] * i + coeffs + [zero] * (n - i - len(coeffs))
        for coeffs, shifts in ((a, len(b) - 1), (b, len(a) - 1))
        for i in range(shifts)
    ]
    got = univariate_sylvester([term_map(p) for p in a], [term_map(p) for p in b])
    assert got == coefficient_list(laplace_determinant(mat, 1))
    if at_infinity and n:
        assert got == []


@settings(max_examples=150, deadline=None)
@given(integer_polys, integer_polys, integer_polys, st.integers(-6, 6), st.booleans())
def test_univariate_divides_matches_poly_divides(f, g, h, content, planted):
    # f with a content, over a g that is a multiple of f when planted
    f = f * content
    if f.is_zero:
        return
    if planted:
        g = f * h
    assert univariate_divides(coefficient_list(f), coefficient_list(g)) == divides(f, g)


def test_matrix_determinant_rejects_a_ragged_matrix():
    with pytest.raises(DomainError):
        matrix_determinant([[X, Y]], 3)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([2, 3]))
def test_term_gcd_matches_the_fraction_oracle(data, nvars):
    # a planted common factor c; a rational input is read as its numerators
    a, b = (data.draw(polys(nvars=nvars, max_deg=2, max_terms=4)) for _ in range(2))
    c = data.draw(polys(nvars=nvars, max_deg=2, max_terms=3))
    f, g = a * c, b * c
    want = poly_gcd(f, g)
    assert want.form[1] == 1
    assert term_gcd(f.form[0], g.form[0]) == want.form[0]


# negative rationals other than -1
negative_scales = st.tuples(st.integers(2, 6), st.integers(1, 5)).filter(lambda ab: ab[0] != ab[1])


@settings(max_examples=120, deadline=None)
@given(
    polys(nvars=3, max_deg=2, max_terms=4),
    polys(nvars=3, max_deg=2, max_terms=4),
    negative_scales.map(lambda ab: -Fraction(*ab)),
)
def test_exact_div_multiplies_back(f, q, scale):
    if f.degree() < 1:
        return
    # non-primitive, rational, negative graded-lex leading sign
    f = scale * remove_content(f)
    assert f.terms[max(f.terms, key=grlex_key)] < 0
    g = q * f
    assert divides(f, g)
    assert exact_div(g, f) == q
    # f divides g + r only if it divides r, and r is a nonzero constant
    assert not divides(f, g + scale)
    with pytest.raises(DomainError):
        exact_div(g + scale, f)


# rational scales of either sign, 1 and -1 among them
scales = st.tuples(st.integers(1, 6), st.integers(1, 5), st.booleans()).map(
    lambda t: Fraction(t[0], t[1]) * (-1 if t[2] else 1)
)


@settings(max_examples=150, deadline=None)
@given(
    polys(nvars=3, max_deg=2, max_terms=4),
    polys(nvars=3, max_deg=2, max_terms=4),
    polys(nvars=3, max_deg=3, max_terms=3),
    scales,
    st.booleans(),
)
def test_form_quotient_matches_the_fraction_division(f, h, r, scale, planted):
    # a non-primitive rational divisor, over a multiple of it when planted
    # and else over a multiple plus a random remainder, which rarely divides
    if f.is_zero:
        return
    f = scale * f
    g = f * h if planted else f * h + r
    want = quotient(g, f)
    got = form_quotient(g.form, f.form)
    assert (got is None) == (want is None)
    if planted:
        assert want == h
    if want is not None:
        assert got == want.form
        assert exact_div(g, f) == want


def test_kernel_field_width_follows_the_degree_bound():
    big = 2**16 + 3  # beyond a 16-bit exponent field
    f = X**big - 2 * Y
    assert exact_div(f * (X**big + Z), f) == X**big + Z
    assert divides(X * Y**big, X**big * Y**big)
    assert not divides(Y**2, X**big * Y)  # a borrow out of a wide field
    assert not divides(X**2, X * Y**big)
    mat = [[X**big, Y], [Y, X**big]]
    assert matrix_determinant(mat, 3) == X ** (2 * big) - Y**2
    # the second elimination step multiplies two minors of degree big + 1
    one, zero = Poly.const(3, 1), Poly.zero(3)
    mat = [[X**big, one, one], [one, Y, zero], [one, zero, Z]]
    assert matrix_determinant(mat, 3) == X**big * Y * Z - Y - Z


# -- square-free certificate ----------------------------------------------


def gcd_square_free(p):
    """Reference: a nonconstant p is square-free iff its gcd with all its
    partial derivatives is constant."""
    g = p
    for var in vars_used(p):
        g = poly_gcd(g, diff(p, var))
    return g.degree() == 0


small_int_triples = st.tuples(*[st.integers(-6, 6)] * 3)


@settings(max_examples=80, deadline=None)
@given(polys(nvars=3, max_deg=3, max_terms=6), small_int_triples, small_int_triples)
def test_certificate_restriction_matches_substitution(p, base, direction):
    # the square-free certificate's restriction: the order-0 expansion of
    # the form along an integer line, lowest power first
    if p.degree() < 1:
        return
    d = p.degree()
    den = lcm(*(c.denominator for c in p.terms.values()))
    parts, scale = _line_expansion(p.form, base, direction, 1, 0)
    assert scale == den  # integer lines need no scaling
    r = reference_restriction(p, base, direction)
    assert parts[0, 0, 0] == [den * r.terms.get((j,), 0) for j in range(d + 1)]


@settings(max_examples=80, deadline=None)
@given(polys(nvars=1, max_deg=4, max_terms=4), polys(nvars=1, max_deg=3, max_terms=4), st.booleans())
def test_univariate_square_free_agrees_with_the_gcd(g, h, square):
    r = g**2 * h if square else g * h
    if r.degree() < 1:
        return
    d = r.degree()
    den = lcm(*(c.denominator for c in r.terms.values()))
    coeffs = [int(den * r.terms.get((d - j,), 0)) for j in range(d + 1)]
    assert _univariate_square_free(coeffs) == (poly_gcd(r, diff(r, 0)).degree() == 0)


@settings(max_examples=60, deadline=None)
@given(polys(nvars=3, max_deg=1, max_terms=4), polys(nvars=3, max_deg=1, max_terms=4), st.booleans())
def test_square_free_certificate_agrees_with_the_gcd_test(g, h, square):
    if g.degree() < 1 or h.is_zero:
        return
    p = g**2 * h if square else g * h
    assert square_free(p.form) == gcd_square_free(p) == is_square_free(p)
    if square:
        assert not square_free(p.form)
