"""Surface analysis: the expansion around a point, singular lines,
flecnodes, classification, line search, exceptional lines and
generator-count sums.

Oracles are hand-checked fixtures: the quadric cone x^2+y^2-z^2, the
hyperbolic paraboloid z-xy, the unit sphere, the singly ruled cubic
x^2-y^2*z with its singular z-axis, and the smooth cubic x^3+y^3+z^3-1.
"""

import hashlib
import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from incgeo import exceptional, surfaces, witness, zgcd, zsolve
from incgeo.errors import (
    ArityError,
    DegreeError,
    DomainError,
    ExceptionalLineError,
    InvariantViolation,
    NotOnSurfaceError,
)
from incgeo.instfile import IncidenceInstance, dumps_instance
from incgeo.forge import ORIGIN as FORGE_ORIGIN
from incgeo.forge import make_lines
from incgeo.lattice import lattice_relation, scaled_form
from incgeo.linespace import AffLine, RelationKind, line_on_surface, line_relation
from incgeo.poly import Poly, divides, variables
from incgeo.witness import _unpack
from incgeo.zpoly import _fixed_lines, _line_expansion, square_free
from incgeo.exceptional import (
    check_firstflip,
    exceptional_lines,
    find_lines_through_point,
    lambda_counts,
)
from incgeo.surfaces import (
    ClassificationResult,
    Surface,
    Verdict,
    classify_component,
    flecnode_polynomial,
    ruled_indicator,
)
from incgeo.zsolve import symmetric_inertia
from linref import nullspace, rank
from polyref import (
    chart_eliminant,
    degree_in,
    diff,
    evaluate,
    poly_gcd,
    remove_content,
    restrict_to_line,
    substitute,
)

X, Y, Z = variables(3)
CONE = X**2 + Y**2 - Z**2
REGULUS = Z - X * Y
SPHERE = X**2 + Y**2 + Z**2 - 1
RULED_CUBIC = X**2 - Y**2 * Z
SMOOTH_CUBIC = X**3 + Y**3 + Z**3 - 1

Z_AXIS = AffLine((0, 0, 0), (0, 0, 1))
Y_AXIS = AffLine((0, 0, 0), (0, 1, 0))


def cubic_generator(c: int) -> AffLine:
    """Ruling of the cubic: x = c*t, y = t, z = c^2."""
    return AffLine((0, 0, Fraction(c * c)), (Fraction(c), 1, 0))


def cone_generator(a: int, b: int) -> AffLine:
    """Cone ruling through the origin from a Pythagorean pair."""
    return AffLine((0, 0, 0), (a * a - b * b, 2 * a * b, a * a + b * b))


# -- surface container


def test_surface_builds_product():
    s = Surface([CONE, REGULUS])
    assert s.degree == 4
    assert s.factors == (CONE, REGULUS)
    assert Surface([CONE, REGULUS, RULED_CUBIC]).degree == 7
    assert s == Surface([CONE, REGULUS])


def test_surface_rejects_non_squarefree_factor():
    with pytest.raises(DomainError):
        Surface([X**2])


def test_surface_rejects_repeated_factor():
    with pytest.raises(DomainError):
        Surface([CONE, 3 * CONE])


# -- the expansion around a point, and singular lines


def point_parts(f: Poly, p) -> list[Poly]:
    """The Taylor parts of f at p, order 0 first, as the line search and
    the cone apex test read them: the expansion along a line with
    direction zero, each order a positive multiple of the true part."""
    parts = surfaces._at_point(f.form, scaled_form(tuple(Fraction(c) for c in p)), f.degree())
    return [Poly(3, {a: c for a, c in parts.items() if sum(a) == k}) for k in range(f.degree() + 1)]


def test_singular_point_cone_apex():
    at_apex, smooth = point_parts(CONE, (0, 0, 0)), point_parts(CONE, (3, 4, 5))
    assert at_apex[0].is_zero and at_apex[1].is_zero
    assert smooth[0].is_zero and not smooth[1].is_zero


def test_multiplicity_and_tangent_cone_at_pinch():
    assert point_parts(RULED_CUBIC, (0, 0, 0))[:3] == [Poly.zero(3), Poly.zero(3), X**2]


def test_multiplicity_on_singular_axis():
    assert point_parts(RULED_CUBIC, (0, 0, 1))[:3] == [Poly.zero(3), Poly.zero(3), X**2 - Y**2]


def test_multiplicity_smooth_point():
    assert point_parts(SPHERE, (0, 0, 1))[:2] == [Poly.zero(3), 2 * Z]


# the vanishing order of f along a line at p is the lowest power of t in
# f(p + t*d), read off restrict_to_line; a contained line restricts to zero


def test_intersection_multiplicity_tangent_line():
    assert restrict_to_line(SPHERE, (0, 0, 1), (1, 0, 0)).terms == {(2,): 1}


def test_intersection_multiplicity_transversal():
    assert min(e[0] for e in restrict_to_line(SPHERE, (0, 0, 1), (0, 0, 1)).terms) == 1


def test_intersection_multiplicity_contained_line():
    assert restrict_to_line(RULED_CUBIC, (0, 0, 2), Z_AXIS.direction).is_zero


def test_singular_line_of_ruled_cubic():
    assert exceptional._tangent_pencil(RULED_CUBIC.form, Z_AXIS.lattice) is None
    assert exceptional._tangent_pencil(RULED_CUBIC.form, cubic_generator(2).lattice) is not None


def test_singular_line_requires_containment():
    with pytest.raises(NotOnSurfaceError):
        exceptional._tangent_pencil(SPHERE.form, Z_AXIS.lattice)


# -- flecnode witness


def test_flecnode_needs_degree_three():
    with pytest.raises(DegreeError):
        flecnode_polynomial(CONE)


U, V = variables(2)
A, B, C, D = variables(4)


@pytest.mark.parametrize("analysis", [classify_component, ruled_indicator, flecnode_polynomial])
@pytest.mark.parametrize("factor", [U**2 + V**2 - 1, U**3 - V**2 + U, A**2 + B * C - D, A**3 + B * C * D - 1])
def test_factors_must_be_trivariate(analysis, factor):
    # surfaces._form is the one arity check; a bivariate quadric read as a
    # cylinder and a 4-variable cubic failed with IndexError before it
    with pytest.raises(ArityError, match="trivariate"):
        analysis(factor)
    with pytest.raises(ArityError, match="trivariate"):
        analysis(factor.form)


def test_flecnode_of_ruled_cubic():
    fl = flecnode_polynomial(RULED_CUBIC)
    assert fl.degree() == 12
    assert divides(RULED_CUBIC, fl)
    # the osculation locus: the surface plus the two planes where the
    # tangent direction system degenerates
    assert fl == remove_content(Y**8 * Z * RULED_CUBIC)


def test_flecnode_of_cayley_style_cubic():
    cubic = X**2 * Z - Y**3
    fl = flecnode_polynomial(cubic)
    assert fl.degree() == 15
    assert divides(cubic, fl)
    assert fl == remove_content(X**8 * Z * cubic**2)


def test_flecnode_of_smooth_cubic():
    fl = flecnode_polynomial(SMOOTH_CUBIC)
    assert fl.degree() <= 15
    assert not divides(SMOOTH_CUBIC, fl)


def test_flecnode_degree_cap():
    for f in (RULED_CUBIC, SMOOTH_CUBIC, X * Y * Z - 1, X**3 - Y * Z + 1):
        assert flecnode_polynomial(f).degree() <= 11 * f.degree() - 18


def test_flecnode_vanishes_at_flecnodes():
    # every point of a ruled surface carries a tritangent (contained) line
    fl = flecnode_polynomial(RULED_CUBIC)
    for p in [(2, 1, 4), (3, 1, 9), (Fraction(1, 2), 1, Fraction(1, 4))]:
        assert evaluate(fl, p) == 0


# sha256 of each witness's sorted terms, recorded with the Fraction Bareiss
# determinant that preceded the integer kernel: two seeded cubics on each
# of the benchmark's sparse supports (integer, then rational coefficients)
# and one dense cubic.
CUBIC_SUPPORTS = {
    "c5a": ((1, 1, 0), (1, 0, 2), (1, 0, 1), (0, 0, 3), (0, 0, 2)),
    "c5b": ((1, 1, 1), (1, 0, 1), (0, 2, 0), (0, 0, 1), (0, 0, 0)),
    "c6a": ((1, 1, 0), (1, 0, 2), (1, 0, 1), (0, 2, 0), (0, 0, 3), (0, 0, 2)),
    "c7b": ((1, 1, 0), (1, 0, 2), (1, 0, 1), (0, 2, 0), (0, 0, 3), (0, 0, 2), (1, 0, 0)),
    "dense": tuple((a, b, d - a - b) for d in range(4) for a in range(d + 1) for b in range(d - a + 1)),
}
WITNESS_SHA256 = {
    ("c5a", 0): "45f947e3f39ce8bb3ec212f51072165519ef6cd8724d31b8b858f2789037ea3f",
    ("c5a", 1): "bcc18507f4f938be3b69683a13a132029f7404530f42ee93c42504c0d6c425a0",
    ("c5b", 0): "841069241e6c24571a6eb02f6e978eeb8614810d0d60ee94e8ca8cecf2db6490",
    ("c5b", 1): "573fffce423e75d397bdfe9f08e46a5968839b61fe0360a7f573b06cd465082a",
    ("c6a", 0): "616392221d5f9bf31b2c9d4ccee62279a1af4e09b9fa28b5194ae0ed44b78b89",
    ("c6a", 1): "676c6ef58e44e46d07642ddf83e89284fceb4d062e5efa93959f8659f4009eaa",
    ("c7b", 0): "4ac77a81591d1101ba3ac6820340786fd14b4aac4cdf0a158f125955e06e40ea",
    ("c7b", 1): "ebf8d99e8c63b3081253373de067adeea1e96805bd8650736d5ce27bdb1d0bf3",
}
DENSE_WITNESS_SHA256 = "074bf57a942ccb5f65c378338be3f453dcf5a7563d4d846617c37843cd7a5aaa"


def pinned_cubic(name, k):
    """Seeded cubic on a support: integer coefficients for k = 0, rational
    ones for k = 1; sparse ones are redrawn until square-free."""
    rng = random.Random(f"witness-pin:{name}:{k}")

    def coeff():
        if k == 0:
            return rng.choice((-3, -2, -1, 1, 2, 3))
        return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.choice((1, 2, 3, 4)))

    while True:
        f = Poly(3, {e: coeff() for e in CUBIC_SUPPORTS[name]})
        if name == "dense" or square_free(f.form):
            return f


def witness_digest(w):
    return hashlib.sha256(repr(sorted(w.terms.items())).encode()).hexdigest()


@pytest.mark.parametrize("name, k", sorted(WITNESS_SHA256))
def test_flecnode_witness_is_pinned(name, k):
    assert witness_digest(flecnode_polynomial(pinned_cubic(name, k))) == WITNESS_SHA256[name, k]


def test_dense_cubic_witness_within_budget():
    # a determinant on Fraction coefficients takes minutes on a dense cubic
    f = pinned_cubic("dense", 0)
    start = time.perf_counter()
    w = flecnode_polynomial(f)
    assert time.perf_counter() - start < 30
    assert witness_digest(w) == DENSE_WITNESS_SHA256


def test_dense_quartic_square_free_check_within_budget():
    # the exact gcd test alone runs for minutes on this quartic
    rng = random.Random(1)
    monomials = [(a, b, d - a - b) for d in range(5) for a in range(d + 1) for b in range(d - a + 1)]
    quartic = Poly(3, {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in monomials})
    assert len(quartic.terms) == 35
    start = time.perf_counter()
    assert Surface([quartic]).degree == 4
    assert time.perf_counter() - start < 1


def test_dense_planted_square_rejected_within_budget():
    # every certificate line fails on g^2 h, so the exact gcd test decides;
    # without primitive remainders it takes about a minute on this factor
    rng = random.Random(2)
    g, h = (
        Poly(3, {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in CUBIC_SUPPORTS["dense"] if sum(e) <= d})
        for d in (2, 1)
    )
    start = time.perf_counter()
    with pytest.raises(DomainError, match="not square-free"):
        Surface([g**2 * h])
    assert time.perf_counter() - start < 1


# x^3 divides every term of this degree-12 factor; its gcd with its
# partials ran past 30 s
X3_CONTENT = Poly(3, {
    (12, 0, 0): -2, (11, 1, 0): -1, (10, 2, 0): 2, (9, 1, 2): -2, (6, 5, 1): 2, (3, 8, 1): -3,
    (9, 2, 0): -2, (9, 0, 2): 3, (3, 8, 0): -2, (7, 0, 3): 3, (5, 5, 0): 2, (3, 2, 1): -1,
})


def test_monomial_square_rejected_before_any_gcd(monkeypatch):
    def no_gcd(a, b):
        raise AssertionError("the square-free check took a gcd")

    monkeypatch.setattr(zgcd, "term_gcd", no_gcd)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="not square-free"):
        Surface([X3_CONTENT])
    with pytest.raises(DomainError, match="not square-free"):
        Surface.from_forms([(X + 2 * Y - Z).form, (X**3 * Y * (Z**5 - X * Y + 1)).form])
    assert time.perf_counter() - start < 1


def test_ruled_indicator_routes():
    assert ruled_indicator(CONE).indicated is True
    assert ruled_indicator(CONE).complex_only is True
    ind = ruled_indicator(RULED_CUBIC)
    assert ind.indicated is True and ind.witness_degree == 12
    ind2 = ruled_indicator(SMOOTH_CUBIC)
    assert ind2.indicated is False


# -- line certificate of "not ruled"


@pytest.mark.parametrize("name, k", sorted(WITNESS_SHA256) + [("dense", 0)])
def test_classify_certifies_pinned_cubics_without_the_witness(monkeypatch, name, k):
    def no_witness(form):
        raise AssertionError("classify built the full flecnode witness")

    monkeypatch.setattr(witness, "_witness_form", no_witness)
    res = classify_component(pinned_cubic(name, k))
    assert res.verdict is Verdict.NOT_RULED_REAL and res.complex_ruled_indicated is False


def test_ruled_factors_take_the_full_witness():
    for f in (RULED_CUBIC, X**2 * Z - Y**3, X**3 + Y**3 - Z**3, X**3 - Y**2 + X):
        assert not surfaces._certified_not_ruled(f.form)
        assert divides(f, flecnode_polynomial(f))


def test_line_certificate_enforces_the_witness_degree_cap(monkeypatch):
    # t^100 + 1, highest power first
    monkeypatch.setattr(surfaces, "univariate_sylvester", lambda a, b: [1] + [0] * 99 + [1])
    with pytest.raises(InvariantViolation, match=r"exceeds 11\*3-18"):
        classify_component(SMOOTH_CUBIC)


def six_term_factor(d: int) -> Poly:
    """A seeded square-free factor of degree d with six terms."""
    rng = random.Random(f"six-term:{d}:0")
    monomials = [(a, b, k - a - b) for k in range(d + 1) for a in range(k + 1) for b in range(k - a + 1)]
    while True:
        support = [rng.choice([e for e in monomials if sum(e) == d])] + rng.sample(monomials, 5)
        f = Poly(3, {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in support})
        if len(f.terms) == 6 and square_free(f.form):
            return f


@pytest.mark.parametrize("name", ["dense", "degree 8", "degree 12"])
def test_cli_classify_certifies_within_budget(tmp_path, name):
    # the full witness took 7-9 s on the dense cubic and 26-32 s on
    # six-term factors of degree 8 and 12
    f = pinned_cubic("dense", 0) if name == "dense" else six_term_factor(int(name.split()[1]))
    path = tmp_path / "factor.json"
    path.write_text(dumps_instance(IncidenceInstance(Surface([f]), [], [])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "incgeo", "classify", str(path)], capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert f"degree {f.degree()} verdict NotRuledReal" in proc.stdout
    assert elapsed < 1, f"classify took {elapsed:.2f}s"


coefficients = st.sampled_from((-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-5, 3)))


@st.composite
def affine_maps(draw):
    """An invertible integer affine map (A, b): A = L*U, L unit lower and
    U upper triangular with a nonzero diagonal."""
    low, up = (draw(st.tuples(*[st.integers(-2, 2)] * 3)) for _ in range(2))
    diag = draw(st.tuples(*[st.sampled_from((-2, -1, 1, 2))] * 3))
    lower = [[1, 0, 0], [low[0], 1, 0], [low[1], low[2], 1]]
    upper = [[diag[0], up[0], up[1]], [0, diag[1], up[2]], [0, 0, diag[2]]]
    a = [[sum(lower[i][k] * upper[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return a, draw(st.tuples(*[st.integers(-3, 3)] * 3))


def _moved(f: Poly, affine) -> Poly:
    """f(A x + b) for an integer affine map (A, b)."""
    a, b = affine
    return substitute(f, [r[0] * X + r[1] * Y + r[2] * Z + c for r, c in zip(a, b)])


@st.composite
def sparse_factors(draw):
    """A random sparse cubic of up to 5 terms or quartic of up to 3: not
    ruled, as a rule.  Their full witnesses take up to about a second;
    with 7 terms a cubic's can take 4 s, and a 5-term quartic's 2 s."""
    d = draw(st.integers(3, 4))
    monomials = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) <= d]
    size = 4 if d == 3 else 2
    terms = draw(st.dictionaries(st.sampled_from(monomials), coefficients, min_size=2, max_size=size))
    terms[draw(st.sampled_from([e for e in monomials if sum(e) == d]))] = draw(coefficients)
    return Poly(3, terms), False


@st.composite
def planted_cone_factors(draw):
    """A cone over a random form h of degree 3 or 4, with a random integer
    apex: (f, apex, h), f(x) = h(x - apex)."""
    d = draw(st.integers(3, 4))
    forms = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) == d]
    h = Poly(3, draw(st.dictionaries(st.sampled_from(forms), coefficients, min_size=1, max_size=5)))
    apex = draw(st.tuples(*[st.integers(-3, 3)] * 3))
    return substitute(h, [X - apex[0], Y - apex[1], Z - apex[2]]), apex, h


@st.composite
def planted_ruled_factors(draw):
    """Ruled by construction: a cone over a random form with a random apex,
    a cylinder over a plane cubic, or a Whitney-type cubic moved by a
    random invertible affine map."""
    kind = draw(st.sampled_from(["cone", "cylinder", "whitney"]))
    if kind == "cone":
        return draw(planted_cone_factors())[0], True
    if kind == "cylinder":
        plane = [(a, b, 0) for a in range(4) for b in range(4 - a)]
        terms = draw(st.dictionaries(st.sampled_from(plane), coefficients, min_size=1, max_size=5))
        terms[draw(st.sampled_from([e for e in plane if sum(e) == 3]))] = draw(coefficients)
        return _moved(Poly(3, terms), draw(affine_maps())), True
    a, b = draw(coefficients), draw(coefficients)
    return _moved(a * X**2 - b * Y**2 * Z, draw(affine_maps())), True


# the catalog's Whitney and Fermat cubics and the other cubics of this file,
# with whether they are ruled
CATALOG_CUBICS = [
    (RULED_CUBIC, True),
    (X**2 * Z - Y**3, True),
    (SMOOTH_CUBIC, False),
    (X * Y * Z - 1, False),
    (X**3 - Y * Z + 1, False),
]


@settings(max_examples=100, deadline=None)
@given(st.one_of(sparse_factors(), st.sampled_from(CATALOG_CUBICS), planted_ruled_factors()))
def test_line_certificate_never_contradicts_the_witness(case):
    f, ruled = case
    if surfaces._certified_not_ruled(f.form):
        # a planted ruled factor divides its witness (Cayley-Salmon-Monge)
        assert not ruled
        assert not divides(f, flecnode_polynomial(f))


@settings(max_examples=30, deadline=None)
@given(planted_cone_factors())
def test_planted_cones_are_classified_before_the_witness(case):
    f, apex, h = case
    assume(square_free(f.form))
    calls = []
    original = witness._witness_form
    witness._witness_form = lambda form: calls.append(form) or original(form)
    try:
        res = classify_component(f)
    finally:
        witness._witness_form = original
    assert res.verdict is Verdict.CONE and res.complex_ruled_indicated
    assert calls == []
    # f is homogeneous about the reported apex; that is the planted one
    # unless h is a cylinder, constant along a line of vertices
    pv, q = res.apex
    moved = substitute(f, [X + Fraction(pv[0], q), Y + Fraction(pv[1], q), Z + Fraction(pv[2], q)])
    assert {sum(e) for e in moved.terms} == {f.degree()}
    partials = [diff(h, i) for i in range(3)]
    monomials = sorted({e for p in partials for e in p.terms})
    if rank([[p.terms.get(e, 0) for e in monomials] for p in partials]) == 3:
        assert res.apex == (apex, 1)
    # a cone is ruled: it divides its flecnode witness (Cayley-Salmon-Monge).
    # The witness commutes with translation, so this is asked of the form h
    # at the origin; about the planted apex a dense quartic's takes a minute
    assert divides(h, flecnode_polynomial(h))


@st.composite
def forms_factors(draw):
    """A random polynomial of degree 3 or 4 with up to 8 terms."""
    d = draw(st.integers(3, 4))
    monomials = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) <= d]
    terms = draw(st.dictionaries(st.sampled_from(monomials), coefficients, max_size=7))
    terms[draw(st.sampled_from([e for e in monomials if sum(e) == d]))] = draw(coefficients)
    return Poly(3, terms)


@settings(max_examples=100, deadline=None)
@given(forms_factors())
def test_chart_forms_commute_with_restriction(f):
    # the forms on the Taylor data at a symbolic point, each coefficient
    # restricted to a fixed line, against the forms on the data along it;
    # both data carry den*f and the fixed lines have s = 1, so the constant
    # relating them is 1 on each form
    width = (4 * f.degree()).bit_length()
    symbolic = witness._taylor(f.form, 3, width)
    for base, direction in _fixed_lines(3):
        along = surfaces._term_maps(_line_expansion(f.form, base, direction, 1, 3)[0])
        for c in range(3):
            sym, lin = surfaces._chart_forms(symbolic, c), surfaces._chart_forms(along, c)
            if sym is None or lin is None:
                # the chart's partial vanishes on the line, or everywhere
                assert lin is None
                assert restrict_to_line(diff(f, c), base, direction).is_zero
                continue
            for sym_form, lin_form in zip(sym, lin):
                restricted = [restrict_to_line(Poly(3, _unpack(t, 3, width)), base, direction) for t in sym_form]
                assert restricted == [Poly(1, {(m,): x for m, x in t.items()}) for t in lin_form]


@settings(max_examples=40, deadline=None)
@given(sparse_factors(), st.integers(0, 2))
@example((3 * X**2 * Y - 3 * Y**3 + 3 * X, False), 0)  # the resultant vanishes
@example((3 * X**2 * Y - 3 * Y**3 + 3 * X, False), 2)  # the chart's partial vanishes
def test_chart_eliminant_matches_the_poly_path(case, c):
    # the witness on packed term maps of the form, against the Poly
    # determinant and the Poly division that it replaced
    f, _ = case
    got, want = witness._chart_eliminant(f.form, c), chart_eliminant(f, c)
    if want is None or want.is_zero:
        assert got == (None if want is None else {})
    else:
        assert Poly(3, got) == want


# -- quadric inertia and classification


def test_symmetric_inertia_diagonal():
    assert symmetric_inertia([[2, 0], [0, -3]]) == (1, 1, 0)


def test_symmetric_inertia_hyperbolic_block():
    assert symmetric_inertia([[0, 1], [1, 0]]) == (1, 1, 0)


def test_symmetric_inertia_with_kernel():
    m = [
        [0, 0, 0],
        [0, 1, 2],
        [0, 2, 4],
    ]
    assert symmetric_inertia(m) == (1, 0, 2)


def test_classify_plane():
    assert classify_component(X + 2 * Y - 7).verdict is Verdict.PLANE


def test_classify_regulus():
    r = classify_component(REGULUS)
    assert r.verdict is Verdict.REGULUS
    hyperboloid = X**2 + Y**2 - Z**2 - 1
    assert classify_component(hyperboloid).verdict is Verdict.REGULUS
    # a quadric's verdict does not see its sign: the inertia is swapped
    assert classify_component(-REGULUS) == r


def test_classify_cone_finds_apex():
    r = classify_component(CONE)
    assert r.verdict is Verdict.CONE
    assert r.apex == ((0, 0, 0), 1)
    assert classify_component(-CONE) == r
    shifted = (X - 1) ** 2 + (Y - 2) ** 2 - (Z - 3) ** 2
    r2 = classify_component(shifted)
    assert r2.verdict is Verdict.CONE
    assert r2.apex == ((1, 2, 3), 1)


def test_classify_sphere_not_ruled_but_complex_flagged():
    r = classify_component(SPHERE)
    assert r.verdict is Verdict.NOT_RULED_REAL
    assert r.complex_ruled_indicated is True


def test_classify_cylinder_is_singly_ruled():
    r = classify_component(X**2 + Y**2 - 1)
    assert r.verdict is Verdict.SINGLY_RULED
    assert classify_component(-(X**2 + Y**2 - 1)) == r


def test_classify_rank_deficient_quadric_unresolved():
    assert classify_component(X**2 + Y**2).verdict is Verdict.UNKNOWN
    assert classify_component(X**2 - 2 * Y**2).verdict is Verdict.UNKNOWN


def test_classify_ruled_cubic():
    r = classify_component(RULED_CUBIC)
    assert r.verdict is Verdict.SINGLY_RULED
    assert r.complex_ruled_indicated is True


def test_classify_ruled_cubic_with_hints():
    r = classify_component(RULED_CUBIC, hint_lines=[cubic_generator(2), cubic_generator(3)])
    assert r.verdict is Verdict.SINGLY_RULED


def test_classify_ruled_cubic_without_a_line_on_the_grid():
    # the Whitney cubic moved to (1/2, 1/3, 1/5) meets no point of the
    # search grid, so its ruling is indicated but no real line is found
    shifted = (X - Fraction(1, 2)) ** 2 - (Y - Fraction(1, 3)) ** 2 * (Z - Fraction(1, 5))
    r = classify_component(shifted)
    assert r.verdict is Verdict.UNKNOWN and r.complex_ruled_indicated is True
    assert r.notes == "complex ruling indicated but no rational line found"


def test_classify_smooth_cubic(monkeypatch):
    r = classify_component(SMOOTH_CUBIC)
    assert r.verdict is Verdict.NOT_RULED_REAL
    assert r.complex_ruled_indicated is False
    # with no line certificate the full witness gives the same verdict
    monkeypatch.setattr(surfaces, "_certified_not_ruled", lambda form: False)
    assert classify_component(SMOOTH_CUBIC) == r


def test_classify_cubic_cone():
    cubic_cone = X**3 + Y**3 - Z**3 + X * Y * Z
    r = classify_component(cubic_cone)
    assert r.verdict is Verdict.CONE
    assert r.apex == ((0, 0, 0), 1)


@pytest.mark.parametrize("shift", [3, 7])
def test_classify_cubic_cone_off_the_grid(shift):
    # the apex (3, 0, 0) or (7, 0, 0) is off the old 5x5x5 grid, and with
    # no hint lines the old candidates missed it
    u = X - shift
    cubic_cone = u**3 + Y**3 - Z**3 + u * Y * Z
    assert reference_cone_apex(cubic_cone) is None
    r = classify_component(cubic_cone)
    assert r.verdict is Verdict.CONE
    assert r.apex == ((shift, 0, 0), 1)


def test_classify_makes_no_pair_relation(monkeypatch):
    def refuse(a, b):
        raise AssertionError("classify_component related a pair of lines")

    monkeypatch.setattr(exceptional, "lattice_relation", refuse)
    hints = [cubic_generator(c) for c in (1, -1, 2, -2)] + [Z_AXIS]
    assert classify_component(RULED_CUBIC, hint_lines=hints).verdict is Verdict.SINGLY_RULED


# -- cone apex against the old candidate scan
#
# The reference is the apex search as it stood before the linear solve,
# copied unchanged apart from its name: crossings of the hint lines, then a
# 5x5x5 grid of singular points, each candidate tested in that order.


def reference_apex_candidates(f: Poly, hint_lines) -> list:
    candidates = []
    seen = set()
    verified = [ln for ln in hint_lines if ln.dim == 3 and line_on_surface(f, ln)]
    for a, b in itertools.combinations(verified, 2):
        rel = line_relation(a, b)
        if rel.kind is RelationKind.INTERSECTING and rel.point not in seen:
            seen.add(rel.point)
            candidates.append(rel.point)
    grid = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    grads = [diff(f, i) for i in range(3)]
    for p in itertools.product(grid, repeat=3):
        if p in seen:
            continue
        if evaluate(f, p) == 0 and all(evaluate(g, p) == 0 for g in grads):
            seen.add(p)
            candidates.append(p)
    return candidates


def reference_cone_apex(f: Poly, hint_lines=()):
    candidates = reference_apex_candidates(f, hint_lines)
    return next((p for p in candidates if zsolve._is_cone_apex(f.form, scaled_form(p))), None)


@st.composite
def planted_cones(draw):
    """A random form h of degree 3 or 4 moved to an apex on the old grid,
    then left alone, lifted by 1 (no apex) or given a random lower part."""
    d = draw(st.integers(3, 4))
    p = draw(st.tuples(*[st.integers(-2, 2)] * 3))
    monomials = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) == d]
    h = Poly(3, draw(st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3), min_size=1)))
    if h.is_zero:
        h = Poly(3, {(d, 0, 0): 1})
    f = substitute(h, [X - p[0], Y - p[1], Z - p[2]])
    tail = draw(st.sampled_from(["cone", "plus one", "lower part"]))
    if tail == "plus one":
        f = f + 1
    elif tail == "lower part":
        lower = [e for e in itertools.product(range(d), repeat=3) if sum(e) < d]
        terms = st.dictionaries(st.sampled_from(lower), st.integers(-2, 2), max_size=3)
        f = f + Poly(3, draw(terms))
    return f


@settings(max_examples=100, deadline=None)
@given(planted_cones())
@example(X**2 * Y - 3 * X**2)
def test_cone_apex_matches_the_candidate_scan(f):
    apex, ref = zsolve._cone_apex(f.form), reference_cone_apex(f)
    if apex is not None and not (apex[1] == 1 and all(-2 <= c <= 2 for c in apex[0])):
        # the scan sees only the -2..2 grid, and a lower part can move the
        # apex set off it: x^2*y - 3x^2 = x^2*(y - 3) has apex (0, 3, 0)
        assert zsolve._is_cone_apex(f.form, apex)
        return
    assert (apex is None) == (ref is None)
    if apex is not None:
        assert zsolve._is_cone_apex(f.form, apex)
        # two apexes differ only when the apex set is positive-dimensional;
        # the solve reports its echelon point, the scan its first grid point
        assert apex == scaled_form(ref) or zsolve._is_cone_apex(f.form, scaled_form(ref))


# -- repeat calls


def test_line_search_returns_a_fresh_list():
    lines = find_lines_through_point(CONE.form, ((3, 4, 5), 1), 10)
    lines.append(Z_AXIS.lattice)
    assert find_lines_through_point(CONE.form, ((3, 4, 5), 1), 10) == [AffLine((0, 0, 0), (3, 4, 5)).lattice]


def test_exceptional_lines_follow_the_given_order():
    # on the regulus every ruling meets many others, so all are reported,
    # in the order of each call
    rulings = [AffLine((0, c, 0), (1, 0, c)) for c in range(-2, 3)]
    rulings += [AffLine((c, 0, 0), (0, 1, c)) for c in range(-2, 3)]
    assert uncapped_exceptional(REGULUS, rulings) == rulings
    reverse = rulings[::-1]
    assert uncapped_exceptional(REGULUS, reverse) == reverse


# -- lines through a point
#
# The search reads a form and a scaled point and returns line lattices.

SCALED_ORIGIN = ((0, 0, 0), 1)


def test_lines_through_cone_apex():
    lines = find_lines_through_point(CONE.form, SCALED_ORIGIN, 10)
    raw = [(0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1)]
    raw += [(a, b, s * 5) for a, b in [(3, 4), (4, 3), (3, -4), (4, -3)] for s in (1, -1)]
    expected = {AffLine((0, 0, 0), d).lattice for d in raw}
    assert len(lines) == 12
    assert set(lines) == expected


def test_lines_through_smooth_cone_point():
    lines = find_lines_through_point(CONE.form, ((3, 4, 5), 1), 10)
    assert lines == [AffLine((0, 0, 0), (3, 4, 5)).lattice]


def test_lines_through_ruled_cubic_point():
    lines = find_lines_through_point(RULED_CUBIC.form, ((2, 1, 4), 1), 10)
    assert lines == [cubic_generator(2).lattice]


def test_lines_through_sphere_point_none():
    assert find_lines_through_point(SPHERE.form, ((0, 0, 1), 1), 10) == []


def test_lines_through_regulus_point():
    lines = find_lines_through_point(REGULUS.form, SCALED_ORIGIN, 10)
    assert AffLine((0, 0, 0), (1, 0, 0)).lattice in lines
    assert AffLine((0, 0, 0), (0, 1, 0)).lattice in lines
    assert len(lines) == 2


def test_lines_search_requires_surface_point():
    with pytest.raises(NotOnSurfaceError):
        find_lines_through_point(CONE.form, ((1, 0, 0), 1), 5)


def test_lines_search_refuses_what_it_cannot_search():
    with pytest.raises(DomainError, match="non-constant"):
        find_lines_through_point(Poly(3, {(0, 0, 0): 1}).form, SCALED_ORIGIN, 5)
    with pytest.raises(ArityError, match="trivariate"):
        find_lines_through_point((A**2 + B * C - D**2).form, ((0, 0, 0, 0), 1), 5)
    with pytest.raises(DomainError, match="bound must be >= 1"):
        find_lines_through_point(CONE.form, SCALED_ORIGIN, 0)


def test_lines_search_respects_bound():
    # the generator with direction (5, 12, 13) needs entries beyond 10
    lines10 = find_lines_through_point(CONE.form, SCALED_ORIGIN, 10)
    lines13 = find_lines_through_point(CONE.form, SCALED_ORIGIN, 13)
    steep = AffLine((0, 0, 0), (5, 12, 13)).lattice
    assert steep not in lines10
    assert steep in lines13
    # the same generator through a smooth point, found by the tangent walk
    assert find_lines_through_point(CONE.form, ((5, 12, 13), 1), 12) == []
    assert find_lines_through_point(CONE.form, ((5, 12, 13), 1), 13) == [steep]


# -- line search against the Fraction box search
#
# The reference is the search as it stood before the integer lattice walk,
# copied unchanged apart from its names: it divides Fraction gradient
# entries for each (a, b) of the box and tests every candidate, repeats
# included.  Its Taylor parts come from substituting x_i + p_i, split by
# degree.


def _ref_int_terms(p: Poly) -> list[tuple[int, tuple[int, int, int]]]:
    if p.is_zero:
        return []
    den = lcm(*(c.denominator for c in p.terms.values()))
    return [(int(c * den), e) for e, c in p.terms.items()]  # type: ignore[misc]


def _ref_eval_int_terms(terms: list[tuple[int, tuple[int, int, int]]], v: tuple[int, int, int]) -> int:
    total = 0
    for c, e in terms:
        val = c
        for base, k in zip(v, e):
            if k:
                val *= base**k
        total += val
    return total


def _ref_primitive_dirs(bound: int):
    """All primitive integer directions in the box, first nonzero entry positive."""
    for v1 in range(0, bound + 1):
        for v2 in range(0 if v1 == 0 else -bound, bound + 1):
            for v3 in range(1 if v1 == v2 == 0 else -bound, bound + 1):
                if gcd(gcd(v1, abs(v2)), abs(v3)) == 1:
                    yield (v1, v2, v3)


def reference_lines_through(factor: Poly, pt, bound: int) -> list[AffLine]:
    pt = tuple(Fraction(c) for c in pt)
    # factor(pt + t v) = sum_k t^k c_k(v), c_k the degree-k Taylor part; c_0 = 0
    shifted = substitute(factor, [x + c for x, c in zip(variables(3), pt)])
    coeff_polys = [
        Poly(3, {e: c for e, c in shifted.terms.items() if sum(e) == k}) for k in range(1, factor.degree() + 1)
    ]
    int_coeffs = sorted(
        (c for c in (_ref_int_terms(cp) for cp in coeff_polys) if c), key=len
    )
    grad = tuple(evaluate(diff(factor, i), pt) for i in range(3))
    found: set[AffLine] = set()

    def check_dir(v: tuple[int, int, int]) -> None:
        for terms in int_coeffs:
            if _ref_eval_int_terms(terms, v) != 0:
                return
        found.add(AffLine(pt, [Fraction(c) for c in v]))

    if any(g != 0 for g in grad):
        # tangent directions form a plane lattice: enumerate two coordinates,
        # solve the third from the gradient equation
        piv = max(range(3), key=lambda i: abs(grad[i]))
        others = [i for i in range(3) if i != piv]
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                rhs = -(grad[others[0]] * a + grad[others[1]] * b)
                vp = rhs / grad[piv]
                if vp.denominator != 1:
                    continue
                raw = [0, 0, 0]
                raw[others[0]], raw[others[1]], raw[piv] = a, b, int(vp)
                if all(x == 0 for x in raw):
                    continue
                g = gcd(gcd(abs(raw[0]), abs(raw[1])), abs(raw[2]))
                prim = tuple(x // g for x in raw)
                if max(abs(x) for x in prim) > bound:
                    continue
                first = next(x for x in prim if x)
                if first < 0:
                    prim = tuple(-x for x in prim)
                check_dir(prim)  # type: ignore[arg-type]
    else:
        for v in _ref_primitive_dirs(bound):
            check_dir(v)

    return sorted(found, key=lambda ln: (ln.direction, ln.base))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _linear(normal, p) -> Poly:
    """normal . (x - p)."""
    return sum((c * (var - a) for c, var, a in zip(normal, (X, Y, Z), p)), Poly.zero(3))


small_ints = st.integers(-3, 3)
triples = st.tuples(small_ints, small_ints, small_ints).filter(any)
# gradient directions with a negative largest entry, or a largest entry tied
# with another one, up to sign
tied_or_negative = st.sampled_from(
    [(1, 1, 0), (-2, 1, 2), (3, -3, 1), (-1, -1, -1), (0, -2, 1), (2, 0, -2), (1, -3, 2)]
)


@st.composite
def planted_searches(draw):
    """A surface through a rational point p holding two planted lines there.

    f = n.(x-p) * A + w1.(x-p) * w2.(x-p) * B, where n is normal to both
    directions and w_i to the i-th one, contains both lines; the gradient
    at p is A(p) n, so the point is singular exactly when A(p) = 0.
    """
    p = draw(st.tuples(*[st.fractions(-4, 4, max_denominator=3)] * 3))
    n = draw(st.one_of(tied_or_negative, triples))
    dirs = []
    for _ in range(2):
        v = _cross(n, draw(triples))
        if not any(v):
            v = _cross(n, (1, 0, 0)) if any(_cross(n, (1, 0, 0))) else _cross(n, (0, 1, 0))
        k = gcd(*v)
        dirs.append(tuple(c // k for c in v))
    ws = []
    for v in dirs:
        w = _cross(v, draw(triples))
        if not any(w):
            w = _cross(v, (1, 2, 3)) if any(_cross(v, (1, 2, 3))) else _cross(v, (3, 1, 2))
        ws.append(w)
    a = draw(st.tuples(small_ints, small_ints, small_ints, small_ints))
    b = draw(st.tuples(small_ints, small_ints, small_ints, small_ints))
    big_a = a[0] + a[1] * X + a[2] * Y + a[3] * Z
    big_b = b[0] + b[1] * X + b[2] * Y + b[3] * Z
    f = _linear(n, p) * big_a + _linear(ws[0], p) * _linear(ws[1], p) * big_b
    # bounds at and just below the largest entry of a planted direction
    top = max(abs(c) for c in dirs[0])
    bound = draw(st.one_of(st.integers(1, 10), st.sampled_from([top, top - 1])))
    return f, p, min(max(bound, 1), 10)


@st.composite
def catalog_searches(draw):
    """Catalog and random surfaces at rational points, the singular points
    of the cone and the Whitney cubic included."""
    kind = draw(st.sampled_from(["apex", "axis", "cone", "cubic", "random"]))
    if kind == "apex":
        f, p = CONE, (0, 0, 0)
    elif kind == "axis":
        f, p = RULED_CUBIC, (0, 0, draw(st.fractions(-4, 4, max_denominator=3)))
    elif kind == "cone":
        a, b = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
        t = draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
        p = tuple(t * c for c in (a * a - b * b, 2 * a * b, a * a + b * b))
        f = CONE
    elif kind == "cubic":
        c, t = draw(st.integers(-3, 3)), draw(st.fractions(-3, 3, max_denominator=3))
        f, p = RULED_CUBIC, (c * t, t, Fraction(c * c))
    else:
        p = draw(st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * 3))
        exponents = st.tuples(*[st.integers(0, 2)] * 3)
        g = Poly(3, draw(st.dictionaries(exponents, st.integers(-3, 3), max_size=5)))
        f = g - evaluate(g, p)
        if f.degree() < 1:
            f = _linear((1, -2, 2), p)
    return f, p, draw(st.integers(1, 10))


@settings(max_examples=150, deadline=None)
@given(st.one_of(planted_searches(), catalog_searches()))
def test_line_search_matches_the_fraction_box_search(search):
    f, p, bound = search
    if f.degree() < 1:
        return
    expected = sorted(ln.lattice for ln in reference_lines_through(f, p, bound))
    assert find_lines_through_point(f.form, scaled_form(p), bound) == expected


# -- the expansion around a point against partial derivatives
#
# The reference is the point-local code as it stood before points read the
# expansion along a line: f(p) and each Taylor part from the partials of
# each order, D^a f(p) / a!.


def reference_taylor_part(f: Poly, pt, k: int) -> Poly:
    terms = {}
    for a in itertools.product(range(k + 1), repeat=3):
        if sum(a) != k:
            continue
        g = f
        for i, ai in enumerate(a):
            for _ in range(ai):
                g = diff(g, i)
        terms[a] = evaluate(g, pt) / (factorial(a[0]) * factorial(a[1]) * factorial(a[2]))
    return Poly(3, terms)


def reference_tangent_cone(f: Poly, p) -> Poly:
    pt = tuple(Fraction(c) for c in p)
    if evaluate(f, pt) != 0:
        raise NotOnSurfaceError(f"point {pt} is not on the surface")
    for k in range(1, f.degree() + 1):
        cone = reference_taylor_part(f, pt, k)
        if not cone.is_zero:
            return cone
    raise DomainError("zero polynomial has no multiplicity")


def _positive_multiple(part: Poly, ref: Poly) -> bool:
    """Whether part is ref times one positive rational."""
    if set(part.terms) != set(ref.terms):
        return False
    ratios = {part.terms[e] / c for e, c in ref.terms.items()}
    return ratios == set() or (len(ratios) == 1 and ratios.pop() > 0)


def _outcome(fn, f, p):
    try:
        return fn(f, p)
    except (DomainError, NotOnSurfaceError) as exc:
        return type(exc), str(exc)


@st.composite
def point_questions(draw):
    """A trivariate f and a rational point p: on a random surface through
    p, a plane, a saddle, a surface singular at p, a catalog point, or p
    off the surface."""
    p = draw(st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * 3))
    exponents = st.tuples(*[st.integers(0, 2)] * 3)
    g = Poly(3, draw(st.dictionaries(exponents, st.integers(-3, 3), max_size=5)))
    kind = draw(st.sampled_from(["random", "plane", "saddle", "singular", "catalog", "off"]))
    if kind == "random":
        f = g - evaluate(g, p)
    elif kind == "plane":
        f = _linear(draw(triples), p)
    elif kind == "saddle":
        # q = (a.x)(b.x) vanishes on the tangent basis u, w but not on u + w
        n = draw(triples)
        u, w = nullspace([[Fraction(c) for c in n]])
        f = _linear(n, p) + _linear(_cross(n, u), p) * _linear(_cross(n, w), p)
    elif kind == "singular":
        # the product of two forms vanishing at p has no linear part there
        f = _linear(draw(triples), p) * _linear(draw(triples), p) * (g + draw(small_ints))
    elif kind == "catalog":
        f, p = draw(st.sampled_from([
            (CONE, (0, 0, 0)), (RULED_CUBIC, (0, 0, 0)), (RULED_CUBIC, (0, 0, 2)),
            (SPHERE, (0, 0, 1)), (REGULUS, (0, 0, 0)), (REGULUS, (1, 2, 2)), (Z, (1, 2, 0)),
        ]))
    else:
        f = g - evaluate(g, p) + draw(st.fractions(-3, 3, max_denominator=3).filter(bool))
    return f, p


@settings(max_examples=150, deadline=None)
@given(point_questions())
def test_point_questions_match_the_partial_derivatives(question):
    f, p = question
    pt = tuple(Fraction(c) for c in p)
    parts = point_parts(f, pt)
    for k, part in enumerate(parts):
        assert _positive_multiple(part, reference_taylor_part(f, pt, k))
    if f.degree() >= 1 and parts[0].is_zero:
        # the tangent cone is the lowest order after f(p)
        cone = next(part for part in parts[1:] if not part.is_zero)
        assert _positive_multiple(cone, reference_tangent_cone(f, pt))


# -- exceptional lines


def cubic_family() -> list[AffLine]:
    return [cubic_generator(c) for c in (1, -1, 2, -2, 3, -3)] + [Z_AXIS]


def test_exceptional_line_of_ruled_cubic():
    exc = exceptional_lines(RULED_CUBIC, cubic_family())
    assert exc == [Z_AXIS]


def uncapped_exceptional(f: Poly, family) -> list[AffLine]:
    """exceptional_lines without its cap of two, for doubly ruled factors."""
    lattices = [ln.lattice for ln in family]
    return [ln for ln, lat in zip(family, lattices) if exceptional._is_exceptional(f.form, lat, lattices)]


def test_exceptional_lines_cone_generators_are_not():
    fam = [cone_generator(a, b) for a, b in [(2, 1), (3, 2), (4, 1), (4, 3), (5, 2)]]
    assert exceptional_lines(CONE, fam) == []


def test_exceptional_cap_on_regulus_needs_opt_out():
    rulings = [AffLine((0, c, 0), (1, 0, c)) for c in range(-3, 4)]
    rulings += [AffLine((c, 0, 0), (0, 1, c)) for c in range(-3, 4)]
    assert uncapped_exceptional(REGULUS, rulings) == rulings
    with pytest.raises(InvariantViolation):
        exceptional_lines(REGULUS, rulings)


def test_exceptional_scan_relates_only_singular_lines(monkeypatch):
    related, searched = [], []

    def counted_relation(a, b):
        related.append((a, b))
        return lattice_relation(a, b)

    def counted_search(form, p, bound=exceptional.DENOMINATOR_BOUND):
        searched.append(p)
        return find_lines_through_point(form, p, bound)

    monkeypatch.setattr(exceptional, "lattice_relation", counted_relation)
    monkeypatch.setattr(exceptional, "find_lines_through_point", counted_search)
    fam = cubic_family()
    assert exceptional_lines(RULED_CUBIC, fam) == [Z_AXIS]
    # the singular axis is related once with each other line; no pair of
    # two smooth lines is related and no smooth line is searched on
    axis = Z_AXIS.lattice
    assert [a for a, _ in related] == [axis] * (len(fam) - 1)
    assert {b for _, b in related} == {ln.lattice for ln in fam} - {axis}
    assert searched and all(pv[:2] == (0, 0) for pv, _ in searched)


# -- exceptional lines against the probe scan
#
# The reference is the scan as it stood before the tangent pencil decided
# non-singular lines, copied unchanged apart from its name and memo: a pair
# scan over the family, then bounded line searches at probe points.


def reference_exceptional_among(factor: Poly, contained: frozenset[AffLine]) -> frozenset[AffLine]:
    """The exceptional lines of a contained family; whether a line is
    exceptional depends on the family as a set, not on its order."""
    need = 2 * factor.degree() + 1
    probes = exceptional._probe_parameters(factor.degree())
    witnesses: dict[AffLine, set] = {ln: set() for ln in contained}
    for a, b in itertools.combinations(contained, 2):
        rel = line_relation(a, b)
        if rel.kind is RelationKind.INTERSECTING:
            witnesses[a].add(rel.point)
            witnesses[b].add(rel.point)
    out = set()
    for ln, found in witnesses.items():
        if len(found) < need:
            for t in probes:
                pt = ln.point_at(t)
                if pt in found:
                    continue
                others = find_lines_through_point(factor.form, scaled_form(pt))
                if any(o != ln.lattice for o in others):
                    found.add(pt)
                if len(found) >= need:
                    break
        if len(found) >= need:
            out.add(ln)
    return frozenset(out)


def reference_exceptional_lines(factor: Poly, lines) -> list[AffLine]:
    contained = [ln for ln in lines if line_on_surface(factor, ln)]
    found = reference_exceptional_among(factor, frozenset(contained))
    return [ln for ln in contained if ln in found]


def _x_axis_family(g: Poly, cs) -> list[AffLine]:
    """The x-axis of z - g(x)*y and its generators x = c, z = g(c)*y."""
    return [AffLine((0, 0, 0), (1, 0, 0))] + [
        AffLine((c, 0, 0), (0, 1, evaluate(g, (c, 0, 0)))) for c in cs
    ]


def _small_meetings(g: Poly, cs) -> int:
    """Points of the x-axis of z - g(x)*y that the probe scan sees meet a
    generator: the family's crossings, and the probe points t where the
    generator's direction (0, 1, g(t)) fits the search box."""
    d = max(g.degree() + 1, 1)
    probes = {
        t for t in exceptional._probe_parameters(d)
        if abs(evaluate(g, (t, 0, 0))) <= exceptional.DENOMINATOR_BOUND
    }
    return len(probes | {Fraction(c) for c in cs})


@st.composite
def exceptional_families(draw):
    """A catalog factor with a shuffled prefix of its family, or a planted
    z - g(x)*y with its x-axis and some generators, where the probe scan
    can see the x-axis meet 2*deg + 1 generators (small entries)."""
    kind = draw(st.sampled_from(["cone", "regulus", "whitney", "planted"]))
    if kind == "planted":
        g = sum(
            (draw(st.integers(-2, 2)) * X**k for k in range(draw(st.integers(1, 3)) + 1)),
            Poly.zero(3),
        )
        cs = draw(st.lists(st.integers(-4, 4), unique=True, max_size=9))
        f = Z - g * Y
        assume(_small_meetings(g, cs) >= 2 * f.degree() + 1)
        return f, _x_axis_family(g, cs)
    factor = {"cone": CONE, "regulus": REGULUS, "whitney": RULED_CUBIC}[kind]
    family = make_lines(kind, draw(st.integers(2, 14)), include_exceptional=kind == "whitney")
    return factor, draw(st.permutations(family))


@settings(max_examples=60, deadline=None)
@given(exceptional_families())
def test_exceptional_lines_match_the_probe_scan(case):
    f, family = case
    assert uncapped_exceptional(f, family) == reference_exceptional_lines(f, family)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["regulus", "whitney"]),
    st.data(),
    st.tuples(*[st.integers(-3, 3)] * 3),
    st.tuples(*[st.integers(-3, 3)] * 3).filter(any),
)
def test_exceptional_lines_refuse_a_line_off_the_factor(kind, data, base, direction):
    # the regulus is smooth, the Whitney cubic singular along its z-axis,
    # which the family holds; the stray line is refused wherever it stands
    factor = {"regulus": REGULUS, "whitney": RULED_CUBIC}[kind]
    stray = AffLine(base, direction)
    assume(not line_on_surface(factor, stray))
    family = data.draw(st.permutations(make_lines(kind, 6, include_exceptional=True)))
    family.insert(data.draw(st.integers(0, len(family))), stray)
    with pytest.raises(NotOnSurfaceError):
        uncapped_exceptional(factor, family)


def test_exceptional_lines_refuse_a_line_of_another_dimension():
    with pytest.raises(ArityError):
        exceptional_lines(REGULUS, [AffLine((0, 0, 0, 0), (1, 0, 0, 0))])


# -- the tangent pencil against substitution
#
# The reference builds the pencil from its definition on Poly objects: the
# u^k coefficients of f(l(t) + u*(a*d + grad f(l(t)) x d)) by substitution,
# and their gcd over Q[t, a] by poly_gcd alone, with no certificate.


def reference_pencil_verdict(f: Poly, ln: AffLine):
    """None on a singular line, else whether the pencil has a common factor
    of positive degree in a."""
    t, a, u = variables(3)
    at = [t * c + b for b, c in zip(ln.base, ln.direction)]
    grad = [substitute(diff(f, i), at) for i in range(3)]
    d = ln.direction
    w = [grad[(i + 1) % 3] * d[(i + 2) % 3] - grad[(i + 2) % 3] * d[(i + 1) % 3] for i in range(3)]
    if all(c.is_zero for c in w):
        return None
    h = substitute(f, [x + u * (a * c + wc) for x, c, wc in zip(at, d, w)])
    coeffs = [
        Poly(2, {e[:2]: c for e, c in h.terms.items() if e[2] == k}) for k in range(f.degree() + 1)
    ]
    assert coeffs[0].is_zero and coeffs[1].is_zero
    g = Poly.zero(2)
    for c in coeffs[2:]:
        g = poly_gcd(g, c)
    return g.is_zero or degree_in(g, 1) > 0


@st.composite
def surfaces_through_a_line(draw):
    """A line l and a surface l1*A + l2*B through it, l1 and l2 linear forms
    vanishing on l; or l1 - l2*g(m), m a coordinate along l, which is
    z - g(x)*y moved onto l and makes l exceptional."""
    base = draw(st.tuples(*[st.fractions(-2, 2, max_denominator=2)] * 3))
    d = draw(triples)
    n1 = _cross(d, draw(triples))
    if not any(n1):
        n1 = _cross(d, (1, 2, 3)) if any(_cross(d, (1, 2, 3))) else _cross(d, (3, 1, 2))
    n2 = _cross(d, n1)
    l1, l2, m = _linear(n1, base), _linear(n2, base), _linear(d, base)
    exponents = st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) <= 2)
    if draw(st.booleans()):
        top = draw(st.integers(1, 3))
        g = sum((draw(st.integers(-2, 2)) * m**k for k in range(top + 1)), Poly.zero(3))
        f = l1 - l2 * g
    else:
        terms = st.dictionaries(exponents, small_ints, max_size=4)
        big_a, big_b = Poly(3, draw(terms)), Poly(3, draw(terms))
        f = l1 * big_a + l2 * big_b
    return f, AffLine(base, d)


@settings(max_examples=80, deadline=None)
@given(surfaces_through_a_line())
def test_tangent_pencil_matches_substitution(case):
    f, ln = case
    if f.is_zero:
        return
    pencil = exceptional._tangent_pencil(f.form, ln.lattice)
    expected = reference_pencil_verdict(f, ln)
    assert (pencil is None) == (expected is None) == reference_is_singular_line(f, ln)
    if pencil is not None:
        assert exceptional._pencil_has_common_factor(pencil) == expected
        assert all(max((j for _, j in c), default=0) <= k + 1 for k, c in enumerate(pencil))


# -- singular lines against the partial derivatives
#
# A contained line is singular exactly when _tangent_pencil gives None.  The
# reference is the singular-line test as it stood before it read one
# expansion along the line: containment, then each partial restricted.


def is_singular_line(f: Poly, ln: AffLine) -> bool:
    return exceptional._tangent_pencil(f.form, ln.lattice) is None


def reference_is_singular_line(f: Poly, ln: AffLine) -> bool:
    """True iff every point of a contained line is singular."""
    if not line_on_surface(f, ln):
        raise NotOnSurfaceError("line is not contained in the surface")
    return all(
        restrict_to_line(diff(f, i), ln.base, ln.direction).is_zero for i in range(f.nvars)
    )


@st.composite
def singular_line_questions(draw):
    """A line l with l1*A + l2*B (smooth along l for most A, B) or
    l1^2*A + l1*l2*B + l2^2*C (singular along l), l1 and l2 linear forms
    vanishing on l; or either shifted off l by a nonzero constant."""
    kind = draw(st.sampled_from(["smooth", "singular", "off"]))
    base = draw(st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * 3))
    d = draw(triples)
    n1 = _cross(d, draw(triples))
    if not any(n1):
        n1 = _cross(d, (1, 2, 3)) if any(_cross(d, (1, 2, 3))) else _cross(d, (3, 1, 2))
    n2 = _cross(d, n1)
    l1, l2 = _linear(n1, base), _linear(n2, base)
    exponents = st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) <= 2)
    big_a, big_b, big_c = (Poly(3, draw(st.dictionaries(exponents, small_ints, max_size=4))) for _ in range(3))
    if kind == "singular" or (kind == "off" and draw(st.booleans())):
        f = l1 * l1 * big_a + l1 * l2 * big_b + l2 * l2 * big_c
    else:
        f = l1 * big_a + l2 * big_b
    if kind == "off":
        f = f + draw(st.fractions(-3, 3, max_denominator=3).filter(bool))
    return f, AffLine(base, d)


def test_singular_line_matches_the_reference_on_the_catalog():
    for name, factor in (("cone", CONE), ("regulus", REGULUS), ("whitney", RULED_CUBIC)):
        for ln in make_lines(name, 24, include_exceptional=name == "whitney"):
            assert is_singular_line(factor, ln) == reference_is_singular_line(factor, ln)
    # on a coordinate plane only one partial is nonzero
    for plane, ln in ((X, AffLine((0, 1, 0), (0, 1, 2))), (Y, AffLine((1, 0, 0), (1, 0, 3))), (Z, Y_AXIS)):
        assert is_singular_line(plane, ln) is reference_is_singular_line(plane, ln) is False


@settings(max_examples=100, deadline=None)
@given(singular_line_questions())
def test_singular_line_matches_the_partial_derivatives(question):
    f, ln = question
    assert _outcome(is_singular_line, f, ln) == _outcome(reference_is_singular_line, f, ln)


def _bivariate(draw, a_degree: int) -> dict:
    keys = st.tuples(st.integers(0, 3), st.integers(0, a_degree))
    terms = draw(st.dictionaries(keys, st.integers(-3, 3), max_size=4))
    return {e: c for e, c in terms.items() if c}


@st.composite
def pencils(draw):
    """Integer pencils c_2, c_3, c_4 with a-degree at most k - 1: random,
    with a planted common factor, or with every leading coefficient in a
    vanishing at the certificate's points t = 1, -1, 2, -2; or c_2 = 0,
    c_3 = A*B, c_4 = A*C, c_5 = B*C, where every two share a factor."""
    # (t^2 - 1)(t^2 - 4) = t^4 - 5t^2 + 4 vanishes at every certificate point
    q = {(4, 0): 1, (2, 0): -5, (0, 0): 4}
    leads = st.sampled_from([{(0, 0): 1}, q, {(1, 0): 1, (0, 0): 3}])
    kind = draw(st.sampled_from(["random", "common", "degenerate", "pairwise"]))
    if kind == "common":
        factor = {**_bivariate(draw, 0), **surfaces._zmul(draw(leads), {(0, 1): 1})}
        cs = [surfaces._zmul(_bivariate(draw, k - 2), factor) for k in range(2, 5)]
    elif kind == "pairwise":
        a, b = ({**_bivariate(draw, 0), **surfaces._zmul(draw(leads), {(0, 1): 1})} for _ in range(2))
        c = _bivariate(draw, 2)
        cs = [{}, surfaces._zmul(a, b), surfaces._zmul(a, c), surfaces._zmul(b, c)]
    else:
        cs = [_bivariate(draw, k - 1) for k in range(2, 5)]
    if kind == "degenerate":
        for c in cs:
            top = max((j for _, j in c), default=0)
            lead = {e: x for e, x in c.items() if e[1] == top}
            for e in lead:
                del c[e]
            c.update(surfaces._zmul(lead, q))
    return cs


@settings(max_examples=150, deadline=None)
@given(pencils())
def test_pencil_certificate_matches_the_exact_gcd(cs):
    g = Poly.zero(2)
    for c in cs:
        g = poly_gcd(g, Poly(2, {e: Fraction(x) for e, x in c.items()}))
    assert exceptional._pencil_has_common_factor(cs) == (g.is_zero or degree_in(g, 1) > 0)


@pytest.mark.parametrize("g", [X**3 + 2 * X, X**5 + 2 * X], ids=["x3", "x5"])
def test_smooth_exceptional_axis_with_large_meeting_directions(g):
    # every point (c, 0, 0) carries the line x = c, z = g(c)*y, but only
    # c = 0, 1, -1 give directions inside the probe scan's box
    f = Z - g * Y
    family = _x_axis_family(g, (-1, 0, 1))
    assert reference_exceptional_lines(f, family) == []
    assert exceptional_lines(f, family) == [family[0]]


def test_exceptional_verdict_needs_no_family_on_smooth_lines():
    # the pencil decides a smooth line alone: the x-axis of z - x^2*y is
    # exceptional and a generator is not, with no witnesses supplied
    f = Z - X**2 * Y
    axis, generator = _x_axis_family(X**2, (2,))
    assert exceptional_lines(f, [axis]) == [axis]
    assert exceptional_lines(f, [generator]) == []


# -- generator counts and the per-line sum


def test_lambda_counts_on_pinch_point():
    fam = cubic_family()
    counts = lambda_counts(RULED_CUBIC, (0, 0, 1), fam, exceptional=[Z_AXIS])
    assert counts.lam == 2
    assert counts.lam_star == 1


def test_lambda_counts_apex_rule():
    fam = [cone_generator(a, b) for a, b in [(2, 1), (3, 2), (4, 1)]]
    counts = lambda_counts(CONE, (0, 0, 0), fam, apex=(0, 0, 0))
    assert counts == lambda_counts(CONE, (0, 0, 0), [], apex=(0, 0, 0))
    assert counts.lam == 0 and counts.lam_star == 0


def test_scaled_apex_counts_as_the_fraction_origin():
    # c06's cone suite: the apex that classify_component returns, a scaled
    # point, and forge.ORIGIN, a Fraction point, give equal counts and reports
    family = make_lines("cone", 8)
    scaled_apex = classify_component(CONE).apex
    assert scaled_apex == SCALED_ORIGIN
    assert lambda_counts(CONE, (0, 0, 0), family).lam == len(family)
    counts = lambda_counts(CONE, (0, 0, 0), family, apex=scaled_apex)
    assert counts == lambda_counts(CONE, (0, 0, 0), family, apex=FORGE_ORIGIN) == (0, 0)
    exc = exceptional_lines(CONE, family)
    rng = random.Random(606)
    probes = list(family) + [AffLine((30 + k, -40 - k, 7), (1, 1, 3 * k)) for k in range(1, 8)]
    probes += [
        AffLine(ln.point_at(Fraction(rng.randint(-8, 8), rng.randint(1, 4))), (rng.randint(-4, 4), 1, 2))
        for ln in family
    ]
    reports = [check_firstflip(CONE, probe, family, exc, apex=scaled_apex) for probe in probes]
    assert reports == [check_firstflip(CONE, probe, family, exc, apex=FORGE_ORIGIN) for probe in probes]
    assert any(SCALED_ORIGIN in r.points for r in reports)
    for pt in {pt for r in reports for pt in r.points}:
        assert lambda_counts(CONE, pt, family, exc, scaled_apex) == lambda_counts(CONE, pt, family, exc, FORGE_ORIGIN)


def test_generator_counts_refuse_a_float_point():
    with pytest.raises(DomainError, match="not an int or a Fraction"):
        lambda_counts(CONE, (0.5, 0, 0), [cone_generator(2, 1)])
    with pytest.raises(DomainError, match="not an int or a Fraction"):
        lambda_counts(CONE, (0, 0, 0), [], apex=(0.0, 0, 0))


def test_generator_counts_refuse_what_is_not_in_r3():
    # a 4-D point was cut to 3 coordinates, and a scale q <= 0 was taken
    family = make_lines("cone", 8)
    wide = AffLine((0, 0, 0, 0), (1, 0, 0, 1))
    for point in [(1, 0, 1, 5), ((1, 0, 1, 5), 1)]:
        with pytest.raises(ArityError, match="dimension 4"):
            lambda_counts(CONE, point, family)
    with pytest.raises(ArityError, match="dimension 4"):
        lambda_counts(CONE, (0, 0, 0), family, apex=(0, 0, 0, 0))
    for point in [((3, 4, 5), 0), ((3, 4, 5), -1)]:
        with pytest.raises(DomainError, match="positive scale"):
            lambda_counts(CONE, point, family)
    with pytest.raises(DomainError, match="positive scale"):
        lambda_counts(CONE, (0, 0, 0), family, apex=((0, 0, 0), 0))
    with pytest.raises(ArityError, match="dimension 4"):
        lambda_counts(CONE, (3, 4, 5), family + [wide])
    with pytest.raises(ArityError, match="dimension 4"):
        lambda_counts(CONE, (3, 4, 5), family, exceptional=[wide.lattice])
    for probe, lines, exc in [(wide, family, []), (family[0], family + [wide], []), (family[0], family, [wide])]:
        with pytest.raises(ArityError, match="dimension 4"):
            check_firstflip(CONE, probe, lines, exc)
    with pytest.raises(DomainError, match="positive scale"):
        check_firstflip(CONE, family[0], family, [], apex=((0, 0, 0), 0))


def test_generator_counts_reduce_a_scaled_pair():
    # the same point written unreduced missed the apex rule: apex
    # ((0, 0, 0), 2) counted GeneratorCount(8, 7)
    family = make_lines("cone", 8)
    for apex in [((0, 0, 0), 1), ((0, 0, 0), 2), (0, 0, 0)]:
        assert lambda_counts(CONE, (0, 0, 0), family, apex=apex) == (0, 0)
        assert lambda_counts(CONE, ((0, 0, 0), 3), family, apex=apex) == (0, 0)
    pt = family[0].point_at(2)
    unreduced = (tuple(3 * c.numerator * (6 // c.denominator) for c in pt), 18)
    assert lambda_counts(CONE, unreduced, family) == lambda_counts(CONE, pt, family)


def test_classify_refuses_a_hint_outside_r3():
    # such a hint was dropped, as if none had been given
    with pytest.raises(ArityError, match="dimension 4"):
        classify_component(RULED_CUBIC, hint_lines=[AffLine((0, 0, 0, 0), (1, 0, 0, 0))])
    with pytest.raises(ArityError, match="dimension 4"):
        classify_component(RULED_CUBIC.form, hint_lines=[AffLine((0, 0, 0, 0), (1, 0, 0, 0)).lattice])


def firstflip(factor, ln, family, apex=None):
    return check_firstflip(factor, ln, family, exceptional_lines(factor, family), apex=apex)


def test_firstflip_contained_generator():
    rep = firstflip(RULED_CUBIC, Y_AXIS, cubic_family())
    assert rep.contained is True
    assert rep.total == 0
    assert rep.ok is True


def test_firstflip_transversal():
    rep = firstflip(RULED_CUBIC, AffLine((0, 1, 1), (1, 0, 0)), cubic_family())
    assert rep.contained is False
    assert rep.total == 2
    assert rep.bound == 3
    assert rep.ok is True


def test_firstflip_rejects_exceptional_probe():
    with pytest.raises(ExceptionalLineError):
        firstflip(RULED_CUBIC, Z_AXIS, cubic_family())


def test_firstflip_cone_generators_meet_at_apex_only():
    fam = [cone_generator(a, b) for a, b in [(2, 1), (3, 2), (4, 1), (4, 3)]]
    rep = firstflip(CONE, cone_generator(5, 2), fam, apex=(0, 0, 0))
    assert rep.contained is True
    assert rep.total == 0
    assert rep.ok is True
