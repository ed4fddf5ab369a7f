"""Incidence counting, coplanarity measurement, family decomposition and
bound evaluation, exercised on a product surface mixing a cone, a doubly
ruled quadric and a singly ruled cubic."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incgeo import linespace
from incgeo.errors import DegenerateLineError, DomainError, PlanarComponentError
from incgeo.incidence import (
    BoundReport,
    check_meeting_cap,
    choose_xi,
    conical_incidence_count,
    count_incidences,
    decompose_lines,
    max_lines_per_flat,
    meeting_line_counts,
    prune_points,
    rhs_gk,
    rhs_main,
    rhs_planes,
    rhs_st,
    verify_bound,
    verify_planes_bound,
)
from incgeo.instfile import IncidenceInstance
from incgeo.linespace import AffLine, coplanar_triple, incidence_point_line
from incgeo.poly import variables
from incgeo.surfaces import Surface, Verdict

X, Y, Z = variables(3)
CONE = X**2 + Y**2 - Z**2
REGULUS = Z - X * Y
RULED_CUBIC = X**2 - Y**2 * Z

X_AXIS = AffLine((0, 0, 0), (1, 0, 0))
Y_AXIS = AffLine((0, 0, 0), (0, 1, 0))
Z_AXIS = AffLine((0, 0, 0), (0, 0, 1))


def cone_generator(a: int, b: int) -> AffLine:
    return AffLine((0, 0, 0), (a * a - b * b, 2 * a * b, a * a + b * b))


def ruling_u(c: int) -> AffLine:
    """Regulus ruling {(t, c, c*t)}."""
    return AffLine((0, c, 0), (1, 0, c))


def ruling_v(c: int) -> AffLine:
    """Regulus ruling {(c, t, c*t)}."""
    return AffLine((c, 0, 0), (0, 1, c))


def cubic_generator(c: int) -> AffLine:
    return AffLine((0, 0, c * c), (c, 1, 0))


def product_instance():
    surface = Surface([CONE, REGULUS, RULED_CUBIC])
    lines = [cone_generator(a, b) for a, b in [(2, 1), (3, 2), (4, 1), (4, 3)]]
    lines += [ruling_u(c) for c in (-2, -1, 0, 1, 2)]
    lines += [ruling_v(c) for c in (-2, -1, 0, 1, 2)]
    lines += [cubic_generator(c) for c in (1, -1, 2, -2)]
    lines += [Z_AXIS]
    points = sorted(
        {
            tuple(map(Fraction, (c, d, c * d)))
            for c in (-2, -1, 0, 1, 2)
            for d in (-2, -1, 0, 1, 2)
        }
        | {(Fraction(0), Fraction(0), Fraction(0))}
    )
    return surface, points, lines


def product_checked():
    return IncidenceInstance(*product_instance())


# -- raw counting


def test_count_incidences_tiny():
    points = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (5, 5, 5)]
    lines = [X_AXIS, Y_AXIS]
    assert count_incidences(points, lines) == 4


def test_double_counting_identity():
    inst = product_checked()
    total = count_incidences(inst.points, inst.lines)
    assert inst.incidences == total
    assert total == sum(len(through) for through in inst.lines_at)
    assert total == sum(len(on) for on in inst.points_on)


def test_incidence_table_tiny():
    # the instance's incidence table, both ways
    inst = IncidenceInstance(None, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (5, 5, 5)], [X_AXIS, Y_AXIS])
    assert inst.lines_at == ((0, 1), (0,), (1,), ())
    assert inst.points_on == ((0, 1), (0, 2))
    assert inst.incidences == 4


def test_incidence_table_rejects_duplicates():
    # the incidence table lives on the instance, which refuses repeats
    with pytest.raises(DomainError, match="instance points must be distinct"):
        IncidenceInstance(None, [(0, 0, 0), (0, 0, 0)], [X_AXIS])
    # the x-axis again, written from another base point and direction
    with pytest.raises(DomainError, match="instance lines must be distinct"):
        IncidenceInstance(None, [(0, 0, 0)], [X_AXIS, AffLine((5, 0, 0), (-2, 0, 0))])


small_ints = st.integers(-2, 2)


@st.composite
def line_families(draw, dims=(3, 4, 5)):
    """Small line families that mix free, concurrent, parallel and coplanar
    lines, all inside R^dim with small integer data."""
    dim = draw(st.sampled_from(dims))
    vec = st.tuples(*[small_ints] * dim)
    origin, u, v = draw(vec), draw(vec), draw(vec)
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["free", "concurrent", "parallel", "coplanar"]))
        if kind == "free":
            base, direction = draw(vec), draw(vec)
        elif kind == "concurrent":
            base, direction = origin, draw(vec)
        elif kind == "parallel":
            base, direction = draw(vec), u
        else:
            a, b, c, e = (draw(small_ints) for _ in range(4))
            base = tuple(o + a * x + b * y for o, x, y in zip(origin, u, v))
            direction = tuple(c * x + e * y for x, y in zip(u, v))
        try:
            lines.append(AffLine(base, direction))
        except DegenerateLineError:
            pass
    return dim, list(dict.fromkeys(lines))


@st.composite
def incidence_instances(draw):
    dim, lines = draw(line_families(dims=(3, 4)))
    points = [draw(st.tuples(*[small_ints] * dim)) for _ in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0, 8)) if lines else 0):
        ln = draw(st.sampled_from(lines))
        points.append(ln.point_at(Fraction(draw(small_ints), draw(st.integers(1, 2)))))
    return list(dict.fromkeys(tuple(map(Fraction, p)) for p in points)), lines


@settings(max_examples=80, deadline=None)
@given(incidence_instances())
def test_incidence_table_matches_exhaustive_check(instance):
    points, lines = instance
    inst = IncidenceInstance(None, points, lines)
    assert inst.incidences == count_incidences(points, lines)
    for i, p in enumerate(points):
        for j, ln in enumerate(lines):
            on = incidence_point_line(p, ln)
            assert (j in inst.lines_at[i]) == on
            assert (i in inst.points_on[j]) == on
    assert all(list(t) == sorted(t) for t in inst.lines_at + inst.points_on)


# -- the coplanarity parameter


def max_lines_per_flat_oracle(lines) -> int:
    """Brute force: two distinct coplanar lines span one plane, which holds
    exactly the lines coplanar with both."""
    best = min(len(lines), 1)
    for i, a in enumerate(lines):
        for b in lines[i + 1:]:
            if coplanar_triple(a, b, b):
                best = max(best, sum(1 for c in lines if coplanar_triple(a, b, c)))
    return best


@settings(max_examples=80, deadline=None)
@given(line_families())
def test_max_lines_per_flat_matches_oracle(family):
    _, lines = family
    assert max_lines_per_flat(lines) == max_lines_per_flat_oracle(lines)


def test_max_lines_per_flat_small_cases():
    assert max_lines_per_flat([]) == 0
    assert max_lines_per_flat([X_AXIS]) == 1
    skew = AffLine((0, 0, 1), (0, 1, 0))
    assert max_lines_per_flat([X_AXIS, skew]) == 1
    assert max_lines_per_flat([X_AXIS, Y_AXIS]) == 2
    # three concurrent lines not in a common plane
    assert max_lines_per_flat([X_AXIS, Y_AXIS, Z_AXIS]) == 2


def test_max_lines_per_flat_triangle():
    triangle = [
        AffLine((0, 0, 0), (1, 0, 0)),
        AffLine((0, 0, 0), (0, 1, 0)),
        AffLine((1, 0, 0), (1, -1, 0)),
    ]
    assert max_lines_per_flat(triangle) == 3


def test_max_lines_per_flat_parallel_family():
    fam = [AffLine((0, c, 0), (1, 0, 0)) for c in range(6)]
    assert max_lines_per_flat(fam) == 6


def test_max_lines_per_flat_classifies_each_pair_once(monkeypatch):
    # one pair test per unordered pair, in the pass it shares with the
    # projection certificate, and no line_relation call
    pair_tests, relations = [], []
    pair = linespace._pair

    def counted(a, b):
        pair_tests.append(frozenset((a, b)))
        return pair(a, b)

    monkeypatch.setattr(linespace, "_pair", counted)
    monkeypatch.setattr(linespace, "line_relation", lambda a, b: relations.append((a, b)))
    _, _, lines = product_instance()
    assert max_lines_per_flat(lines) == 3
    n = len(lines)
    assert len(pair_tests) == n * (n - 1) // 2
    assert set(pair_tests) == {frozenset(pair) for pair in combinations(lines, 2)}
    assert relations == []


def test_max_lines_per_flat_rejects_duplicates():
    # with the instance's message; the second line is the x-axis again,
    # written from another base point
    lines = [X_AXIS, AffLine((5, 0, 0), (2, 0, 0)), Y_AXIS]
    with pytest.raises(DomainError, match="instance lines must be distinct"):
        max_lines_per_flat(lines)


def test_product_instance_coplanarity():
    _, _, lines = product_instance()
    # two opposite-family rulings and a cubic generator close a triangle
    assert max_lines_per_flat(lines) == 3


# -- decomposition


def test_decompose_product_instance():
    dec = decompose_lines(product_checked())
    lines = dec.instance.lines
    assert [r.verdict for r in dec.verdicts] == [
        Verdict.CONE,
        Verdict.REGULUS,
        Verdict.SINGLY_RULED,
    ]
    assert dec.apexes == {0: (0, 0, 0)}
    # the y axis lies on the regulus and the cubic at once; the z axis is
    # the exceptional singular line of the cubic
    assert {lines[j] for j in dec.structured} == {Y_AXIS, Z_AXIS}
    assert sorted(dec.structured + dec.generic) == list(range(len(lines)))
    assert dec.exceptional[2] == (lines.index(Z_AXIS),)
    assert len(dec.structured) <= dec.structured_cap
    # each generic line has its one owning factor; a structured line has none
    assert set(dec.owner) == set(dec.generic)
    assert dec.owner[lines.index(cone_generator(2, 1))] == 0
    assert dec.owner[lines.index(ruling_u(1))] == 1
    assert lines.index(Y_AXIS) not in dec.owner


# decompose_lines reads a checked instance, so the instance refuses what the
# decomposition cannot split: a line on no factor, a repeated line


def test_decompose_rejects_stray_line():
    surface, points, lines = product_instance()
    with pytest.raises(DomainError, match="an instance line misses the surface"):
        IncidenceInstance(surface, points, lines + [AffLine((9, 9, 9), (1, 1, 1))])


def test_decompose_rejects_duplicates():
    surface, points, lines = product_instance()
    with pytest.raises(DomainError, match="instance lines must be distinct"):
        IncidenceInstance(surface, points, lines + [lines[0]])


def test_decompose_rejects_planar_factor():
    inst = IncidenceInstance(Surface([Z, CONE]), [], [X_AXIS])
    with pytest.raises(PlanarComponentError):
        decompose_lines(inst)


def test_decompose_needs_a_surface():
    with pytest.raises(DomainError, match="needs an instance with a surface"):
        decompose_lines(IncidenceInstance(None, [], [X_AXIS]))


# -- conical incidences and pruning


def test_conical_incidences_at_apex():
    surface, _, lines = product_instance()
    assert conical_incidence_count(decompose_lines(product_checked())) == 4
    away = IncidenceInstance(surface, [(1, 1, 1)], lines)
    assert conical_incidence_count(decompose_lines(away)) == 0


def test_prune_points_thresholds():
    dec = decompose_lines(product_checked())
    # regulus grid points carry two generic rulings unless one of them is
    # the shared y axis; conical incidences never count
    kept2 = prune_points(dec, min_incidences=2)
    assert len(kept2) == 20
    assert all(dec.instance.points[i][0] != 0 for i in kept2)
    assert prune_points(dec) == ()


def test_meeting_counts_across_rulings():
    dec = decompose_lines(product_checked())
    surface = dec.instance.surface
    kept = prune_points(dec, min_incidences=2)
    counts = meeting_line_counts(dec, kept)
    lines = dec.instance.lines
    # ruling u(1) meets the four off-axis opposite rulings plus the cubic
    # generator through (1,1,1); ruling v(1) additionally meets the x axis
    assert counts[lines.index(ruling_u(1))] == 5
    assert counts[lines.index(ruling_v(1))] == 6
    assert counts[lines.index(cone_generator(2, 1))] == 0
    assert set(counts) == set(dec.generic)
    worst = check_meeting_cap(dec, kept)
    assert worst == 6 <= 4 * surface.degree


# -- bound evaluators


def test_rhs_spot_values():
    assert rhs_st(4, 4) == pytest.approx(14.349604207872798, rel=1e-12)
    assert rhs_gk(16, 16, 2) == pytest.approx(84.15873679831797, rel=1e-12)
    assert rhs_main(100, 100, 4, 4) == pytest.approx(486.1773876012753, rel=1e-12)
    assert rhs_planes(8, 8, 0) == 24.0
    assert rhs_planes(27, 1, 0) == 36.0


def test_rhs_main_uses_degree_truncation():
    # min(n, degree^2) switches branch when lines outnumber the square degree
    low = rhs_main(64, 9, 5, 1)
    high = rhs_main(64, 100, 5, 1)
    assert low == pytest.approx(
        (64 * 9 * 5) ** 0.5 + 16 * 9 ** (1 / 3) + 64 + 9, rel=1e-12
    )
    assert high == pytest.approx(
        (64 * 100 * 5) ** 0.5 + 16 * 25 ** (1 / 3) + 64 + 100, rel=1e-12
    )


def test_choose_xi_regimes():
    assert choose_xi(100, 100, 4) == 3.0
    assert choose_xi(10, 100, 4) == pytest.approx((100 * 4 / 10) ** 0.5, rel=1e-12)
    with pytest.raises(DomainError):
        choose_xi(0, 5, 3)


def test_verify_bound_product_instance():
    surface, points, lines = product_instance()
    rep = verify_bound(product_checked(), surface.degree)
    assert isinstance(rep, BoundReport)
    assert rep.m == len(points) and rep.n == len(lines)
    assert rep.incidences == count_incidences(points, lines)
    assert rep.s == 3
    assert rep.within
    assert rep.ratio_main == pytest.approx(rep.incidences / rep.rhs_main, rel=1e-12)


def test_verify_bound_rejects_duplicates():
    # verify_bound and verify_planes_bound read a checked instance, so a
    # repeated point or line is refused before either bound is evaluated
    with pytest.raises(DomainError, match="instance points must be distinct"):
        verify_bound(IncidenceInstance(None, [(0, 0, 0), (0, 0, 0)], [X_AXIS]), 2)
    with pytest.raises(DomainError, match="instance lines must be distinct"):
        verify_bound(IncidenceInstance(None, [(0, 0, 0)], [X_AXIS, X_AXIS]), 2)
    # two equal points on two lines would otherwise count I=4
    with pytest.raises(DomainError, match="instance points must be distinct"):
        verify_planes_bound(IncidenceInstance(None, [(0, 0, 0), (0, 0, 0)], [X_AXIS, Y_AXIS]))
    with pytest.raises(DomainError, match="instance lines must be distinct"):
        verify_planes_bound(IncidenceInstance(None, [(0, 0, 0)], [X_AXIS, X_AXIS]))


def test_verify_planes_bound():
    points = [(Fraction(i), Fraction(j), Fraction(0)) for i in range(3) for j in range(3)]
    lines = [AffLine((0, c, 0), (1, 0, 0)) for c in range(3)]
    rep = verify_planes_bound(IncidenceInstance(None, points, lines))
    assert rep.incidences == 9
    assert rep.s == 3
    assert rep.within
