"""Tests for the surface catalog and seeded instance construction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incgeo.errors import ArityError, DomainError, ResampleExhaustedError
from incgeo.forge import (
    ORIGIN,
    WHITNEY_SINGULAR_AXIS,
    build_instance,
    lift_to_dim,
    make_lines,
    make_surface,
    place_points,
)
from incgeo.incidence import count_incidences, max_lines_per_flat, verify_bound
from incgeo.instfile import MAX_DIM, IncidenceInstance
from incgeo.linespace import AffLine, incidence_point_line, line_on_surface

F = Fraction


class TestMakeSurface:
    @pytest.mark.parametrize(
        "kind,degree,nfactors",
        [
            ("cone", 2, 1),
            ("regulus", 2, 1),
            ("whitney", 3, 1),
            ("sphere", 2, 1),
            ("fermat", 3, 1),
            ("product", 7, 3),
        ],
    )
    def test_catalog(self, kind, degree, nfactors):
        s = make_surface(kind)
        assert s.degree == degree
        assert len(s.factors) == nfactors

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            make_surface("torus")


class TestMakeLines:
    @pytest.mark.parametrize("kind", ["cone", "regulus", "whitney", "product"])
    def test_lines_lie_on_surface(self, kind):
        surface = make_surface(kind)
        lines = make_lines(kind, 16)
        assert len(lines) == len(set(lines)) == 16
        assert all(any(line_on_surface(w, ln) for w in surface.factors) for ln in lines)

    def test_deterministic(self):
        assert make_lines("product", 11) == make_lines("product", 11)

    def test_cone_enumeration_reaches_pythagorean_triples(self):
        lines = set(make_lines("cone", 8))
        assert AffLine((0, 0, 0), (3, 4, 5)) in lines
        assert AffLine((0, 0, 0), (4, 3, -5)) in lines

    def test_cone_lines_concurrent_at_apex(self):
        for ln in make_lines("cone", 10):
            assert incidence_point_line(ORIGIN, ln)

    def test_whitney_exceptional_flag(self):
        plain = make_lines("whitney", 6)
        flagged = make_lines("whitney", 6, include_exceptional=True)
        assert WHITNEY_SINGULAR_AXIS not in plain
        assert flagged[0] == WHITNEY_SINGULAR_AXIS
        assert len(flagged) == 6

    def test_product_merges_families_without_duplicates(self):
        lines = make_lines("product", 30)
        assert len(set(lines)) == 30

    def test_line_free_surfaces(self):
        assert make_lines("sphere", 0) == []
        with pytest.raises(DomainError):
            make_lines("sphere", 1)
        with pytest.raises(DomainError):
            make_lines("fermat", 3)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            make_lines("cone", -1)
        with pytest.raises(DomainError):
            make_lines("moebius", 2)


class TestPlacePoints:
    def test_points_land_on_the_lines(self):
        lines = make_lines("regulus", 8)
        pts = place_points(lines, 40, seed=2)
        assert len(pts) == len(set(pts)) == 40
        for p in pts:
            assert any(incidence_point_line(p, ln) for ln in lines)

    def test_deterministic_in_seed(self):
        lines = make_lines("cone", 6)
        assert place_points(lines, 25, seed=4) == place_points(lines, 25, seed=4)
        assert place_points(lines, 25, seed=4) != place_points(lines, 25, seed=5)

    def test_avoid_is_respected(self):
        lines = make_lines("cone", 6)
        pts = place_points(lines, 60, seed=0, avoid=(ORIGIN,))
        assert ORIGIN not in pts

    def test_degenerate_requests(self):
        assert place_points([], 0) == []
        with pytest.raises(DomainError):
            place_points([], 3)
        with pytest.raises(DomainError):
            place_points(make_lines("cone", 2), -1)

    def test_exhaustion_on_a_single_line(self):
        # One line only carries so many distinct sample parameters.
        ln = AffLine((0, 0, 0), (1, 0, 0))
        with pytest.raises(ResampleExhaustedError):
            place_points([ln], 3000, seed=0)


class TestLiftToDim:
    def test_preserves_counts_and_distinctness(self):
        inst = build_instance("product", 10, 24, seed=6)
        pts, lns = lift_to_dim(inst.points, inst.lines, 5, seed=6)
        assert len(set(pts)) == 24 and len(set(lns)) == 10
        assert {len(p) for p in pts} == {5}
        assert count_incidences(pts, lns) == count_incidences(inst.points, inst.lines)

    def test_identity_when_dimension_matches(self):
        inst = build_instance("regulus", 4, 6, seed=1)
        pts, lns = lift_to_dim(inst.points, inst.lines, 3, seed=1)
        assert pts == list(inst.points)
        assert lns == list(inst.lines)

    def test_deterministic(self):
        inst = build_instance("cone", 5, 8, seed=2)
        one = lift_to_dim(inst.points, inst.lines, 6, seed=3)
        two = lift_to_dim(inst.points, inst.lines, 6, seed=3)
        assert one == two

    def test_downward_lift_rejected(self):
        inst = build_instance("cone", 3, 4, seed=0)
        with pytest.raises(DomainError):
            lift_to_dim(inst.points, inst.lines, 2, seed=0)

    def test_dimension_cap(self):
        inst = build_instance("cone", 3, 4, seed=0)
        pts, lns = lift_to_dim(inst.points, inst.lines, MAX_DIM, seed=0)
        assert {len(p) for p in pts} == {ln.dim for ln in lns} == {MAX_DIM}
        with pytest.raises(DomainError, match=f"dimension {MAX_DIM + 1} exceeds the cap"):
            lift_to_dim(inst.points, inst.lines, MAX_DIM + 1, seed=0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ArityError):
            lift_to_dim([(F(0),) * 4], [AffLine((0, 0, 0), (1, 0, 0))], 6)


class TestIncidenceInstance:
    def test_validates_distinctness(self):
        p = (F(1), F(2), F(3))
        with pytest.raises(DomainError, match="instance points must be distinct"):
            IncidenceInstance(None, [p, p], [])
        ln = AffLine((0, 0, 0), (1, 1, 0))
        with pytest.raises(DomainError, match="instance lines must be distinct"):
            IncidenceInstance(None, [], [ln, ln])
        # the x-axis again, on a surface, written from another base point
        x_axis, again = AffLine((0, 0, 0), (1, 0, 0)), AffLine((5, 0, 0), (-2, 0, 0))
        with pytest.raises(DomainError, match="instance lines must be distinct"):
            IncidenceInstance(make_surface("regulus"), [(0, 0, 0)], [x_axis, again])

    def test_validates_dimensions(self):
        with pytest.raises(ArityError):
            IncidenceInstance(None, [(F(0),) * 3, (F(0),) * 4], [])
        with pytest.raises(ArityError):
            IncidenceInstance(make_surface("cone"), [(F(0),) * 4], [])

    def test_validates_lines_on_surface(self):
        with pytest.raises(DomainError, match="an instance line misses the surface"):
            IncidenceInstance(make_surface("cone"), [], [AffLine((0, 0, 0), (1, 0, 0))])

    def test_incidence_relation_is_built_on_first_read(self):
        inst = build_instance("product", 12, 20, seed=2)
        assert "lines_at" not in vars(inst) and "points_on" not in vars(inst)
        assert inst.incidences == count_incidences(inst.points, inst.lines)
        assert "lines_at" in vars(inst)

    def test_counts_and_dim(self):
        inst = build_instance("whitney", 5, 9, seed=8)
        assert (inst.m, inst.n, inst.dim) == (9, 5, 3)
        assert IncidenceInstance(None, [], []).dim == 3


class TestBuildInstance:
    def test_cone_reference_instance(self):
        inst = build_instance("cone", 20, 200, seed=3)
        assert (inst.m, inst.n) == (200, 20)
        assert count_incidences(inst.points, inst.lines) == 200
        assert max_lines_per_flat(inst.lattices) == 2
        report = verify_bound(inst, degree=2, s=2)
        assert report.within
        assert abs(report.ratio_main - 0.5293) < 0.001

    def test_apex_never_sampled(self):
        inst = build_instance("cone", 8, 50, seed=11)
        assert ORIGIN not in inst.points

    def test_lifted_instance_detaches_surface(self):
        inst = build_instance("product", 9, 15, seed=4, dim=6)
        assert inst.surface is None
        assert inst.dim == 6

    def test_deterministic(self):
        one = build_instance("whitney", 7, 12, seed=5)
        two = build_instance("whitney", 7, 12, seed=5)
        assert one.points == two.points and one.lines == two.lines


# a line on none of the catalog factors, and small data for random lines
OFF_SURFACE = AffLine((9, 9, 9), (1, 1, 1))
small = st.integers(-3, 3)


@st.composite
def catalog_instances(draw):
    """A catalog surface with a random subset of its family in random
    order, the Whitney axis when drawn, a further line that may or may not
    lie on the surface, and points on and off the lines."""
    kind = draw(st.sampled_from(["cone", "regulus", "whitney", "product"]))
    family = make_lines(kind, 12, include_exceptional=draw(st.booleans()))
    lines = draw(st.lists(st.sampled_from(family), unique=True, max_size=8))
    extra = draw(st.sampled_from([None, OFF_SURFACE, "random"]))
    if extra == "random":
        direction = draw(st.tuples(small, small, small).filter(any))
        extra = AffLine(draw(st.tuples(small, small, small)), direction)
    if extra is not None and extra not in lines:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    points = [draw(st.tuples(small, small, small)) for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 10)) if lines else 0):
        ln = draw(st.sampled_from(lines))
        points.append(ln.point_at(F(draw(small), draw(st.integers(1, 2)))))
    points = list(dict.fromkeys(tuple(map(F, p)) for p in points))
    return make_surface(kind), points, lines


@settings(max_examples=80, deadline=None)
@given(catalog_instances())
def test_instance_matches_brute_force_tables(case):
    surface, points, lines = case
    owners = tuple(
        tuple(i for i, w in enumerate(surface.factors) if line_on_surface(w, ln)) for ln in lines
    )
    if not all(owners):
        with pytest.raises(DomainError, match="an instance line misses the surface"):
            IncidenceInstance(surface, points, lines)
        return
    inst = IncidenceInstance(surface, points, lines)
    assert inst.containing == owners
    table = [[incidence_point_line(p, ln) for ln in lines] for p in points]
    assert inst.lines_at == tuple(tuple(j for j, on in enumerate(row) if on) for row in table)
    assert inst.points_on == tuple(
        tuple(i for i, row in enumerate(table) if row[j]) for j in range(len(lines))
    )
    assert inst.incidences == count_incidences(points, lines)
