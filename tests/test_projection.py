"""Tests for generic dimension-lowering projections."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incgeo import projection
from incgeo.errors import ArityError, CollapseError, DomainError, ResampleExhaustedError
from incgeo.forge import build_instance, lift_to_dim
from incgeo.incidence import count_incidences
from incgeo.linalg import is_zero_vec, to_vec
from incgeo.linespace import (
    AffLine,
    RelationKind,
    coplanar_triple,
    incidence_point_line,
    incidence_relation,
    line_relation,
)
from incgeo.projection import (
    is_generic,
    project_once,
    project_to_3space,
    project_vector,
)

F = Fraction


def certify(points, lines, projected_points, projected_lines):
    """is_generic with the original side's incidence relation built here."""
    return is_generic(
        points, lines, incidence_relation(points, lines), projected_points, projected_lines
    )


def quad_instance():
    """Three points pairwise joined by lines, plus a spare line, in R^4."""
    pts = [(F(0), F(0), F(0), F(0)), (F(1), F(1), F(0), F(2)), (F(2), F(0), F(1), F(1))]
    lns = [
        AffLine((0, 0, 0, 0), (1, 1, 0, 2)),
        AffLine((0, 0, 0, 0), (2, 0, 1, 1)),
        AffLine((1, 1, 0, 2), (1, -1, 1, -1)),
        AffLine((0, 0, 0, 0), (0, 0, 0, 1)),
    ]
    return pts, lns


class TestProjectVector:
    def test_direction_maps_to_zero(self):
        w = (F(3), F(-1), F(2), F(5))
        assert project_vector(w, w) == (F(0),) * 3

    def test_dimension_drops_by_one(self):
        assert len(project_vector((1, 2, 3, 4, 5), (0, 0, 1, 0, 0))) == 4

    def test_linear(self):
        w = (F(1), F(2), F(0), F(1))
        a = (F(1), F(0), F(3), F(2))
        b = (F(0), F(5), F(1), F(-1))
        pa, pb = project_vector(a, w), project_vector(b, w)
        psum = project_vector(tuple(x + y for x, y in zip(a, b)), w)
        assert psum == tuple(x + y for x, y in zip(pa, pb))

    def test_zero_direction_rejected(self):
        with pytest.raises(DomainError):
            project_vector((1, 2, 3, 4), (0, 0, 0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ArityError):
            project_vector((1, 2, 3), (1, 0, 0, 0))


class TestProjectOnce:
    def test_collapse_of_parallel_line(self):
        pts, lns = quad_instance()
        with pytest.raises(CollapseError):
            project_once(pts, lns, (0, 0, 0, 1))

    def test_no_projection_below_three_dims(self):
        with pytest.raises(DomainError):
            project_once([(F(1), F(2), F(3))], [], (1, 0, 0))

    def test_incidences_carry_over(self):
        pts, lns = quad_instance()
        w = (F(1), F(3), F(5), F(7))
        pts2, lns2 = project_once(pts, lns, w)
        assert count_incidences(pts2, lns2) >= count_incidences(pts, lns)


class TestIsGeneric:
    def test_clean_projection_certifies(self):
        pts, lns = quad_instance()
        w = (F(1), F(3), F(5), F(7))
        pts2, lns2 = project_once(pts, lns, w)
        cert = certify(pts, lns, pts2, lns2)
        assert cert.ok
        assert cert.resamples_used == 0

    def test_point_collision_flagged(self):
        pts, lns = quad_instance()
        w = pts[1]  # parallel to the segment joining the first two points
        pts2, lns2 = project_once(pts, [lns[1]], w)
        cert = certify(pts, [lns[1]], pts2, lns2)
        assert not cert.points_distinct
        assert not cert.ok

    def test_created_incidence_flagged(self):
        ln = AffLine((0, 0, 0, 0), (1, 0, 0, 0))
        q = (F(2), F(0), F(0), F(1))  # off the line, but over it along w
        w = (F(0), F(0), F(0), F(1))
        pts2, lns2 = project_once([q], [ln], w)
        cert = certify([q], [ln], pts2, lns2)
        assert not cert.incidences_preserved
        assert not cert.ok

    def test_flattened_triple_flagged(self):
        # Two lines share a 2-flat; the third floats above it in the last
        # coordinate, and projecting that coordinate away flattens the triple.
        l1 = AffLine((0, 0, 0, 0), (1, 0, 0, 0))
        l2 = AffLine((0, 1, 0, 0), (1, 1, 0, 0))
        l3 = AffLine((0, 0, 0, 1), (0, 1, 0, 0))
        assert not coplanar_triple(l1, l2, l3)
        w = (F(0), F(0), F(0), F(1))
        pts2, lns2 = project_once([], [l1, l2, l3], w)
        assert coplanar_triple(*lns2)
        cert = certify([], [l1, l2, l3], pts2, lns2)
        assert not cert.noncoplanar_triples_preserved
        assert cert.points_distinct and cert.lines_distinct

    def test_size_mismatch_rejected(self):
        pts, lns = quad_instance()
        with pytest.raises(DomainError):
            certify(pts, lns, pts[:2], lns)


class TestProjectTo3Space:
    def test_four_to_three_preserves_counts(self):
        pts, lns = quad_instance()
        before = count_incidences(pts, lns)
        pts3, lns3, cert = project_to_3space(pts, lns, seed=7)
        assert cert.ok
        assert cert.resamples_used <= 3
        assert {len(p) for p in pts3} == {3}
        assert {ln.dim for ln in lns3} == {3}
        assert count_incidences(pts3, lns3) == before

    def test_deterministic_in_seed(self):
        pts, lns = quad_instance()
        first = project_to_3space(pts, lns, seed=12)
        second = project_to_3space(pts, lns, seed=12)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_three_dims_is_identity(self):
        pts = [(F(1), F(2), F(3))]
        lns = [AffLine((0, 0, 0), (1, 1, 1))]
        pts3, lns3, cert = project_to_3space(pts, lns, seed=0)
        assert pts3 == [tuple(map(F, (1, 2, 3)))]
        assert lns3 == lns
        assert cert.ok and cert.resamples_used == 0

    def test_empty_instance(self):
        pts3, lns3, cert = project_to_3space([], [], seed=0)
        assert pts3 == [] and lns3 == []
        assert cert.ok

    def test_low_dimension_rejected(self):
        with pytest.raises(DomainError):
            project_to_3space([(F(1), F(2))], [], seed=0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ArityError):
            project_to_3space(
                [(F(0), F(0), F(0), F(0))], [AffLine((0,) * 5, (1,) + (0,) * 4)], seed=0
            )

    def test_unfixable_instance_exhausts_budget(self):
        # A duplicated input point can never certify, whatever the direction.
        p = (F(1), F(0), F(0), F(0))
        with pytest.raises(ResampleExhaustedError):
            project_to_3space([p, p], [], seed=0, max_resamples=4)


@st.composite
def five_dim_instances(draw):
    coords = st.integers(min_value=-4, max_value=4)
    n_lines = draw(st.integers(min_value=1, max_value=4))
    lines = []
    for _ in range(n_lines):
        base = tuple(F(draw(coords)) for _ in range(5))
        direction = tuple(F(draw(coords)) for _ in range(5))
        if all(c == 0 for c in direction):
            direction = (F(1),) + direction[1:]
        lines.append(AffLine(base, direction))
    lines = sorted(set(lines), key=lambda ln: (ln.direction, ln.base))
    points = set()
    for ln in lines:
        for t in (F(0), F(1), F(1, 2)):
            points.add(ln.point_at(t))
    points.add(tuple(F(draw(coords)) + F(1, 3) for _ in range(5)))
    return sorted(points), lines


class TestProjectionProperties:
    @settings(max_examples=40, deadline=None)
    @given(five_dim_instances())
    def test_counts_survive_descent(self, instance):
        pts, lns = instance
        before = count_incidences(pts, lns)
        pts3, lns3, cert = project_to_3space(pts, lns, seed=5)
        assert cert.ok
        assert len(pts3) == len(pts)
        assert len(lns3) == len(lns)
        assert count_incidences(pts3, lns3) == before


def brute_force_certificate(points, lines, projected_points, projected_lines):
    """The four certificate booleans with every line triple tested on both
    sides: the reference for is_generic, which tests triples only inside a
    shared projected plane."""
    pts = [to_vec(p) for p in points]
    pts2 = [to_vec(p) for p in projected_points]
    lines2 = list(projected_lines)
    return (
        len(set(pts2)) == len(set(pts)) == len(pts),
        len(set(lines2)) == len(set(lines)) == len(lines),
        all(
            incidence_point_line(p, ln) == incidence_point_line(q, ln2)
            for p, q in zip(pts, pts2)
            for ln, ln2 in zip(lines, lines2)
        ),
        all(
            coplanar_triple(lines[i], lines[j], lines[k])
            or not coplanar_triple(lines2[i], lines2[j], lines2[k])
            for i, j, k in combinations(range(len(lines)), 3)
        ),
    )


def certificate_fields(cert):
    return tuple(cert)[:4]


def nonzero(dim):
    return st.tuples(*[st.integers(-3, 3)] * dim).filter(any).map(to_vec)


def keep_projectable(lines, w):
    """Drop the lines that would collapse to a point along w."""
    return [ln for ln in lines if not is_zero_vec(project_vector(ln.direction, w))]


@st.composite
def lifted_catalog_projections(draw):
    """A lifted catalog instance, as in c10, and a small integer direction,
    so that degenerate projections are drawn now and then."""
    kind = draw(st.sampled_from(("cone", "regulus", "whitney", "product")))
    seed = draw(st.integers(0, 10**6))
    inst = build_instance(kind, draw(st.integers(3, 6)), draw(st.integers(5, 9)), seed=seed)
    dim = draw(st.integers(4, 5))
    pts, lns = lift_to_dim(inst.points, inst.lines, dim, seed=seed)
    w = draw(nonzero(dim))
    return pts, keep_projectable(lns, w), w


@st.composite
def adversarial_projections(draw):
    """Pencils of concurrent lines, parallel classes and several lines in one
    plane (some of them parallel), in a shuffled order, projected along a
    random direction or along one that makes two lines coincide."""
    dim = draw(st.integers(4, 5))
    vec = st.tuples(*[st.integers(-3, 3)] * dim).map(to_vec)
    small = st.integers(-2, 2)
    lines = []
    center = draw(vec)
    lines += [AffLine(center, d) for d in draw(st.lists(nonzero(dim), max_size=4))]
    shared = draw(nonzero(dim))
    lines += [AffLine(b, shared) for b in draw(st.lists(vec, max_size=3))]
    origin, u, v = draw(vec), draw(nonzero(dim)), draw(nonzero(dim))
    for a, b, al, be in draw(st.lists(st.tuples(small, small, small, small), max_size=5)):
        direction = tuple(al * x + be * y for x, y in zip(u, v))
        if any(direction):
            lines.append(AffLine(tuple(o + a * x + b * y for o, x, y in zip(origin, u, v)),
                                 direction))
    lines += [AffLine(draw(vec), d) for d in draw(st.lists(nonzero(dim), max_size=1))]
    if len(lines) < 2:
        lines += [
            AffLine(center, (1,) + (0,) * (dim - 1)),
            AffLine(origin, (0, 1) + (0,) * (dim - 2)),
        ]
    lines = [lines[i] for i in draw(st.permutations(range(len(lines))))]

    w = draw(nonzero(dim))
    i, j = draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2, unique=True))
    a, b = lines[i], lines[j]
    kind = line_relation(a, b).kind
    if draw(st.booleans()) and kind in (RelationKind.PARALLEL, RelationKind.INTERSECTING):
        # a direction inside the plane of a and b but along neither line
        # maps that plane onto one line, so a and b land on the same line
        if kind is RelationKind.PARALLEL:
            w = tuple(y - x for x, y in zip(a.base, b.base))
        else:
            w = tuple(x + y for x, y in zip(a.direction, b.direction))

    points = [center, origin] + [ln.point_at(t) for ln in lines for t in draw(
        st.lists(st.integers(-2, 2), max_size=1))]
    points.append(draw(vec))
    return points, keep_projectable(lines, w), w


class TestCertificateAgainstBruteForce:
    @staticmethod
    def check(instance):
        pts, lns, w = instance
        pts2, lns2 = project_once(pts, lns, w)
        expected = brute_force_certificate(pts, lns, pts2, lns2)
        assert certificate_fields(certify(pts, lns, pts2, lns2)) == expected

    @settings(max_examples=60, deadline=None)
    @given(lifted_catalog_projections())
    def test_lifted_catalog_families(self, instance):
        self.check(instance)

    @settings(max_examples=150, deadline=None)
    @given(adversarial_projections())
    def test_adversarial_configurations(self, instance):
        self.check(instance)

    def test_coincident_projected_lines(self):
        # a and b are parallel in R^4; projecting along their base difference
        # puts them on one line.  c leaves their plane, so the triple a, b, c
        # is not coplanar before; after, it is coplanar exactly when the
        # image of c meets the common image of a and b.
        a = AffLine((0, 0, 0, 0), (1, 0, 0, 0))
        b = AffLine((0, 1, 0, 0), (1, 0, 0, 0))
        w = (F(0), F(1), F(0), F(0))
        for c, triples_ok in (
            (AffLine((0, 0, 1, 0), (0, 0, 0, 1)), True),
            (AffLine((0, 0, 0, 1), (0, 1, 0, 1)), False),
        ):
            pts2, lns2 = project_once([], [a, b, c], w)
            assert lns2[0] == lns2[1]
            cert = certify([], [a, b, c], pts2, lns2)
            assert certificate_fields(cert) == brute_force_certificate([], [a, b, c], [], lns2)
            assert cert.noncoplanar_triples_preserved is triples_ok
            assert not cert.lines_distinct


@pytest.fixture()
def triple_calls(monkeypatch):
    """Record every coplanar_triple call that is_generic makes."""
    calls = []

    def counting(*lines):
        calls.append(lines)
        return coplanar_triple(*lines)

    monkeypatch.setattr(projection, "coplanar_triple", counting)
    return calls


class TestTripleTestMechanism:
    def test_pencil_needs_no_triple_test(self, triple_calls):
        # directions on the moment curve: no three are linearly dependent,
        # so no three lines of the pencil share a plane, before or after
        center = (1, 2, 0, -1)
        lines = [AffLine(center, (1, k, k * k, k**3)) for k in range(8)]
        w = (F(1), F(3), F(-5), F(7))
        pts2, lns2 = project_once([center], lines, w)
        cert = certify([center], lines, pts2, lns2)
        assert cert.ok
        assert triple_calls == []

    def test_pairwise_skew_image_needs_no_triple_test(self, triple_calls):
        lines = [AffLine((k, 0, k * k, 1), (1, k, k**3, 2 * k + 1)) for k in range(1, 9)]
        w = (F(2), F(-1), F(3), F(1))
        pts2, lns2 = project_once([], lines, w)
        assert all(line_relation(a, b).kind is RelationKind.SKEW
                   for a, b in combinations(lns2, 2))
        assert certify([], lines, pts2, lns2).ok
        assert triple_calls == []

    def test_only_triples_in_a_shared_plane_are_tested(self, triple_calls):
        # four lines in the plane x3 = x4 = 0, two of them parallel, plus a
        # pencil of three lines through a point off that plane
        plane = [
            AffLine((0, 0, 0, 0), (1, 0, 0, 0)),
            AffLine((0, 1, 0, 0), (1, 0, 0, 0)),
            AffLine((0, 0, 0, 0), (0, 1, 0, 0)),
            AffLine((1, 0, 0, 0), (1, 1, 0, 0)),
        ]
        pencil = [AffLine((0, 0, 1, 1), d) for d in ((1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 2))]
        lines = plane + pencil
        w = (F(1), F(3), F(-5), F(7))
        pts2, lns2 = project_once([], lines, w)
        assert certify([], lines, pts2, lns2).ok
        in_plane = {frozenset(t) for t in combinations(plane, 3)}
        assert len(triple_calls) == 4
        assert {frozenset(c) for c in triple_calls} == in_plane


def test_incidence_relation_is_built_once(monkeypatch):
    # the original relation once, then only the projected side of each
    # sample: an accepted step certifies that the relation did not change
    inst = build_instance("product", 6, 9, seed=4)
    pts, lns = lift_to_dim(inst.points, inst.lines, 6, seed=4)
    built, samples = [], []
    relation, project = projection.incidence_relation, projection.project_once

    def counted_relation(points, lines):
        built.append(list(points))
        return relation(points, lines)

    def counted_project(*args):
        samples.append(project(*args))
        return samples[-1]

    monkeypatch.setattr(projection, "incidence_relation", counted_relation)
    monkeypatch.setattr(projection, "project_once", counted_project)
    pts3, _, cert = project_to_3space(pts, lns, seed=2)
    assert cert.ok and len(samples) >= 3
    assert built == [pts] + [projected for projected, _ in samples]
    assert count_incidences(pts3, samples[-1][1]) == count_incidences(pts, lns)
