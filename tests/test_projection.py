"""Tests for generic dimension-lowering projections.

The package projects on integers; projref holds the Fraction formula the
step is checked against, adapters that run the step, the certificate and
the descent on Fraction points and AffLines, and the step-by-step descent
that the composed certificate is checked against.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import projref
from projref import (
    certify,
    fraction_form,
    integer_direction,
    lattice_form,
    project,
    project_down,
    project_fractions,
    project_vector,
    step_by_step,
)

from incgeo import linespace, projection, zsolve
from incgeo.errors import ArityError, CollapseError, DomainError, ResampleExhaustedError
from incgeo.forge import build_instance, lift_to_dim
from incgeo.incidence import count_incidences
from incgeo.lattice import scaled_form
from incgeo.linespace import (
    AffLine,
    RelationKind,
    coplanar_triple,
    incidence_point_line,
    line_relation,
    to_vec,
)
from incgeo.projection import project_once, project_to_3space

F = Fraction


def image(v, w):
    """The integer step's image of one point, as Fractions."""
    return project([v], [], w)[0][0]


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
        assert image(w, w) == (F(0),) * 3

    def test_dimension_drops_by_one(self):
        assert len(image((1, 2, 3, 4, 5), (0, 0, 1, 0, 0))) == 4

    def test_linear(self):
        w = (F(1), F(2), F(0), F(1))
        a = (F(1), F(0), F(3), F(2))
        b = (F(0), F(5), F(1), F(-1))
        pa, pb = image(a, w), image(b, w)
        psum = image(tuple(x + y for x, y in zip(a, b)), w)
        assert psum == tuple(x + y for x, y in zip(pa, pb))

    def test_zero_direction_rejected(self):
        with pytest.raises(DomainError):
            image((1, 2, 3, 4), (0, 0, 0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ArityError):
            image((1, 2, 3), (1, 0, 0, 0))


class TestProjectOnce:
    def test_collapse_of_parallel_line(self):
        pts, lns = quad_instance()
        with pytest.raises(CollapseError):
            project(pts, lns, (0, 0, 0, 1))

    def test_no_projection_below_three_dims(self):
        with pytest.raises(DomainError):
            project([(F(1), F(2), F(3))], [], (1, 0, 0))

    def test_incidences_carry_over(self):
        pts, lns = quad_instance()
        w = (F(1), F(3), F(5), F(7))
        pts2, lns2 = project(pts, lns, w)
        assert count_incidences(pts2, lns2) >= count_incidences(pts, lns)


WIDE = st.sampled_from((1, 1, 2, 3, 7, 2**64 + 13, 3**41))


@st.composite
def step_cases(draw):
    """Points and lines in R^4..R^6 with wide denominators, and a direction
    whose largest magnitude is tied between entries, negative, or neither;
    now and then one line is parallel to it, so the step collapses."""
    dim = draw(st.integers(4, 6))
    coord = st.builds(Fraction, st.integers(-9, 9), WIDE)
    vec = st.tuples(*[coord] * dim)
    w = list(draw(st.tuples(*[st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))] * dim)))
    top = draw(st.sampled_from((F(6), F(-6), F(13, 2))))
    first, second = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
    w[first] = top
    if draw(st.booleans()):  # a tie: the pivot is the first of the two
        w[second] = draw(st.sampled_from((top, -top)))
    lines = [AffLine(draw(vec), d) for d in draw(st.lists(vec.filter(any), min_size=1, max_size=4))]
    if draw(st.sampled_from((True, False, False, False))):
        lines.append(AffLine(draw(vec), [draw(st.sampled_from((-2, 1, 3))) * c for c in w]))
    points = draw(st.lists(vec, max_size=4)) + [ln.point_at(draw(coord)) for ln in lines]
    return points, lines, tuple(w)


@settings(max_examples=150, deadline=None)
@given(step_cases())
def test_integer_step_matches_the_fraction_formula(case):
    points, lines, w = case
    try:
        expected = project_fractions(points, lines, w)
    except CollapseError:
        with pytest.raises(CollapseError):
            project_once(*lattice_form(points, lines), integer_direction(w))
        return
    got_points, got_lines = project_once(*lattice_form(points, lines), integer_direction(w))
    assert got_points == [scaled_form(p) for p in expected[0]]
    assert got_lines == [ln.lattice for ln in expected[1]]
    assert project(points, lines, w) == expected


def test_sampled_directions_are_the_fraction_draws_scaled():
    # the same rng draws as Fraction(n, d) entries, scaled by a positive
    # factor to a primitive integer vector: the same map and the same pivot
    magnitude = projection.SAMPLE_MAGNITUDE
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        w = projection._sample_direction(rng, 6)
        drawn = [F(ref.randint(-magnitude, magnitude), ref.randint(1, magnitude)) for _ in range(6)]
        ratio = next(F(x) / y for x, y in zip(w, drawn) if y)
        assert ratio > 0 and all(x == ratio * y for x, y in zip(w, drawn))
        assert gcd(*w) == 1
        assert rng.random() == ref.random()


class TestIsGeneric:
    def test_clean_projection_certifies(self):
        pts, lns = quad_instance()
        w = (F(1), F(3), F(5), F(7))
        pts2, lns2 = project(pts, lns, w)
        cert = certify(pts, lns, pts2, lns2)
        assert cert.ok
        assert cert.resamples_used == 0

    def test_point_collision_flagged(self):
        pts, lns = quad_instance()
        w = pts[1]  # parallel to the segment joining the first two points
        pts2, lns2 = project(pts, [lns[1]], w)
        cert = certify(pts, [lns[1]], pts2, lns2)
        assert not cert.points_distinct
        assert not cert.ok

    def test_created_incidence_flagged(self):
        ln = AffLine((0, 0, 0, 0), (1, 0, 0, 0))
        q = (F(2), F(0), F(0), F(1))  # off the line, but over it along w
        w = (F(0), F(0), F(0), F(1))
        pts2, lns2 = project([q], [ln], w)
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
        pts2, lns2 = project([], [l1, l2, l3], w)
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
        pts3, lns3, cert = project_down(pts, lns, seed=7)
        assert cert.ok
        assert cert.resamples_used <= 3
        assert {len(p) for p in pts3} == {3}
        assert {ln.dim for ln in lns3} == {3}
        assert count_incidences(pts3, lns3) == before

    def test_deterministic_in_seed(self):
        pts, lns = quad_instance()
        first = project_down(pts, lns, seed=12)
        second = project_down(pts, lns, seed=12)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_three_dims_is_identity(self):
        pts = [(F(1), F(2), F(3))]
        lns = [AffLine((0, 0, 0), (1, 1, 1))]
        pts3, lns3, cert = project_down(pts, lns, seed=0)
        assert pts3 == [tuple(map(F, (1, 2, 3)))]
        assert lns3 == lns
        assert cert.ok and cert.resamples_used == 0

    def test_empty_instance(self):
        pts3, lns3, cert = project_down([], [], seed=0)
        assert pts3 == [] and lns3 == []
        assert cert.ok

    def test_low_dimension_rejected(self):
        with pytest.raises(DomainError):
            project_down([(F(1), F(2))], [], seed=0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ArityError):
            project_down(
                [(F(0), F(0), F(0), F(0))], [AffLine((0,) * 5, (1,) + (0,) * 4)], seed=0
            )

    def test_unfixable_instance_exhausts_budget(self):
        # A duplicated input point can never certify, whatever the direction.
        p = (F(1), F(0), F(0), F(0))
        with pytest.raises(ResampleExhaustedError):
            project_down([p, p], [], seed=0, max_resamples=4)


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
        pts3, lns3, cert = project_down(pts, lns, seed=5)
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
    return [ln for ln in lines if any(project_vector(ln.direction, w))]


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
        pts2, lns2 = project(pts, lns, w)
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
            pts2, lns2 = project([], [a, b, c], w)
            assert lns2[0] == lns2[1]
            cert = certify([], [a, b, c], pts2, lns2)
            assert certificate_fields(cert) == brute_force_certificate([], [a, b, c], [], lns2)
            assert cert.noncoplanar_triples_preserved is triples_ok
            assert not cert.lines_distinct


@pytest.fixture()
def pair_calls(monkeypatch):
    """Record every pair of original lines, as a set of two lattices, that
    is_generic relates; the reference predicates are never called."""
    calls = []
    relate = projection.lattice_relation

    def recorded(a, b):
        calls.append(frozenset((a, b)))
        return relate(a, b)

    def unused(*args):
        raise AssertionError("the certificate called an exact-rank predicate")

    monkeypatch.setattr(projection, "lattice_relation", recorded)
    monkeypatch.setattr(linespace, "coplanar_triple", unused)
    monkeypatch.setattr(zsolve, "echelon", unused)
    return calls


class TestTripleTestMechanism:
    def test_pencil_needs_no_triple_test(self, pair_calls):
        # directions on the moment curve: no three are linearly dependent,
        # so no three lines of the pencil share a plane, before or after
        center = (1, 2, 0, -1)
        lines = [AffLine(center, (1, k, k * k, k**3)) for k in range(8)]
        w = (F(1), F(3), F(-5), F(7))
        pts2, lns2 = project([center], lines, w)
        cert = certify([center], lines, pts2, lns2)
        assert cert.ok
        assert pair_calls == []

    def test_pairwise_skew_image_needs_no_triple_test(self, pair_calls):
        lines = [AffLine((k, 0, k * k, 1), (1, k, k**3, 2 * k + 1)) for k in range(1, 9)]
        w = (F(2), F(-1), F(3), F(1))
        pts2, lns2 = project([], lines, w)
        assert all(line_relation(a, b).kind is RelationKind.SKEW
                   for a, b in combinations(lns2, 2))
        assert certify([], lines, pts2, lns2).ok
        assert pair_calls == []

    def test_only_triples_in_a_shared_plane_are_tested(self, pair_calls):
        # four lines in the plane x3 = x4 = 0, two of them parallel, plus a
        # pencil of three lines through a point off that plane; the first
        # plane line is related to the other three and the second to the
        # last two, and no pair of the pencil, which shares no plane with a
        # third line, is related
        plane = [
            AffLine((0, 0, 0, 0), (1, 0, 0, 0)),
            AffLine((0, 1, 0, 0), (1, 0, 0, 0)),
            AffLine((0, 0, 0, 0), (0, 1, 0, 0)),
            AffLine((1, 0, 0, 0), (1, 1, 0, 0)),
        ]
        pencil = [AffLine((0, 0, 1, 1), d) for d in ((1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 2))]
        lines = plane + pencil
        w = (F(1), F(3), F(-5), F(7))
        pts2, lns2 = project([], lines, w)
        assert certify([], lines, pts2, lns2).ok
        related = {frozenset((plane[i].lattice, plane[j].lattice))
                   for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))}
        assert len(pair_calls) == 5
        assert set(pair_calls) == related


def adversarial_lift(seed):
    """A lifted product instance in R^6 with one more point, placed so that
    the first direction drawn from seed merges it with another point: the
    first chain fails, and the replay resamples its first step."""
    inst = build_instance("product", 6, 9, seed=4)
    pts, lns = lattice_form(*lift_to_dim(inst.points, inst.lines, 6, seed=4))
    w = projection._sample_direction(random.Random(seed), 6)
    (pv, q) = pts[0]
    return pts + [(tuple(c + q * x for c, x in zip(pv, w)), q)], lns


def recorded_descent(monkeypatch, points, lines, seed):
    """project_to_3space's output, with the point lists that it builds an
    incidence relation for and every step it takes."""
    built, samples = [], []
    relation, step = projection.lattice_incidences, projection.project_once

    def counted_relation(points, lines):
        built.append(list(points))
        return relation(points, lines)

    def counted_step(*args):
        samples.append(step(*args))
        return samples[-1]

    monkeypatch.setattr(projection, "lattice_incidences", counted_relation)
    monkeypatch.setattr(projection, "project_once", counted_step)
    return project_to_3space(points, lines, seed=seed), built, samples


def test_incidence_relation_is_built_once(monkeypatch):
    # the original relation once, then the composed map's once: its d - 3
    # steps are not certified one by one
    inst = build_instance("product", 6, 9, seed=4)
    pts, lns = lattice_form(*lift_to_dim(inst.points, inst.lines, 6, seed=4))
    (pts3, lns3, cert), built, samples = recorded_descent(monkeypatch, pts, lns, 2)
    assert cert.ok and cert.resamples_used == 0
    assert len(samples) == 3
    assert built == [pts, samples[-1][0]]
    assert (pts3, lns3) == samples[-1]
    assert count_incidences(*fraction_form(pts3, lns3)) == inst.incidences


@pytest.mark.parametrize("seed", (7, 8))
def test_failed_chain_replays_step_by_step(monkeypatch, seed):
    # the composed map merges two points, so the chain is replayed from the
    # same seed, each replayed sample builds its projected relation, and
    # the output and resample count are the step-by-step loop's
    pts, lns = adversarial_lift(seed)
    (pts3, lns3, cert), built, samples = recorded_descent(monkeypatch, pts, lns, seed)
    assert cert.ok and cert.resamples_used > 0
    assert len(samples) == 3 + 3 + cert.resamples_used
    assert built == [pts, samples[2][0]] + [projected for projected, _ in samples[3:]]
    assert (pts3, lns3, cert.resamples_used) == step_by_step(pts, lns, seed=seed)


@pytest.mark.parametrize("failing", ("zero", "parallel"))
@pytest.mark.parametrize("seed", (0, 3))
def test_a_failed_composed_draw_replays_step_by_step(monkeypatch, failing, seed):
    # the composed pass meets a zero direction (second draw) or one along a
    # line (first draw), so it stops without a certificate and the replay
    # resamples that draw; projref draws under the same name, so the
    # step-by-step loop sees the same draws
    inst = build_instance("product", 10, 16, seed=seed)
    pts, lns = lattice_form(*lift_to_dim(inst.points, inst.lines, 6, seed=seed))
    at, bad = {"zero": (2, (0,) * 5), "parallel": (1, lns[0][1])}[failing]
    draw, draws = projection._sample_direction, {}

    def sample(rng, dim):
        w = draw(rng, dim)
        draws[rng] = draws.get(rng, 0) + 1
        return bad if draws[rng] == at else w

    monkeypatch.setattr(projection, "_sample_direction", sample)
    monkeypatch.setattr(projref, "_sample_direction", sample)
    pts3, lns3, cert = project_to_3space(pts, lns, seed=seed)
    assert cert.ok and cert.resamples_used == 1
    assert (pts3, lns3, cert.resamples_used) == step_by_step(pts, lns, seed=seed)


@pytest.mark.parametrize("dim", range(4, 9))
@pytest.mark.parametrize("seed", (0, 3, 11))
def test_composed_certificate_matches_step_by_step(dim, seed):
    # one composed certificate gives the points, lattices and resample count
    # of the descent that certifies every step
    inst = build_instance("product", 10, 16, seed=seed)
    pts, lns = lattice_form(*lift_to_dim(inst.points, inst.lines, dim, seed=seed))
    pts3, lns3, cert = project_to_3space(pts, lns, seed=seed)
    assert cert.ok
    assert (pts3, lns3, cert.resamples_used) == step_by_step(pts, lns, seed=seed)


def test_projection_runs_no_exact_rank(monkeypatch):
    # every step and certificate runs on integer lattices: no echelon, and no
    # coplanar_triple, which stays the reference predicate of the tests
    inst = build_instance("product", 10, 16, seed=5, dim=6)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(zsolve, "echelon", counted("echelon", zsolve.echelon))
    monkeypatch.setattr(linespace, "coplanar_triple", counted("triple", linespace.coplanar_triple))
    _, _, cert = project_to_3space(inst.scaled, inst.lattices, seed=2)
    assert cert.ok
    assert calls == []
