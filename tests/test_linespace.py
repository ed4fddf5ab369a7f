"""Tests for affine line geometry and Plucker coordinates.

Fixtures are hand-checked configurations (coordinate axes, parallel and
skew pairs); the random cases cross-check the Klein form against the
affine relation of the same two lines, and the pivot-reduction answers
(incidence, pair relation, coplanar groups) against exact ranks in R^3
to R^6.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incgeo.errors import ArityError, DegenerateLineError, DomainError
from incgeo.linalg import rank, vec_sub
from incgeo.linespace import (
    AffLine,
    ProjPoint,
    RelationKind,
    coplanar_partners,
    coplanar_triple,
    incidence_point_line,
    klein_form,
    line_on_surface,
    line_relation,
    plucker_from_points,
)
from incgeo.poly import variables

X, Y, Z = variables(3)


def affmk(*coords):
    return [Fraction(c) for c in coords]


# -- canonical forms -------------------------------------------------------


def test_projpoint_canonicalization():
    assert ProjPoint([2, 4, 6, 8]) == ProjPoint([1, 2, 3, 4])
    assert ProjPoint([0, -3, 6, 0]).coords == (0, 1, -2, 0)
    with pytest.raises(DomainError):
        ProjPoint([0, 0, 0, 0])


def test_affline_canonical_equality():
    a = AffLine([0, 0, 0], [2, 0, 0])
    b = AffLine([5, 0, 0], [1, 0, 0])
    assert a == b
    assert hash(a) == hash(b)
    c = AffLine([0, 1, 0], [1, 0, 0])
    assert a != c
    with pytest.raises(DegenerateLineError):
        AffLine([0, 0, 0], [0, 0, 0])


def test_affline_through_two_points():
    ln = AffLine([1, 1, 1], [1, 2, 4])  # through (1, 1, 1) and (2, 3, 5)
    assert incidence_point_line(affmk(1, 1, 1), ln)
    assert incidence_point_line(affmk(2, 3, 5), ln)
    assert not incidence_point_line(affmk(0, 0, 1), ln)
    with pytest.raises(DegenerateLineError):
        AffLine([1, 2, 3], [0, 0, 0])  # two coincident points


# -- plucker coordinates ---------------------------------------------------


def test_plucker_from_affine_points():
    # z-axis through (0,0,1) and (0,0,-1): direction block e3, zero moment
    ln = plucker_from_points(
        ProjPoint.from_affine([0, 0, 1]), ProjPoint.from_affine([0, 0, -1])
    )
    assert ln[:3] == (0, 0, 1)
    assert ln[3:] == (0, 0, 0)


def test_plucker_blocks_are_direction_and_moment():
    rng = random.Random(5)
    for _ in range(30):
        a = affmk(*(rng.randint(-5, 5) for _ in range(3)))
        b = affmk(*(rng.randint(-5, 5) for _ in range(3)))
        if a == b:
            continue
        ln = plucker_from_points(ProjPoint.from_affine(a), ProjPoint.from_affine(b))
        diff = tuple(bb - aa for aa, bb in zip(a, b))
        moment = (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
        # canonical scaling is shared by both blocks
        scale = None
        for got, want in zip(ln, diff + moment):
            if want != 0:
                scale = got / want
                break
        assert scale is not None
        assert ln[:3] == tuple(scale * w for w in diff)
        assert ln[3:] == tuple(scale * w for w in moment)


def test_plucker_rejects_coincident_points():
    p = ProjPoint([1, 2, 3, 4])
    with pytest.raises(DegenerateLineError):
        plucker_from_points(p, ProjPoint([2, 4, 6, 8]))


def test_klein_form_zero_iff_coplanar():
    zaxis = plucker(AffLine([0, 0, 0], [0, 0, 1]))
    xaxis = plucker(AffLine([0, 0, 0], [1, 0, 0]))
    parallel = plucker(AffLine([1, 0, 0], [0, 0, 1]))
    skew = plucker(AffLine([0, 1, 0], [1, 0, 1]))
    assert klein_form(zaxis, xaxis) == 0  # meet at the origin
    assert klein_form(zaxis, parallel) == 0  # meet at infinity
    assert klein_form(zaxis, skew) != 0
    assert klein_form(skew, skew) == 0


def test_klein_form_random_pairs_match_relation():
    rng = random.Random(23)
    for _ in range(200):
        l1 = _random_affline(rng)
        l2 = _random_affline(rng)
        rel = line_relation(l1, l2)
        k = klein_form(plucker(l1), plucker(l2))
        if rel.kind == RelationKind.SKEW:
            assert k != 0
        else:
            assert k == 0


# -- affine relations --------------------------------------------------------


def test_line_relation_examples():
    xaxis = AffLine([0, 0, 0], [1, 0, 0])
    yaxis = AffLine([0, 0, 0], [0, 1, 0])
    rel = line_relation(xaxis, yaxis)
    assert rel.kind is RelationKind.INTERSECTING
    assert rel.point == (0, 0, 0)
    assert line_relation(xaxis, AffLine([0, 1, 0], [2, 0, 0])).kind is RelationKind.PARALLEL
    assert line_relation(xaxis, AffLine([0, 1, 1], [0, 0, 1])).kind is RelationKind.SKEW
    assert line_relation(xaxis, AffLine([7, 0, 0], [1, 0, 0])).kind is RelationKind.EQUAL


def test_line_relation_in_higher_dimension():
    a = AffLine([0, 0, 0, 0], [1, 0, 0, 0])
    b = AffLine([0, 1, 0, 0], [0, 0, 1, 0])
    assert line_relation(a, b).kind is RelationKind.SKEW
    c = AffLine([1, 0, 0, 0], [0, 1, 0, 0])
    rel = line_relation(a, c)
    assert rel.kind is RelationKind.INTERSECTING
    assert rel.point == (1, 0, 0, 0)
    with pytest.raises(ArityError):
        line_relation(a, AffLine([0, 0, 0], [1, 0, 0]))


def test_intersection_point_is_on_both_lines():
    rng = random.Random(13)
    found = 0
    for _ in range(150):
        l1 = _random_affline(rng)
        l2 = _random_affline(rng)
        rel = line_relation(l1, l2)
        if rel.kind is RelationKind.INTERSECTING:
            found += 1
            assert incidence_point_line(rel.point, l1)
            assert incidence_point_line(rel.point, l2)
    assert found > 0


def test_coplanar_triple_examples():
    xaxis = AffLine([0, 0, 0], [1, 0, 0])
    yaxis = AffLine([0, 0, 0], [0, 1, 0])
    diag = AffLine([0, 0, 0], [1, 1, 0])
    assert coplanar_triple(xaxis, yaxis, diag)
    zaxis = AffLine([0, 0, 0], [0, 0, 1])
    assert not coplanar_triple(xaxis, yaxis, zaxis)
    # three parallel lines not in one plane
    p1 = AffLine([0, 0, 0], [1, 0, 0])
    p2 = AffLine([0, 1, 0], [1, 0, 0])
    p3 = AffLine([0, 0, 1], [1, 0, 0])
    assert not coplanar_triple(p1, p2, p3)
    p3flat = AffLine([0, 2, 0], [1, 0, 0])
    assert coplanar_triple(p1, p2, p3flat)


def test_line_on_surface_examples():
    cone = X**2 + Y**2 - Z**2
    assert line_on_surface(cone, AffLine([0, 0, 0], [3, 4, 5]))
    assert not line_on_surface(cone, AffLine([0, 0, 0], [1, 0, 0]))
    regulus = Z - X * Y
    assert line_on_surface(regulus, AffLine([0, 2, 0], [1, 0, 2]))
    with pytest.raises(ArityError):
        line_on_surface(cone, AffLine([0, 0, 0, 0], [1, 0, 0, 0]))


# -- property tests ----------------------------------------------------------

coords3 = st.tuples(*([st.integers(-6, 6)] * 3))


@settings(max_examples=80, deadline=None)
@given(coords3, coords3, coords3, coords3)
def test_klein_form_vanishes_for_meeting_lines(a, b, c, d):
    # build two lines through one shared point a
    if b == a or c == a:
        return
    l1 = plucker_from_points(ProjPoint.from_affine(a), ProjPoint.from_affine(b))
    l2 = plucker_from_points(ProjPoint.from_affine(a), ProjPoint.from_affine(c))
    assert klein_form(l1, l2) == 0
    del d


@settings(max_examples=80, deadline=None)
@given(coords3, coords3, st.integers(-5, 5), st.integers(1, 4))
def test_point_at_parameter_is_incident(base, direction, num, den):
    if all(c == 0 for c in direction):
        return
    ln = AffLine(affmk(*base), affmk(*direction))
    p = ln.point_at(Fraction(num, den))
    assert incidence_point_line(p, ln)


# -- pivot reduction against the rank oracle --------------------------------


@st.composite
def line_families(draw):
    """Two to six lines in R^3..R^6.  Later lines are planted parallel to,
    equal to, meeting, or in a shared 2-flat with an earlier one, so every
    relation and every kind of coplanar group occurs."""
    dim = draw(st.integers(3, 6))
    coord = st.integers(-3, 3)
    vec = st.tuples(*([coord] * dim)).map(lambda v: affmk(*v))
    direction = vec.filter(any)
    tilt = draw(direction)  # shared by the lines planted in a flat
    lines = [AffLine(draw(vec), draw(direction))]
    for _ in range(draw(st.integers(1, 5))):
        other = draw(st.sampled_from(lines))
        how = draw(st.sampled_from(["free", "parallel", "equal", "meeting", "flat"]))
        if how == "free":
            ln = AffLine(draw(vec), draw(direction))
        elif how == "parallel":
            ln = AffLine(draw(vec), other.direction)
        elif how == "equal":
            ln = AffLine(other.point_at(draw(coord)), [-2 * c for c in other.direction])
        elif how == "meeting":
            ln = AffLine(other.point_at(draw(coord)), draw(direction))
        else:
            i, j, k, m = (draw(coord) for _ in range(4))
            base = tuple(b + j * t for b, t in zip(other.point_at(i), tilt))
            turn = tuple(k * d + m * t for d, t in zip(other.direction, tilt))
            ln = AffLine(base, turn) if any(turn) else AffLine(base, tilt)
        lines.append(ln)
    return lines


def on_line_by_rank(p, ln):
    return rank([vec_sub(p, ln.base), ln.direction]) <= 1


@settings(max_examples=150, deadline=None)
@given(line_families(), st.integers(-4, 4), st.booleans(), st.data())
def test_incidence_agrees_with_rank(lines, t, planted, data):
    ln = lines[-1]
    if planted:
        p = ln.point_at(t)
    else:
        p = affmk(*data.draw(st.tuples(*([st.integers(-3, 3)] * ln.dim))))
    assert incidence_point_line(p, ln) == on_line_by_rank(p, ln)


@settings(max_examples=150, deadline=None)
@given(line_families())
def test_line_relation_agrees_with_rank(lines):
    expected = {
        (1, 1): RelationKind.EQUAL,
        (1, 2): RelationKind.PARALLEL,
        (2, 2): RelationKind.INTERSECTING,
        (2, 3): RelationKind.SKEW,
    }
    for a in lines:
        for b in lines:
            rel = line_relation(a, b)
            ranks = (
                rank([a.direction, b.direction]),
                rank([a.direction, b.direction, vec_sub(b.base, a.base)]),
            )
            assert rel.kind is expected[ranks]
            if rel.kind is RelationKind.INTERSECTING:
                assert on_line_by_rank(rel.point, a) and on_line_by_rank(rel.point, b)
            else:
                assert rel.point is None


@settings(max_examples=150, deadline=None)
@given(line_families())
def test_coplanar_groups_agree_with_rank(lines):
    for i, (groups, equal) in enumerate(coplanar_partners(lines)):
        a = lines[i]
        group_of = {j: g for g, group in enumerate(groups) for j in group}
        assert equal == [j for j in range(i + 1, len(lines)) if lines[j] == a]
        for j in range(i + 1, len(lines)):
            b = lines[j]
            assert (j in group_of) == (b != a and coplanar_triple(a, b, b))
            for k in range(j + 1, len(lines)):
                if j in group_of and k in group_of:
                    same = group_of[j] == group_of[k]
                    assert same == coplanar_triple(a, b, lines[k])


# -- helpers -----------------------------------------------------------------


def _random_affline(rng, dim=3):
    while True:
        base = affmk(*(rng.randint(-4, 4) for _ in range(dim)))
        direction = affmk(*(rng.randint(-3, 3) for _ in range(dim)))
        if any(c != 0 for c in direction):
            return AffLine(base, direction)


def plucker(ln):
    """Plucker coordinates of an affine line of R^3, through two of its points."""
    return plucker_from_points(
        ProjPoint.from_affine(ln.base), ProjPoint.from_affine(ln.point_at(1))
    )
