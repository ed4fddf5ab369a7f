"""Tests for affine line geometry and Plucker coordinates.

Fixtures are hand-checked configurations (coordinate axes, parallel and
skew pairs); the random cases cross-check the Klein form against the
affine relation of the same two lines, the integer kernel's answers
(incidence, pair relation, coplanar groups) against exact ranks in R^3
to R^6, and the same answers against the Fraction pivot reduction the
kernel replaced, kept at the end of this file as the oracle.
"""

import random
from collections import defaultdict
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incgeo.errors import ArityError, CollapseError, DegenerateLineError, DomainError
from incgeo.forge import build_instance
from incgeo.linalg import Vec, is_zero_vec, rank, to_vec, vec_sub
from incgeo.linespace import (
    AffLine,
    LineRelation,
    ProjPoint,
    RelationKind,
    coplanar_partners,
    coplanar_triple,
    incidence_point_line,
    incidence_relation,
    klein_form,
    line_on_surface,
    line_relation,
    plucker_from_points,
)
from incgeo.projection import project_once, project_to_3space
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


@pytest.mark.parametrize(
    "bad", [0.1, 2.0, float("nan"), float("inf"), "1/0", "1/2", True, False, None],
    ids=["float", "integral_float", "nan", "inf", "str_zero_den", "str", "true", "false", "none"],
)
def test_inexact_coordinates_are_a_domain_error(bad):
    # a float would be read as the binary fraction it stores (0.1 as n/2**55)
    with pytest.raises(DomainError, match="not an int or a Fraction"):
        to_vec([1, bad, Fraction(1, 3)])
    with pytest.raises(DomainError):
        AffLine((bad, 0, 0), (1, 2, 3))
    with pytest.raises(DomainError):
        AffLine((0, 0, 0), (1, bad, 3))
    with pytest.raises(DomainError):
        incidence_point_line((bad, 0, 0), AffLine((0, 0, 0), (1, 2, 3)))


def test_exact_coordinates_pass_the_gate():
    assert to_vec([3, Fraction(-1, 2), 0]) == (Fraction(3), Fraction(-1, 2), Fraction(0))
    assert all(type(c) is Fraction for c in to_vec([3, Fraction(-1, 2)]))


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
    ln = plucker_from_points(ProjPoint((1, 0, 0, 1)), ProjPoint((1, 0, 0, -1)))
    assert ln[:3] == (0, 0, 1)
    assert ln[3:] == (0, 0, 0)


def test_plucker_blocks_are_direction_and_moment():
    rng = random.Random(5)
    for _ in range(30):
        a = affmk(*(rng.randint(-5, 5) for _ in range(3)))
        b = affmk(*(rng.randint(-5, 5) for _ in range(3)))
        if a == b:
            continue
        ln = plucker_from_points(ProjPoint((1, *a)), ProjPoint((1, *b)))
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
    l1 = plucker_from_points(ProjPoint((1, *a)), ProjPoint((1, *b)))
    l2 = plucker_from_points(ProjPoint((1, *a)), ProjPoint((1, *c)))
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
def line_families(draw, denominators=(1,), dims=(3, 6)):
    """Two to six lines in R^3..R^6 (or the given range).  Later lines are
    planted parallel to, equal to, meeting, in a shared 2-flat with, or
    sharing the pivot and lead entry of an earlier one, so every relation
    and every kind of coplanar group occurs.  Coordinates are n/d with d
    drawn from denominators; directions are drawn with either sign."""
    dim = draw(st.integers(*dims))
    coord = st.builds(Fraction, st.integers(-3, 3), st.sampled_from(denominators))
    vec = st.tuples(*([coord] * dim))
    direction = vec.filter(any)
    sign = st.sampled_from([1, -1, 2, -3])
    tilt = draw(direction)  # shared by the lines planted in a flat
    lines = [AffLine(draw(vec), draw(direction))]
    for _ in range(draw(st.integers(1, 5))):
        other = draw(st.sampled_from(lines))
        how = draw(st.sampled_from(["free", "parallel", "equal", "meeting", "flat", "tied"]))
        if how == "free":
            ln = AffLine(draw(vec), draw(direction))
        elif how == "parallel":
            ln = AffLine(draw(vec), [draw(sign) * c for c in other.direction])
        elif how == "equal":
            ln = AffLine(other.point_at(draw(coord)), [-2 * c for c in other.direction])
        elif how == "meeting":
            ln = AffLine(other.point_at(draw(coord)), draw(direction))
        elif how == "flat":
            i, j, k, m = (draw(coord) for _ in range(4))
            base = tuple(b + j * t for b, t in zip(other.point_at(i), tilt))
            turn = tuple(k * d + m * t for d, t in zip(other.direction, tilt))
            ln = AffLine(base, turn) if any(turn) else AffLine(base, tilt)
        else:
            k = other.direction.index(1)
            tail = draw(vec)[k + 1:]
            ln = AffLine(draw(vec), [draw(sign) * c for c in other.direction[: k + 1] + tail])
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
        ProjPoint((1, *ln.base)), ProjPoint((1, *ln.point_at(1)))
    )


# -- the integer kernel against the Fraction pivot reduction ----------------
#
# _reduce, _on_line and _relate are the Fraction routines the integer kernel
# replaced, kept verbatim; the oracle_* functions are the relation builders
# that ran on them.


def _reduce(w: Sequence, ln: AffLine, pivot: int) -> Vec:
    """w - w[pivot]*ln.direction, zero at ln's pivot.  The map is linear
    with kernel span(ln.direction), so every point of ln reduces to ln.base."""
    t = w[pivot]
    return tuple(c - t * d for c, d in zip(w, ln.direction))


def _on_line(w: Sequence, ln: AffLine, pivot: int) -> bool:
    """_reduce(w, ln, pivot) == ln.base, stopping at the first mismatch."""
    t = w[pivot]
    for c, d, b in zip(w, ln.direction, ln.base):
        if c - t * d != b:
            return False
    return True


def _relate(a: AffLine, pivot: int, b: AffLine) -> tuple[RelationKind, Vec | None, Fraction | None]:
    """How b sits against a, from b's direction and b.base - a.base reduced
    against a (pivot is a's).

    Returns the kind; for coplanar distinct lines, the key of the 2-flat
    they span among the flats through a (the reduced direction, or for
    parallel lines the reduced offset, scaled to first nonzero entry 1);
    and for intersecting lines, the s with b.point_at(s) on a.
    """
    if a.dim != b.dim:
        raise ArityError("lines live in different dimensions")
    offset = _reduce(vec_sub(b.base, a.base), a, pivot)
    if a.direction == b.direction:  # directions are canonical
        if is_zero_vec(offset):
            return RelationKind.EQUAL, None, None
        lead = next(c for c in offset if c)
        return RelationKind.PARALLEL, tuple(c / lead for c in offset), None
    turn = _reduce(b.direction, a, pivot)  # nonzero: the directions differ
    lead = next(c for c in turn if c)
    key = tuple(c / lead for c in turn)
    # b meets a iff offset + s*turn = 0 for some s
    ratio = offset[key.index(1)]
    if offset != tuple(ratio * c for c in key):
        return RelationKind.SKEW, None, None
    return RelationKind.INTERSECTING, key, -ratio / lead


def oracle_incidence_relation(points, lines):
    pivoted = [(j, ln, ln.direction.index(1)) for j, ln in enumerate(lines)]
    return tuple(
        tuple(j for j, ln, k in pivoted if _on_line(p, ln, k)) for p in points
    )


def oracle_line_relation(l1, l2):
    kind, _, s = _relate(l1, l1.direction.index(1), l2)
    return LineRelation(kind, None if s is None else l2.point_at(s))


def oracle_coplanar_partners(lines):
    for i, a in enumerate(lines):
        pivot = a.direction.index(1)
        groups = defaultdict(list)
        equal = []
        for j in range(i + 1, len(lines)):
            kind, key, _ = _relate(a, pivot, lines[j])
            if key is not None:
                groups[key].append(j)
            elif kind is RelationKind.EQUAL:
                equal.append(j)
        yield list(groups.values()), equal


def near_points(lines, rng):
    """Points on each line at rational parameters, the same points nudged
    off the line in one coordinate, and their midpoints across lines."""
    on = [ln.point_at(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for ln in lines]
    nudged = []
    for p in on:
        i = rng.randrange(len(p))
        nudged.append(p[:i] + (p[i] + Fraction(1, rng.choice([1, 3, 2**65 + 1])),) + p[i + 1:])
    mixed = [tuple((x + y) / 2 for x, y in zip(p, q)) for p, q in zip(on, on[1:])]
    return list(dict.fromkeys(on + nudged + mixed))


def assert_kernel_matches_oracle(points, lines):
    assert incidence_relation(points, lines) == oracle_incidence_relation(points, lines)
    for p in points[:4]:
        for ln in lines:
            assert incidence_point_line(p, ln) == _on_line(p, ln, ln.direction.index(1))
    for a in lines:
        for b in lines:
            assert line_relation(a, b) == oracle_line_relation(a, b)
    assert list(coplanar_partners(lines)) == list(oracle_coplanar_partners(lines))


WIDE_DENOMINATORS = (1, 1, 2, 3, 7, 12, 2**64 + 13, 3**41)


@settings(max_examples=150, deadline=None)
@given(line_families(WIDE_DENOMINATORS), st.integers(0, 2**32))
def test_kernel_matches_fraction_oracle(lines, seed):
    assert_kernel_matches_oracle(near_points(lines, random.Random(seed)), lines)


@settings(max_examples=60, deadline=None)
@given(line_families((1, 2, 5), dims=(4, 6)), st.integers(0, 2**32))
def test_kernel_matches_fraction_oracle_after_projection(lines, seed):
    # one project_once step per dimension, along directions with nonzero
    # 40-bit numerators and denominators, so the projected lines' entries
    # have denominators far above 2**64
    rng = random.Random(seed)
    points = near_points(lines, rng)
    while lines[0].dim > 3:
        w = [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**40), rng.randint(2**39, 2**40))
            for _ in range(lines[0].dim)
        ]
        try:
            points, lines = project_once(points, lines, w)
        except CollapseError:
            return
    assert_kernel_matches_oracle(list(dict.fromkeys(points)), lines)


def test_kernel_matches_fraction_oracle_on_a_projected_instance():
    inst = build_instance("product", 10, 16, seed=5, dim=6)
    points, lines, _ = project_to_3space(inst.points, inst.lines, seed=2)
    assert max(c.denominator for ln in lines for c in ln.base) > 2**64
    assert_kernel_matches_oracle(points + near_points(lines, random.Random(3)), lines)
