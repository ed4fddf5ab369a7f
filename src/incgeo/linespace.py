"""Affine lines in R^d and their exact relations, plus Plucker coordinates.

An AffLine is stored canonically (direction scaled to first nonzero entry
1, base slid to 0 at that pivot), so equality and hashing are exact.  The
module decides point-line incidence, the relation of two lines (equal,
parallel, intersecting, skew), coplanarity of three lines and containment
of a line in a surface.  An instance's two pairwise relations are built
here, one pass each: incidence_relation (point-line) and coplanar_partners
(line-line).

Incidence and pair questions are one step, _reduce: subtract
w[pivot]*direction from w.  A point is on a line iff it reduces to the
base; two lines meet iff the reduced direction and offset are proportional,
and the normalized reduced vector keys their 2-flat.  coplanar_triple, by
exact rank, stays the reference predicate for three lines.

Plucker coordinates of lines in P^3 use these conventions:

- Homogeneous coordinates are (x0, x1, x2, x3) with x0 the homogenizing
  coordinate; the affine point a = (a1, a2, a3) embeds as (1, a1, a2, a3).
- The six coordinates of the line through points x and y are
  pi_ij = x_i y_j - x_j y_i, in the order (pi01, pi02, pi03, pi23, pi31,
  pi12): a direction block and a moment block, which for a line through
  affine points a, b are b - a and a x b.

Projective points and Plucker tuples are scaled so the first nonzero entry
is 1, which makes them exact to compare too.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from . import linalg
from .errors import ArityError, DegenerateLineError, DomainError
from .linalg import Vec, is_zero_vec, to_vec, vec_sub
from .poly import Poly, restrict_to_line


def _canonical_ray(coords: Vec) -> Vec:
    pivot = next((c for c in coords if c != 0), None)
    if pivot is None:
        raise DomainError("all-zero homogeneous coordinates")
    return tuple(c / pivot for c in coords)


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^d, stored in canonical scale (first nonzero entry 1)."""

    coords: Vec

    def __init__(self, coords: Sequence):
        vec = to_vec(coords)
        if len(vec) < 2:
            raise ArityError("projective point needs at least two coordinates")
        object.__setattr__(self, "coords", _canonical_ray(vec))

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    @staticmethod
    def from_affine(point: Sequence) -> ProjPoint:
        return ProjPoint((Fraction(1),) + to_vec(point))


def plucker_from_points(p: ProjPoint, q: ProjPoint) -> Vec:
    """Plucker coordinates of the line of P^3 spanned by two distinct points,
    in canonical scale, so equal lines give equal tuples whatever points
    span them.  The Klein identity pi01*pi23 + pi02*pi31 + pi03*pi12 = 0
    holds by construction; it is asserted exactly."""
    if p.dim != 3 or q.dim != 3:
        raise ArityError("Plucker coordinates are defined for P^3 lines")
    if p == q:
        raise DegenerateLineError("coincident points span no line")
    x, y = p.coords, q.coords
    pi = (
        x[0] * y[1] - x[1] * y[0],
        x[0] * y[2] - x[2] * y[0],
        x[0] * y[3] - x[3] * y[0],
        x[2] * y[3] - x[3] * y[2],
        x[3] * y[1] - x[1] * y[3],
        x[1] * y[2] - x[2] * y[1],
    )
    if pi[0] * pi[3] + pi[1] * pi[4] + pi[2] * pi[5] != 0:
        raise DomainError("Klein identity violated; nonsense input")
    return _canonical_ray(pi)


def klein_form(a: Vec, b: Vec) -> Fraction:
    """Symmetric bilinear Klein form of two Plucker 6-tuples; zero iff the
    lines are coplanar.  A line paired with itself gives zero identically."""
    return (
        a[0] * b[3] + a[1] * b[4] + a[2] * b[5]
        + a[3] * b[0] + a[4] * b[1] + a[5] * b[2]
    )


class RelationKind(Enum):
    EQUAL = "equal"
    PARALLEL = "parallel"
    INTERSECTING = "intersecting"
    SKEW = "skew"


@dataclass(frozen=True)
class LineRelation:
    kind: RelationKind
    point: Vec | None = None


@dataclass(frozen=True)
class AffLine:
    """Affine line base + t*direction in R^d, stored canonically.

    The direction is scaled so its first nonzero entry is 1; the base is
    slid along the line so its entry at that pivot is 0.  Equal lines then
    have equal fields, so the dataclass equality and hash are exact.
    """

    base: Vec
    direction: Vec

    def __init__(self, base: Sequence, direction: Sequence):
        bvec, dvec = to_vec(base), to_vec(direction)
        if len(bvec) != len(dvec):
            raise ArityError("base and direction dimensions differ")
        if not bvec:
            raise ArityError("empty coordinates")
        pivot = next((i for i, c in enumerate(dvec) if c != 0), None)
        if pivot is None:
            raise DegenerateLineError("zero direction vector")
        dcan = tuple(c / dvec[pivot] for c in dvec)
        bcan = tuple(b - bvec[pivot] * d for b, d in zip(bvec, dcan))
        object.__setattr__(self, "base", bcan)
        object.__setattr__(self, "direction", dcan)

    @property
    def dim(self) -> int:
        return len(self.base)

    def point_at(self, t) -> Vec:
        tf = t if isinstance(t, Fraction) else Fraction(t)
        return tuple(b + tf * d for b, d in zip(self.base, self.direction))


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


def incidence_point_line(point: Sequence, ln: AffLine) -> bool:
    """Exact membership of an affine point on an affine line."""
    pv = to_vec(point)
    if len(pv) != ln.dim:
        raise ArityError("point and line dimensions differ")
    return _on_line(pv, ln, ln.direction.index(1))


def incidence_relation(points: Sequence[Vec], lines: Sequence[AffLine]) -> tuple[tuple[int, ...], ...]:
    """For each point, the ascending indices of the lines through it; each
    line's pivot is found once and each point-line pair reduced once."""
    if len({len(p) for p in points} | {ln.dim for ln in lines}) > 1:
        raise ArityError("point and line dimensions differ")
    pivoted = [(j, ln, ln.direction.index(1)) for j, ln in enumerate(lines)]
    return tuple(
        tuple(j for j, ln, k in pivoted if _on_line(p, ln, k)) for p in points
    )


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


def line_relation(l1: AffLine, l2: AffLine) -> LineRelation:
    """Classify an ordered pair of affine lines in R^d.

    Parallel means equal directions but distinct lines; intersecting
    returns the unique common point.  Works in any ambient dimension.
    """
    kind, _, s = _relate(l1, l1.direction.index(1), l2)
    return LineRelation(kind, None if s is None else l2.point_at(s))


def coplanar_triple(l1: AffLine, l2: AffLine, l3: AffLine) -> bool:
    """True iff all three lines lie in one affine 2-flat."""
    if not (l1.dim == l2.dim == l3.dim):
        raise ArityError("lines live in different dimensions")
    rows = [
        l1.direction,
        l2.direction,
        l3.direction,
        vec_sub(l2.base, l1.base),
        vec_sub(l3.base, l1.base),
    ]
    return linalg.rank(rows) <= 2


def coplanar_partners(lines: Sequence[AffLine]) -> Iterator[tuple[list[list[int]], list[int]]]:
    """For each line a, in order: the indices of its later coplanar
    partners, grouped by the 2-flat they span with a, and of its later
    equal lines.  Each unordered pair is tested once."""
    for i, a in enumerate(lines):
        pivot = a.direction.index(1)
        groups: defaultdict[Vec, list[int]] = defaultdict(list)
        equal: list[int] = []
        for j in range(i + 1, len(lines)):
            kind, key, _ = _relate(a, pivot, lines[j])
            if key is not None:
                groups[key].append(j)
            elif kind is RelationKind.EQUAL:
                equal.append(j)
        yield list(groups.values()), equal


def line_on_surface(f: Poly, ln: AffLine) -> bool:
    """True iff the whole line lies in the zero set of f."""
    if f.nvars != ln.dim:
        raise ArityError("polynomial arity and line dimension differ")
    return restrict_to_line(f, ln.base, ln.direction).is_zero
