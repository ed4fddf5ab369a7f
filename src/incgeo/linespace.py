"""Affine lines in R^d and their exact relations, plus Plucker coordinates.

An AffLine is stored canonically (direction scaled to first nonzero entry
1, base slid to 0 at that pivot), so equality and hashing are exact.  The
module decides point-line incidence, the relation of two lines (equal,
parallel, intersecting, skew), coplanarity of three lines and containment
of a line in a surface (the one question that loads poly).  An instance's
two pairwise relations are built here, one pass each: incidence_relation
(point-line) and coplanar_partners (line-line).

Every point-line and line-line question runs on integers.  A line caches
its pivot k, integer direction D (D[k] > 0) and integer base B with scale
s, so direction = D/D[k] and base = B/s.  A point P/q lies on it iff
s*(P_i*D_k - P_k*D_i) = q*D_k*B_i for every i.  Line b meets line a iff
b's direction and base offset, reduced against a's pivot, are
proportional; the reduced vector, primitive with positive lead entry,
keys the 2-flat they span.  coplanar_triple, by exact rank, stays the
reference predicate for three lines.

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
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from . import linalg
from .errors import ArityError, DegenerateLineError, DomainError
from .linalg import Vec, to_vec, vec_sub

if TYPE_CHECKING:
    from .poly import Poly


def _canonical_ray(coords: Vec) -> Vec:
    pivot = next((c for c in coords if c != 0), None)
    if pivot is None:
        raise DomainError("all-zero homogeneous coordinates")
    return tuple(c / pivot for c in coords)


class ProjPoint:
    """Immutable point of P^d, stored in canonical scale (first nonzero
    entry 1), so equal points have equal coords."""

    __slots__ = ("coords",)

    coords: Vec

    def __init__(self, coords: Sequence):
        vec = to_vec(coords)
        if len(vec) < 2:
            raise ArityError("projective point needs at least two coordinates")
        object.__setattr__(self, "coords", _canonical_ray(vec))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ProjPoint is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("ProjPoint is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __repr__(self) -> str:
        return f"ProjPoint(coords={self.coords!r})"

    @property
    def dim(self) -> int:
        return len(self.coords) - 1


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


# (pivot, integer direction, integer base, base scale) of an AffLine
Lattice = tuple[int, tuple[int, ...], tuple[int, ...], int]


class RelationKind(Enum):
    EQUAL = "equal"
    PARALLEL = "parallel"
    INTERSECTING = "intersecting"
    SKEW = "skew"


class LineRelation(NamedTuple):
    kind: RelationKind
    point: Vec | None = None


class AffLine:
    """Immutable affine line base + t*direction in R^d, stored canonically.

    The direction is scaled so its first nonzero entry is 1; the base is
    slid along the line so its entry at that pivot is 0.  Equal lines then
    have equal fields, so equality and hash, which compare (base,
    direction), are exact.  The instance keeps a __dict__ for the cached
    lattice.
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

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AffLine is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("AffLine is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.base == other.base and self.direction == other.direction

    def __hash__(self) -> int:
        return hash((self.base, self.direction))

    def __repr__(self) -> str:
        return f"AffLine(base={self.base!r}, direction={self.direction!r})"

    @property
    def dim(self) -> int:
        return len(self.base)

    @cached_property
    def lattice(self) -> Lattice:
        """(k, D, B, s): the pivot k, the primitive integer direction D with
        D[k] > 0 and the integer base B with scale s > 0, so that
        direction = D/D[k] and base = B/s."""
        dv, _ = _scaled(self.direction)
        bv, s = _scaled(self.base)
        return self.direction.index(1), dv, bv, s

    def point_at(self, t) -> Vec:
        tf = t if isinstance(t, Fraction) else Fraction(t)
        return tuple(b + tf * d for b, d in zip(self.base, self.direction))


def _scaled(v: Vec) -> tuple[tuple[int, ...], int]:
    """(V, q) with v = V/q: q is the lcm of v's denominators, V integer."""
    q = lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (q // c.denominator) for c in v), q


def _on_lattice(point: tuple[tuple[int, ...], int], lattice: Lattice) -> bool:
    """Whether the scaled point (P, q) lies on the line with this lattice
    data, stopping at the first mismatch."""
    pv, q = point
    k, dv, bv, s = lattice
    pk, dk = pv[k], dv[k]
    qdk = q * dk
    for p, d, b in zip(pv, dv, bv):
        if s * (p * dk - pk * d) != qdk * b:
            return False
    return True


def incidence_point_line(point: Sequence, ln: AffLine) -> bool:
    """Exact membership of an affine point on an affine line."""
    pv = to_vec(point)
    if len(pv) != ln.dim:
        raise ArityError("point and line dimensions differ")
    return _on_lattice(_scaled(pv), ln.lattice)


def incidence_relation(points: Sequence[Vec], lines: Sequence[AffLine]) -> tuple[tuple[int, ...], ...]:
    """For each point, the ascending indices of the lines through it; each
    point is scaled to integers once and each point-line pair tested once."""
    if len({len(p) for p in points} | {ln.dim for ln in lines}) > 1:
        raise ArityError("point and line dimensions differ")
    lattices = [ln.lattice for ln in lines]
    return tuple(
        tuple(j for j, lat in enumerate(lattices) if _on_lattice(pt, lat))
        for pt in map(_scaled, points)
    )


def _flat_key(v: list[int]) -> tuple[int, ...]:
    """The primitive integer vector on v's ray with a positive lead entry."""
    g = gcd(*v)
    if next(c for c in v if c) < 0:
        g = -g
    return tuple(c // g for c in v)


def _pair(
    a: AffLine, b: AffLine
) -> tuple[RelationKind, tuple[int, ...] | None, tuple[int, int] | None]:
    """How b sits against a, from b's direction and b.base - a.base reduced
    against a, all in integers.

    Returns the kind; for coplanar distinct lines, the key of the 2-flat
    they span among the flats through a (the reduced direction, or for
    parallel lines the reduced offset, as a primitive integer vector with
    positive lead entry); and for intersecting lines, the integer numerator
    and nonzero denominator of the s with b.point_at(s) on a, left for
    line_relation to reduce, as coplanar_partners never reads it.
    """
    k, da, ba, sa = a.lattice
    kb, db, bb, sb = b.lattice
    if len(da) != len(db):
        raise ArityError("lines live in different dimensions")
    dk = da[k]
    # sa*sb*dk times the reduced offset; zero at k, where a's base is 0
    wk = bb[k] * sa
    offset = [(y * sa - x * sb) * dk - wk * d for x, y, d in zip(ba, bb, da)]
    if da == db:  # primitive with positive pivot entry, so equal iff parallel
        if not any(offset):
            return RelationKind.EQUAL, None, None
        return RelationKind.PARALLEL, _flat_key(offset), None
    # db[kb]*dk times the reduced direction; nonzero, as the directions differ
    tk = db[k]
    turn = [c * dk - tk * d for c, d in zip(db, da)]
    j = next(i for i, c in enumerate(turn) if c)
    tj, oj = turn[j], offset[j]
    # b meets a iff offset + s*turn = 0 for some s
    for t, o in zip(turn, offset):
        if o * tj != oj * t:
            return RelationKind.SKEW, None, None
    return RelationKind.INTERSECTING, _flat_key(turn), (-oj * db[kb], sa * sb * tj)


def line_relation(l1: AffLine, l2: AffLine) -> LineRelation:
    """Classify an ordered pair of affine lines in R^d.

    Parallel means equal directions but distinct lines; intersecting
    returns the unique common point.  Works in any ambient dimension.
    """
    kind, _, s = _pair(l1, l2)
    return LineRelation(kind, None if s is None else l2.point_at(Fraction(*s)))


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
        groups: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
        equal: list[int] = []
        for j in range(i + 1, len(lines)):
            kind, key, _ = _pair(a, lines[j])
            if key is not None:
                groups[key].append(j)
            elif kind is RelationKind.EQUAL:
                equal.append(j)
        yield list(groups.values()), equal


def line_on_surface(f: Poly, ln: AffLine) -> bool:
    """True iff the whole line lies in the zero set of f."""
    from .poly import restrict_to_line

    if f.nvars != ln.dim:
        raise ArityError("polynomial arity and line dimension differ")
    return restrict_to_line(f, ln.base, ln.direction).is_zero
