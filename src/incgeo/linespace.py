"""Exact projective points, Plucker line coordinates, and affine lines.

Conventions, fixed once for the whole package:

- Homogeneous coordinates in P^3 are (x0, x1, x2, x3) with x0 the
  homogenizing coordinate; the affine point a = (a1, a2, a3) embeds as
  (1, a1, a2, a3).
- The six Plucker coordinates of the line through points x and y are
  pi_ij = x_i y_j - x_j y_i, reported in the order
  (pi01, pi02, pi03, pi23, pi31, pi12).
- dvec = (pi01, pi02, pi03) is the direction block and
  mvec = (pi23, pi31, pi12) the moment block; for a line through affine
  points a, b this gives dvec = b - a and mvec = a x b.

All coordinate vectors canonicalize by scaling so the first nonzero entry
is 1, which makes equality and hashing exact.

An instance's two pairwise relations are built here, one pass each:
incidence_relation (point-line) and coplanar_partners (line-line).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from . import linalg
from .errors import (
    ArityError,
    ContainedError,
    DegenerateLineError,
    DomainError,
)
from .linalg import Vec, cross, dot, is_zero_vec, to_vec, vec_scale, vec_sub
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


@dataclass(frozen=True)
class FlatH:
    """Hyperplane of P^d given by coefficients (A0, ..., Ad), canonical scale."""

    coeffs: Vec

    def __init__(self, coeffs: Sequence):
        vec = to_vec(coeffs)
        if len(vec) < 2:
            raise ArityError("hyperplane needs at least two coefficients")
        object.__setattr__(self, "coeffs", _canonical_ray(vec))

    @property
    def dim(self) -> int:
        return len(self.coeffs) - 1

    def contains(self, p: ProjPoint) -> bool:
        if len(self.coeffs) != len(p.coords):
            raise ArityError("hyperplane and point dimensions differ")
        return dot(self.coeffs, p.coords) == 0


@dataclass(frozen=True)
class PluckerLine:
    """Line of P^3 through two distinct projective points.

    The six coordinates satisfy the Klein identity
    pi01*pi23 + pi02*pi31 + pi03*pi12 = 0 by construction; the constructor
    asserts it.  pl is stored in canonical scale so equal lines compare equal
    regardless of the spanning points used.
    """

    pl: Vec
    p: ProjPoint = field(compare=False)
    q: ProjPoint = field(compare=False)

    def __init__(self, p: ProjPoint, q: ProjPoint):
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
        klein = pi[0] * pi[3] + pi[1] * pi[4] + pi[2] * pi[5]
        if klein != 0:
            raise DomainError("Klein identity violated; nonsense input")
        object.__setattr__(self, "pl", _canonical_ray(pi))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def dvec(self) -> Vec:
        return self.pl[:3]

    @property
    def mvec(self) -> Vec:
        return self.pl[3:]

    def contains(self, point: ProjPoint) -> bool:
        if point.dim != 3:
            raise ArityError("expected a P^3 point")
        rows = [list(self.p.coords), list(self.q.coords), list(point.coords)]
        return linalg.rank(rows) == 2


def plucker_from_points(p: ProjPoint, q: ProjPoint) -> PluckerLine:
    """Plucker coordinates of the line spanned by two distinct points."""
    return PluckerLine(p, q)


def klein_form(l1: PluckerLine, l2: PluckerLine) -> Fraction:
    """Symmetric bilinear Klein form; zero iff the lines are coplanar.

    A line paired with itself gives zero identically.
    """
    a, b = l1.pl, l2.pl
    return (
        a[0] * b[3] + a[1] * b[4] + a[2] * b[5]
        + a[3] * b[0] + a[4] * b[1] + a[5] * b[2]
    )


def plane_line_intersection(h: FlatH, ln: PluckerLine) -> ProjPoint:
    """The unique intersection point of a plane and a line not inside it.

    With plane coefficients (A0, A) and line blocks (d, m) the point is
    (A . d, A x m - A0 * d); it degenerates to the zero vector exactly when
    the line lies in the plane, which raises ContainedError.
    """
    if h.dim != 3:
        raise ArityError("expected a plane of P^3")
    a0 = h.coeffs[0]
    a = h.coeffs[1:]
    d, m = ln.dvec, ln.mvec
    first = dot(a, d)
    rest = vec_sub(cross(a, m), vec_scale(d, a0))
    coords = (first,) + rest
    if all(c == 0 for c in coords):
        raise ContainedError("line lies in the plane")
    point = ProjPoint(coords)
    # both defining properties are cheap to assert exactly
    if not h.contains(point) or not ln.contains(point):
        raise DomainError("intersection formula broke its contract")
    return point


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

    @staticmethod
    def through(p: Sequence, q: Sequence) -> AffLine:
        pv, qv = to_vec(p), to_vec(q)
        if pv == qv:
            raise DegenerateLineError("coincident points span no line")
        return AffLine(pv, vec_sub(qv, pv))

    @property
    def dim(self) -> int:
        return len(self.base)

    def point_at(self, t) -> Vec:
        tf = t if isinstance(t, Fraction) else Fraction(t)
        return tuple(b + tf * d for b, d in zip(self.base, self.direction))

    def param_of(self, point: Sequence) -> Fraction:
        """Parameter t with point = base + t*direction; DomainError if off-line."""
        pv = to_vec(point)
        if not incidence_point_line(pv, self):
            raise DomainError("point not on line")
        pivot = next(i for i, c in enumerate(self.direction) if c != 0)
        return (pv[pivot] - self.base[pivot]) / self.direction[pivot]

    def to_plucker(self) -> PluckerLine:
        if self.dim != 3:
            raise ArityError("Plucker coordinates are defined in 3-space")
        return PluckerLine(
            ProjPoint.from_affine(self.base),
            ProjPoint.from_affine(self.point_at(1)),
        )


def incidence_point_line(point: Sequence, ln: AffLine) -> bool:
    """Exact membership of an affine point on an affine line."""
    pv = to_vec(point)
    if len(pv) != ln.dim:
        raise ArityError("point and line dimensions differ")
    delta = vec_sub(pv, ln.base)
    pivot = next(i for i, c in enumerate(ln.direction) if c != 0)
    t = delta[pivot] / ln.direction[pivot]
    return all(dv == t * dd for dv, dd in zip(delta, ln.direction))


def incidence_relation(points: Sequence, lines: Sequence[AffLine]) -> tuple[tuple[int, ...], ...]:
    """For each point, the ascending indices of the lines through it; one
    incidence_point_line check per pair."""
    return tuple(
        tuple(j for j, ln in enumerate(lines) if incidence_point_line(p, ln)) for p in points
    )


def line_relation(l1: AffLine, l2: AffLine) -> LineRelation:
    """Classify an ordered pair of affine lines in R^d.

    Parallel means equal directions but distinct lines; intersecting
    returns the unique common point.  Works in any ambient dimension.
    """
    if l1.dim != l2.dim:
        raise ArityError("lines live in different dimensions")
    if l1 == l2:
        return LineRelation(RelationKind.EQUAL)
    if l1.direction == l2.direction:  # directions are canonical
        return LineRelation(RelationKind.PARALLEL)
    delta = vec_sub(l2.base, l1.base)
    cols = list(zip(l1.direction, tuple(-c for c in l2.direction)))
    sol = linalg.solve_linear(cols, delta)
    if sol is None:
        return LineRelation(RelationKind.SKEW)
    t = sol[0]
    return LineRelation(RelationKind.INTERSECTING, l1.point_at(t))


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


def flat_key(a: AffLine, w: Vec) -> Vec:
    """Key of the 2-flat a.base + span(a.direction, w) among the flats through
    a: w reduced to zero at the pivot of a's direction and scaled to first
    nonzero entry 1, so any nonzero multiple of w gives the same key."""
    pivot = next(i for i, c in enumerate(a.direction) if c)
    reduced = tuple(wc - w[pivot] * dc for wc, dc in zip(w, a.direction))
    lead = next(c for c in reduced if c)
    return tuple(c / lead for c in reduced)


def _partner_span(a: AffLine, b: AffLine) -> Vec | None:
    """w with b inside the 2-flat a.base + span(a.direction, w), None if the
    lines are skew: b's direction if they meet, else b.base - a.base (zero
    if they are equal)."""
    if a.dim != b.dim:
        raise ArityError("lines live in different dimensions")
    delta = vec_sub(b.base, a.base)
    if a.direction == b.direction:  # directions are canonical
        return delta
    if linalg.rank([a.direction, b.direction, delta]) <= 2:
        return b.direction
    return None


def coplanar_partners(lines: Sequence[AffLine]) -> Iterator[tuple[list[list[int]], list[int]]]:
    """For each line a, in order: the indices of its later coplanar
    partners, grouped by the 2-flat they span with a (flat_key), and of its
    later equal lines.  Each unordered pair is tested once."""
    for i, a in enumerate(lines):
        groups: defaultdict[Vec, list[int]] = defaultdict(list)
        equal: list[int] = []
        for j in range(i + 1, len(lines)):
            w = _partner_span(a, lines[j])
            if w is None:
                continue
            if is_zero_vec(w):
                equal.append(j)
            else:
                groups[flat_key(a, w)].append(j)
        yield list(groups.values()), equal


def line_on_surface(f: Poly, ln: AffLine) -> bool:
    """True iff the whole line lies in the zero set of f."""
    if f.nvars != ln.dim:
        raise ArityError("polynomial arity and line dimension differ")
    return restrict_to_line(f, ln.base, ln.direction).is_zero
