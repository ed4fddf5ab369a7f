"""Affine lines in R^d and their exact relations, plus Plucker coordinates.

The home of the Fraction views, which the package builds only for a
library caller (surfaces and exceptional read lattices and scaled points):
a point is a Vec of Fractions (to_vec), and an AffLine is stored canonically (direction scaled to first nonzero
entry 1, base slid to 0 at that pivot), so equality and hashing are exact.
The module decides point-line incidence, the relation of two lines
(equal, parallel, intersecting, skew), coplanarity of three lines and
containment of a line in a surface, all on integer kernels over each
AffLine's cached lattice: lattice's, and for coplanar_triple, the
reference predicate for three lines, the rank of zpoly's echelon.

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

from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import ArityError, DegenerateLineError, DomainError
from .lattice import Lattice, RelationKind, lattice_incidences, lattice_on_surface, lattice_relation, scaled_form
from .zpoly import echelon

if TYPE_CHECKING:
    from .poly import Poly

Vec = tuple[Fraction, ...]


def _exact(v: object) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise DomainError(f"coordinate {v!r} is not an int or a Fraction")


def to_vec(values: Sequence) -> Vec:
    """The entries as Fractions; anything but an int (bool excluded) or a
    Fraction is a DomainError."""
    return tuple(map(_exact, values))


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
        """(k, D, B, s) with direction = D/D[k] and base = B/s."""
        dv, _ = scaled_form(self.direction)
        bv, s = scaled_form(self.base)
        return self.direction.index(1), dv, bv, s

    @classmethod
    def from_lattice(cls, lattice: Lattice) -> AffLine:
        """The line with this lattice, which it keeps as its cached one."""
        k, dv, bv, s = lattice
        ln = cls([Fraction(c, s) for c in bv], [Fraction(c, dv[k]) for c in dv])
        ln.__dict__["lattice"] = lattice
        return ln

    def point_at(self, t) -> Vec:
        tf = t if isinstance(t, Fraction) else Fraction(t)
        return tuple(b + tf * d for b, d in zip(self.base, self.direction))


def incidence_point_line(point: Sequence, ln: AffLine) -> bool:
    """Exact membership of an affine point on an affine line."""
    pv = to_vec(point)
    if len(pv) != ln.dim:
        raise ArityError("point and line dimensions differ")
    return bool(lattice_incidences([scaled_form(pv)], [ln.lattice])[0])


def line_relation(l1: AffLine, l2: AffLine) -> LineRelation:
    """Classify an ordered pair of affine lines in R^d.

    Parallel means equal directions but distinct lines; intersecting
    returns the unique common point.  Works in any ambient dimension.
    """
    kind, _, s = lattice_relation(l1.lattice, l2.lattice)
    return LineRelation(kind, None if s is None else l2.point_at(Fraction(*s)))


def coplanar_triple(l1: AffLine, l2: AffLine, l3: AffLine) -> bool:
    """True iff all three lines lie in one affine 2-flat: the three
    directions and the two base offsets span at most a plane.  On lattices
    (k, D, B, s) the offset B_b/s_b - B_a/s_a is scaled to s_a*B_b - s_b*B_a."""
    if not (l1.dim == l2.dim == l3.dim):
        raise ArityError("lines live in different dimensions")
    (_, d1, b1, s1), (_, d2, b2, s2), (_, d3, b3, s3) = l1.lattice, l2.lattice, l3.lattice
    offsets = [[s1 * y - s * x for x, y in zip(b1, b)] for b, s in ((b2, s2), (b3, s3))]
    return len(echelon([d1, d2, d3, *offsets])) <= 2


def line_on_surface(f: Poly, ln: AffLine) -> bool:
    """True iff the whole line lies in the zero set of f."""
    if f.nvars != ln.dim:
        raise ArityError("polynomial arity and line dimension differ")
    return lattice_on_surface(f.form, ln.lattice)
