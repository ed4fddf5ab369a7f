"""Construction of named surfaces and seeded point-line instances on them.

The catalog covers the surfaces the test suite reasons about: the quadric
cone, the hyperbolic paraboloid (a regulus carrier), the singly ruled
Whitney cubic, the unit sphere, the smooth Fermat-style cubic, and the
degree-7 product of the three ruled ones.  Line families are canonical and
deterministic; randomness enters only through point placement and lifts to
higher dimension, both driven by an explicit seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import count as it_count
from math import gcd
from typing import Iterator, Mapping, Sequence

from . import SURFACE_KINDS
from .errors import ArityError, DomainError, ResampleExhaustedError
from .linalg import Vec, rank, to_vec
from .instfile import IncidenceInstance
from .linespace import AffLine
from .poly import Poly, Surface, variables

_X, _Y, _Z = variables(3)

_RULED_FACTORS: Mapping[str, Poly] = {
    "cone": _X**2 + _Y**2 - _Z**2,
    "regulus": _Z - _X * _Y,
    "whitney": _X**2 - _Y**2 * _Z,
}

ORIGIN: Vec = (Fraction(0), Fraction(0), Fraction(0))
WHITNEY_SINGULAR_AXIS = AffLine((0, 0, 0), (0, 0, 1))


def make_surface(kind: str) -> Surface:
    """Build a catalog surface by name."""
    if kind in _RULED_FACTORS:
        return Surface([_RULED_FACTORS[kind]])
    if kind == "sphere":
        return Surface([_X**2 + _Y**2 + _Z**2 - 1])
    if kind == "fermat":
        return Surface([_X**3 + _Y**3 + _Z**3 - 1])
    if kind == "product":
        return Surface([_RULED_FACTORS[k] for k in ("cone", "regulus", "whitney")])
    raise DomainError(f"unknown surface kind {kind!r}")


def _parameter_sequence() -> Iterator[int]:
    yield 0
    for k in it_count(1):
        yield k
        yield -k


def _cone_lines() -> Iterator[AffLine]:
    # Integer generators come from Pythagorean triples; the two axis-plane
    # generators seed the stream before the classical (a, b) enumeration.
    for p, q in ((1, 0), (0, 1)):
        yield AffLine(ORIGIN, (p, q, 1))
        yield AffLine(ORIGIN, (p, q, -1))
    for a in it_count(2):
        for b in range(1, a):
            if (a - b) % 2 == 1 and gcd(a, b) == 1:
                p, q, r = a * a - b * b, 2 * a * b, a * a + b * b
                for direction in ((p, q, r), (p, q, -r), (q, p, r), (q, p, -r)):
                    yield AffLine(ORIGIN, direction)


def _regulus_lines() -> Iterator[AffLine]:
    for c in _parameter_sequence():
        yield AffLine((0, c, 0), (1, 0, c))
        yield AffLine((c, 0, 0), (0, 1, c))


def _whitney_lines() -> Iterator[AffLine]:
    for c in _parameter_sequence():
        yield AffLine((0, 0, c * c), (c, 1, 0))


def _round_robin(*streams: Iterator[AffLine]) -> Iterator[AffLine]:
    alive = list(streams)
    while alive:
        for stream in list(alive):
            try:
                yield next(stream)
            except StopIteration:
                alive.remove(stream)


def make_lines(kind: str, count: int, include_exceptional: bool = False) -> list[AffLine]:
    """First `count` lines of the canonical family on a catalog surface.

    The families are fixed enumerations, not samples, so equal arguments
    always return equal lists.  The Whitney cubic's singular axis (also its
    exceptional line) joins the list only on request.
    """
    if count < 0:
        raise DomainError("line count must be nonnegative")
    if kind not in SURFACE_KINDS:
        raise DomainError(f"unknown surface kind {kind!r}")
    if kind in ("sphere", "fermat"):
        if count > 0:
            raise DomainError(f"surface kind {kind!r} carries no real lines")
        return []
    if kind == "cone":
        stream: Iterator[AffLine] = _cone_lines()
    elif kind == "regulus":
        stream = _regulus_lines()
    elif kind == "whitney":
        stream = _whitney_lines()
    else:
        stream = _round_robin(_cone_lines(), _regulus_lines(), _whitney_lines())
    out: list[AffLine] = []
    seen: set[AffLine] = set()
    if include_exceptional and kind in ("whitney", "product"):
        out.append(WHITNEY_SINGULAR_AXIS)
        seen.add(WHITNEY_SINGULAR_AXIS)
    while len(out) < count:
        ln = next(stream)
        if ln not in seen:
            seen.add(ln)
            out.append(ln)
    return out[:count]


def place_points(
    lines: Sequence[AffLine],
    count: int,
    seed: int = 0,
    avoid: Sequence = (),
) -> list[Vec]:
    """Sample `count` distinct rational points on the given lines.

    Both the carrying line and the parameter are drawn from a generator
    seeded by `seed`, so placement is reproducible.  Points listed in
    `avoid` (say a cone apex every generator passes through) are skipped.
    """
    if count < 0:
        raise DomainError("point count must be nonnegative")
    if count == 0:
        return []
    if not lines:
        raise DomainError("cannot place points without lines")
    rng = random.Random(seed)
    blocked = {to_vec(p) for p in avoid}
    out: list[Vec] = []
    chosen: set[Vec] = set()
    attempts_left = 60 * count + 100
    while len(out) < count:
        attempts_left -= 1
        if attempts_left < 0:
            raise ResampleExhaustedError("point placement keeps hitting duplicates")
        ln = lines[rng.randrange(len(lines))]
        t = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        p = ln.point_at(t)
        if p in chosen or p in blocked:
            continue
        chosen.add(p)
        out.append(p)
    return out


def _embed(v: Vec, dim: int) -> Vec:
    return v + (Fraction(0),) * (dim - len(v))


def _mat_vec(matrix: Sequence[Vec], v: Vec) -> Vec:
    return tuple(sum(row[i] * v[i] for i in range(len(v))) for row in matrix)


def lift_to_dim(
    points: Sequence,
    lines: Sequence[AffLine],
    dim: int,
    seed: int = 0,
) -> tuple[list[Vec], list[AffLine]]:
    """Move a 3-space instance into R^dim by a seeded invertible affine map.

    Zero-padding followed by an invertible rational matrix and a shift
    keeps every exact relation: distinctness, incidences, coplanarity and
    its absence all survive in both directions.
    """
    pts = [to_vec(p) for p in points]
    lns = list(lines)
    dims = {len(p) for p in pts} | {ln.dim for ln in lns}
    if len(dims) > 1:
        raise ArityError("points and lines disagree on ambient dimension")
    src = dims.pop() if dims else 3
    if dim < src:
        raise DomainError("lift target dimension is below the source")
    if dim == src:
        return pts, lns

    rng = random.Random(seed)
    matrix: list[Vec] | None = None
    for _ in range(32):
        cand = [tuple(Fraction(rng.randint(-5, 5)) for _ in range(dim)) for _ in range(dim)]
        if rank(cand) == dim:
            matrix = cand
            break
    if matrix is None:
        raise ResampleExhaustedError("no invertible lift matrix within budget")
    shift = tuple(Fraction(rng.randint(-5, 5)) for _ in range(dim))

    def move(v: Vec) -> Vec:
        image = _mat_vec(matrix, _embed(v, dim))
        return tuple(x + s for x, s in zip(image, shift))

    out_pts = [move(p) for p in pts]
    out_lns = [
        AffLine(move(ln.base), _mat_vec(matrix, _embed(ln.direction, dim))) for ln in lns
    ]
    return out_pts, out_lns


def build_instance(
    kind: str,
    n_lines: int,
    n_points: int,
    seed: int = 0,
    dim: int = 3,
    include_exceptional: bool = False,
) -> IncidenceInstance:
    """Assemble a seeded instance on a catalog surface.

    Points avoid the origin: on the cone (and the product, which contains
    it) every generator passes through the apex, and a single point of
    that concurrency would dominate the incidence count.
    """
    if dim != 3 and n_lines == 0 and n_points == 0:
        raise DomainError(f"an instance without points or lines has dim 3, not {dim}")
    surface = make_surface(kind)
    lines = make_lines(kind, n_lines, include_exceptional=include_exceptional)
    points = place_points(lines, n_points, seed=seed, avoid=(ORIGIN,)) if n_points else []
    if dim != 3:
        pts_d, lns_d = lift_to_dim(points, lines, dim, seed=seed)
        return IncidenceInstance(None, pts_d, lns_d)
    return IncidenceInstance(surface, points, lines)
