"""Generic projection of point-line instances from R^d down to R^3.

One projection step removes one dimension: a rational direction w is
sampled, and the map keeps v_i - (w_i / w_j) v_j for i other than the
pivot j (the first entry of largest magnitude), a linear map with kernel
span(w).  A projection is accepted only if it provably changes nothing
combinatorial: points and lines stay distinct, no line collapses, the
incidence relation is kept pair for pair, and non-coplanar line triples
stay non-coplanar.  Failed samples are retried against a fixed budget, so
the output carries a certificate rather than a probabilistic promise.

Every step runs on integers, in lattice's forms, which project_to_3space
takes and returns: with the direction scaled to an integer W, the image of
P/q is (P_i*W_j - W_i*P_j)/(q*W_j), and a line's D and B map the same way.

Every failure persists through later affine steps: merged points or lines
stay merged, and a new incidence or coplanar triple stays.  So a chain of
d - 3 steps passes as a whole iff each step does, and its composed map is
certified once against the original instance and its incidence relation.
Only if that fails, or a draw is zero or collapses a line, is the chain
replayed step by step from the same seed, resampling each failed step, so
output and resample count are those of the step-by-step loop.  Both sides
of a certificate are related by lattice's integer kernels, the triples in
O(n^2) pair tests (see _noncoplanar_kept).
"""

from __future__ import annotations

import random
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .errors import ArityError, CollapseError, DomainError, ResampleExhaustedError
from .lattice import (
    Lattice,
    RelationKind,
    Scaled,
    coplanar_partners,
    lattice_incidences,
    lattice_relation,
    line_lattice,
    reduced_form,
)

SAMPLE_MAGNITUDE = 10**4
MAX_RESAMPLES = 32


class GenericityCertificate(NamedTuple):
    """Which combinatorial invariants a projection preserved, checked exactly."""

    points_distinct: bool
    lines_distinct: bool
    incidences_preserved: bool
    noncoplanar_triples_preserved: bool
    resamples_used: int

    @property
    def ok(self) -> bool:
        return (
            self.points_distinct
            and self.lines_distinct
            and self.incidences_preserved
            and self.noncoplanar_triples_preserved
        )


def _pivot_index(w: Sequence[int]) -> int:
    piv = max(range(len(w)), key=lambda i: abs(w[i]))
    if w[piv] == 0:
        raise DomainError("projection direction must be nonzero")
    return piv


def project_once(
    points: Sequence[Scaled], lines: Sequence[Lattice], w: Sequence[int]
) -> tuple[list[Scaled], list[Lattice]]:
    """Project every scaled point and line lattice along the integer
    direction w, dropping one dimension.

    A line whose direction is proportional to w has no image line; that is
    a CollapseError rather than a silent degeneracy.
    """
    dim = len(w)
    if dim < 4:
        raise DomainError("projection below three dimensions is not meaningful")
    if any(len(pv) != dim for pv, _ in points) or any(len(lat[1]) != dim for lat in lines):
        raise ArityError("instance and direction disagree on dimension")
    j = _pivot_index(w)
    wj = w[j]
    rest = [(i, c) for i, c in enumerate(w) if i != j]

    def image(v: Sequence[int]) -> list[int]:
        vj = v[j]
        return [v[i] * wj - c * vj for i, c in rest]

    out_points = [reduced_form(image(pv), q * wj) for pv, q in points]
    out_lines = []
    for _, dv, bv, s in lines:
        d = image(dv)
        if not any(d):
            raise CollapseError("a line is parallel to the projection direction")
        out_lines.append(line_lattice(d, image(bv), s * wj))
    return out_points, out_lines


def _noncoplanar_kept(lines: Sequence[Lattice], projected_lines: Sequence[Lattice]) -> bool:
    """Whether every triple of lines that lies in one 2-flat after the
    projection did so before it.

    Three lines share a 2-flat only if each two of them do, so after the
    projection line i shares one with two later lines only if both lie in
    one group of i's coplanar partners, or one of them equals line i, as an
    equal line lies in every flat through it.  Lines i, j, k share a 2-flat
    iff neither j nor k is skew to i and one of them equals i or both span
    the same flat with i.  So each group, with the lines equal to i, is
    checked on the original side in one pass: no member is skew to i, and
    the members not equal to i span one flat with it.  Each pair through i
    is related at most once.
    """
    for i, (groups, equal) in enumerate(coplanar_partners(projected_lines)):
        a = lines[i]
        shared = [lattice_relation(a, lines[j])[:2] for j in equal]
        for group in groups or [[]]:
            if len(equal) + len(group) < 2:
                continue
            relations = shared + [lattice_relation(a, lines[j])[:2] for j in group]
            if any(kind is RelationKind.SKEW for kind, _ in relations):
                return False
            if len({key for kind, key in relations if kind is not RelationKind.EQUAL}) > 1:
                return False
    return True


def is_generic(
    points: Sequence[Scaled],
    lines: Sequence[Lattice],
    lines_at: tuple[tuple[int, ...], ...],
    projected_points: Sequence[Scaled],
    projected_lines: Sequence[Lattice],
) -> GenericityCertificate:
    """Certify that a projection preserved the instance combinatorics.

    Points are scaled pairs and lines lattices, on both sides.  lines_at is
    the original side's incidence relation.  The projected side's relation
    is built here and compared pair for pair, so accidental new incidences
    are caught, not just lost ones.  A triple is tested on the original
    side only if its projected lines share a 2-flat: any other triple is
    non-coplanar after the projection, so it cannot have become coplanar.
    """
    if len(points) != len(projected_points) or len(lines) != len(projected_lines):
        raise DomainError("projected instance has mismatched sizes")
    return GenericityCertificate(
        points_distinct=len(set(projected_points)) == len(set(points)) == len(points),
        lines_distinct=len(set(projected_lines)) == len(set(lines)) == len(lines),
        incidences_preserved=lattice_incidences(projected_points, projected_lines) == lines_at,
        noncoplanar_triples_preserved=_noncoplanar_kept(lines, projected_lines),
        resamples_used=0,
    )


def _sample_direction(rng: random.Random, dim: int) -> tuple[int, ...]:
    """A direction with rational entries n/d, |n| <= SAMPLE_MAGNITUDE and
    1 <= d <= SAMPLE_MAGNITUDE, scaled to a primitive integer vector (zero
    when every n is)."""
    draws = [
        (rng.randint(-SAMPLE_MAGNITUDE, SAMPLE_MAGNITUDE), rng.randint(1, SAMPLE_MAGNITUDE))
        for _ in range(dim)
    ]
    scale = lcm(*(d for _, d in draws))
    w = [n * (scale // d) for n, d in draws]
    g = gcd(*w) or 1
    return tuple(c // g for c in w)


def _descend(rng: random.Random, points, lines, dim: int, lines_at, max_resamples: int):
    """(points, lines, resamples) projected to R^3, one draw per step.  With
    the original relation lines_at each step is certified and resampled
    until it passes; without, none is, and a failed draw gives None."""
    resamples = 0
    while dim > 3:
        w = _sample_direction(rng, dim)
        try:
            if not any(w):
                raise CollapseError("zero direction")
            cand_pts, cand_lns = project_once(points, lines, w)
            ok = lines_at is None or is_generic(points, lines, lines_at, cand_pts, cand_lns).ok
        except CollapseError:
            if lines_at is None:
                return None
            ok = False
        if ok:
            points, lines = cand_pts, cand_lns
            dim -= 1
        else:
            resamples += 1
            if resamples > max_resamples:
                raise ResampleExhaustedError(
                    f"no generic projection direction within {max_resamples} resamples"
                )
    return points, lines, resamples


def project_to_3space(
    points: Sequence[Scaled],
    lines: Sequence[Lattice],
    seed: int = 0,
    max_resamples: int = MAX_RESAMPLES,
) -> tuple[list[Scaled], list[Lattice], GenericityCertificate]:
    """Project scaled points and line lattices down to R^3, one dimension
    per step, along directions drawn from a seeded generator, so the output
    is a pure function of (instance, seed).  The composed map, or else each
    step, must pass the full genericity certificate; failed steps burn a
    shared resample budget and exhaust into ResampleExhaustedError."""
    pts, lns = list(points), list(lines)
    dims = {len(pv) for pv, _ in pts} | {len(lat[1]) for lat in lns}
    if len(dims) > 1:
        raise ArityError("points and lines disagree on ambient dimension")
    dim = dims.pop() if dims else 3
    if dim < 3:
        raise DomainError("instances live in dimension at least 3")

    resamples = 0
    if dim > 3:
        # every certificate compares against the original incidence relation
        lines_at = lattice_incidences(pts, lns)
        chain = _descend(random.Random(seed), pts, lns, dim, None, 0)
        if chain is None or not is_generic(pts, lns, lines_at, *chain[:2]).ok:
            chain = _descend(random.Random(seed), pts, lns, dim, lines_at, max_resamples)
        pts, lns, resamples = chain
    distinct = len(set(pts)) == len(pts), len(set(lns)) == len(lns)
    return pts, lns, GenericityCertificate(*distinct, True, True, resamples)
