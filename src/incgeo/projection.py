"""Generic projection of point-line instances from R^d down to R^3.

One projection step removes one dimension: a rational direction w is
sampled, and the map keeps the coordinates v_i - (w_i / w_j) v_j for i
different from the pivot j, which is linear with kernel spanned by w.  A
step is accepted only if it provably changes nothing combinatorial: points
stay distinct, lines stay distinct and none collapses, the incidence
relation is preserved pair for pair, and non-coplanar line triples stay
non-coplanar.  Failed samples are retried against a fixed budget, so the
output carries a certificate rather than a probabilistic promise.

Both pairwise relations come from linespace's integer kernel, on both
sides of the certificate; the growing denominators of projected
coordinates only lengthen its integers.  The triple check costs
O(n^2) pair tests, not O(n^3) triple tests: three projected lines share a
2-flat only if each two of them do, so only triples inside one group of
linespace.coplanar_partners are tested exactly on the original side.  The
original incidence relation is built once and handed to is_generic: each
accepted step certifies that it did not change.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from .errors import ArityError, CollapseError, DomainError, ResampleExhaustedError
from .linalg import Vec, is_zero_vec, to_vec
from .linespace import AffLine, coplanar_partners, coplanar_triple, incidence_relation

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


def _pivot_index(w: Vec) -> int:
    piv = max(range(len(w)), key=lambda i: abs(w[i]))
    if w[piv] == 0:
        raise DomainError("projection direction must be nonzero")
    return piv


def project_vector(v: Sequence, w: Sequence) -> Vec:
    """Image of one vector under the projection along w."""
    vv, ww = to_vec(v), to_vec(w)
    if len(vv) != len(ww):
        raise ArityError("vector and direction disagree on dimension")
    j = _pivot_index(ww)
    ratio = [wi / ww[j] for wi in ww]
    return tuple(vv[i] - ratio[i] * vv[j] for i in range(len(vv)) if i != j)


def project_once(
    points: Sequence, lines: Sequence[AffLine], w: Sequence
) -> tuple[list[Vec], list[AffLine]]:
    """Project every point and line along w, dropping one dimension.

    A line whose direction is proportional to w has no image line; that is
    a CollapseError rather than a silent degeneracy.
    """
    ww = to_vec(w)
    if len(ww) < 4:
        raise DomainError("projection below three dimensions is not meaningful")
    out_points = [project_vector(p, ww) for p in points]
    out_lines = []
    for ln in lines:
        direction = project_vector(ln.direction, ww)
        if is_zero_vec(direction):
            raise CollapseError("a line is parallel to the projection direction")
        out_lines.append(AffLine(project_vector(ln.base, ww), direction))
    return out_points, out_lines


def _coplanar_triples(lines: Sequence[AffLine]) -> Iterator[tuple[int, int, int]]:
    """Every index triple i < j < k whose lines lie in one 2-flat.

    Three lines share a 2-flat only if each two of them do, so such a triple
    lies inside one group of line i's coplanar partners.  A partner equal to
    line i lies in every flat through it, so it completes a coplanar triple
    with any other partner.
    """
    for i, (groups, equal) in enumerate(coplanar_partners(lines)):
        for group in groups:
            for j, k in combinations(group, 2):
                yield i, j, k
        if equal:
            partners = sorted(equal + [j for group in groups for j in group])
            for j, k in combinations(partners, 2):
                if j in equal or k in equal:
                    yield i, j, k


def is_generic(
    points: Sequence[Vec],
    lines: Sequence[AffLine],
    lines_at: tuple[tuple[int, ...], ...],
    projected_points: Sequence,
    projected_lines: Sequence[AffLine],
) -> GenericityCertificate:
    """Certify that a projection preserved the instance combinatorics.

    lines_at is the original side's incidence relation, as
    linespace.incidence_relation builds it.  The projected side's relation
    is built here and compared pair for pair, so accidental new incidences
    are caught, not just lost ones.  A triple is tested on the original
    side only if its projected lines share a 2-flat: any other triple is
    non-coplanar after the projection, so it cannot have become coplanar.
    """
    pts2 = [to_vec(p) for p in projected_points]
    lines2 = list(projected_lines)
    if len(points) != len(pts2) or len(lines) != len(lines2):
        raise DomainError("projected instance has mismatched sizes")
    return GenericityCertificate(
        points_distinct=len(set(pts2)) == len(set(points)) == len(points),
        lines_distinct=len(set(lines2)) == len(set(lines)) == len(lines),
        incidences_preserved=incidence_relation(pts2, lines2) == lines_at,
        noncoplanar_triples_preserved=all(
            coplanar_triple(lines[i], lines[j], lines[k]) for i, j, k in _coplanar_triples(lines2)
        ),
        resamples_used=0,
    )


def _sample_direction(rng: random.Random, dim: int) -> Vec:
    return tuple(
        Fraction(
            rng.randint(-SAMPLE_MAGNITUDE, SAMPLE_MAGNITUDE),
            rng.randint(1, SAMPLE_MAGNITUDE),
        )
        for _ in range(dim)
    )


def project_to_3space(
    points: Sequence,
    lines: Sequence[AffLine],
    seed: int = 0,
    max_resamples: int = MAX_RESAMPLES,
) -> tuple[list[Vec], list[AffLine], GenericityCertificate]:
    """Repeatedly project one dimension until the instance lives in R^3.

    Directions are drawn from a seeded generator, so the output is a pure
    function of (instance, seed).  Each step must pass the full genericity
    certificate; failures burn resamples from a shared budget and exhaust
    into ResampleExhaustedError.
    """
    pts = [to_vec(p) for p in points]
    lns = list(lines)
    dims = {len(p) for p in pts} | {ln.dim for ln in lns}
    if len(dims) > 1:
        raise ArityError("points and lines disagree on ambient dimension")
    dim = dims.pop() if dims else 3
    if dim < 3:
        raise DomainError("instances live in dimension at least 3")

    rng = random.Random(seed)
    resamples = 0
    # an accepted step preserves the incidence relation, so it is built once
    lines_at = incidence_relation(pts, lns) if dim > 3 else ()
    while dim > 3:
        accepted = False
        while not accepted:
            w = _sample_direction(rng, dim)
            try:
                if is_zero_vec(w):
                    raise CollapseError("zero direction")
                cand_pts, cand_lns = project_once(pts, lns, w)
                cert = is_generic(pts, lns, lines_at, cand_pts, cand_lns)
            except CollapseError:
                cert = None
            if cert is not None and cert.ok:
                pts, lns = cand_pts, cand_lns
                dim -= 1
                accepted = True
            else:
                resamples += 1
                if resamples > max_resamples:
                    raise ResampleExhaustedError(
                        f"no generic projection direction within {max_resamples} resamples"
                    )
    final = GenericityCertificate(
        points_distinct=len(set(pts)) == len(pts),
        lines_distinct=len(set(lns)) == len(lns),
        incidences_preserved=True,
        noncoplanar_triples_preserved=True,
        resamples_used=resamples,
    )
    return pts, lns, final
