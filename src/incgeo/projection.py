"""Generic projection of point-line instances from R^d down to R^3.

One projection step removes one dimension: a rational direction w is
sampled, and the map keeps the coordinates v_i - (w_i / w_j) v_j for i
different from the pivot j (the first entry of largest magnitude), which
is linear with kernel spanned by w.  A step is accepted only if it provably
changes nothing combinatorial: points stay distinct, lines stay distinct
and none collapses, the incidence relation is preserved pair for pair, and
non-coplanar line triples stay non-coplanar.  Failed samples are retried
against a fixed budget, so the output carries a certificate rather than a
probabilistic promise.

Every step runs on integers, in linespace's canonical forms: a point is its
scaled pair (P, q) and a line its lattice (k, D, B, s).  The direction is
scaled to an integer W, so the image of P/q is (P_i*W_j - W_i*P_j)/(q*W_j),
reduced to lowest terms by linespace.reduced_form; a line's direction and
base map the same way and linespace.line_lattice puts them back in
canonical form.  Fractions and AffLines are built once, after the last
accepted step.

Both pairwise relations come from linespace's integer kernels, on both
sides of the certificate.  The triple check costs O(n^2) pair tests, not
O(n^3) triple tests: three projected lines share a 2-flat only if each two
of them do, so only the lines of one group of linespace.coplanar_partners
are related on the original side, each once to the line whose group it
is: none may be skew to that line, and those not equal to it must span
one flat with it.  The original incidence relation is built once and
handed to is_generic: each accepted step certifies that it did not change.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .errors import ArityError, CollapseError, DomainError, ResampleExhaustedError
from .linalg import Vec, to_vec
from .linespace import (
    AffLine,
    Lattice,
    RelationKind,
    Scaled,
    coplanar_partners,
    lattice_incidences,
    lattice_relation,
    line_lattice,
    reduced_form,
    scaled_form,
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
    if dim > 3:
        scaled = [scaled_form(p) for p in pts]
        lattices = [ln.lattice for ln in lns]
        # an accepted step preserves the incidence relation, so it is built once
        lines_at = lattice_incidences(scaled, lattices)
        while dim > 3:
            w = _sample_direction(rng, dim)
            try:
                if not any(w):
                    raise CollapseError("zero direction")
                cand_pts, cand_lns = project_once(scaled, lattices, w)
                ok = is_generic(scaled, lattices, lines_at, cand_pts, cand_lns).ok
            except CollapseError:
                ok = False
            if ok:
                scaled, lattices = cand_pts, cand_lns
                dim -= 1
            else:
                resamples += 1
                if resamples > max_resamples:
                    raise ResampleExhaustedError(
                        f"no generic projection direction within {max_resamples} resamples"
                    )
        pts = [tuple(Fraction(c, q) for c in pv) for pv, q in scaled]
        lns = [
            AffLine([Fraction(c, s) for c in bv], [Fraction(c, dv[k]) for c in dv])
            for k, dv, bv, s in lattices
        ]
    final = GenericityCertificate(
        points_distinct=len(set(pts)) == len(pts),
        lines_distinct=len(set(lns)) == len(lns),
        incidences_preserved=True,
        noncoplanar_triples_preserved=True,
        resamples_used=resamples,
    )
    return pts, lns, final
