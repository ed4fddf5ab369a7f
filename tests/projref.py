"""Reference projection on Fraction coordinates, for the tests.

The package projects on integers: points as scaled pairs (P, q), lines as
lattices (k, D, B, s) and the direction scaled to integers.  The tests check
that step against project_vector, the plain Fraction formula it replaced,
which shares no arithmetic with it; the adapters below run the integer step,
the certificate and the whole descent on Fraction points and AffLines.
step_by_step is the descent that certifies every step, which
project_to_3space replays only when its one composed certificate fails.
"""

import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from incgeo.errors import ArityError, CollapseError, DomainError, ResampleExhaustedError
from incgeo.lattice import lattice_incidences, scaled_form
from incgeo.linespace import Vec, to_vec
from incgeo.linespace import AffLine
from incgeo.projection import (
    MAX_RESAMPLES,
    GenericityCertificate,
    _sample_direction,
    is_generic,
    project_once,
    project_to_3space,
)


def project_vector(v: Sequence, w: Sequence) -> Vec:
    """Image of one vector under the projection along w: v_i - (w_i/w_j) v_j
    for every i but the pivot j, the first entry of w of largest magnitude."""
    vv, ww = to_vec(v), to_vec(w)
    if len(vv) != len(ww):
        raise ArityError("vector and direction disagree on dimension")
    j = max(range(len(ww)), key=lambda i: abs(ww[i]))
    if ww[j] == 0:
        raise DomainError("projection direction must be nonzero")
    return tuple(vv[i] - ww[i] / ww[j] * vv[j] for i in range(len(vv)) if i != j)


def project_fractions(
    points: Sequence, lines: Sequence[AffLine], w: Sequence
) -> tuple[list[Vec], list[AffLine]]:
    """Every point and line projected along w by project_vector."""
    out_lines = []
    for ln in lines:
        direction = project_vector(ln.direction, w)
        if not any(direction):
            raise CollapseError("a line is parallel to the projection direction")
        out_lines.append(AffLine(project_vector(ln.base, w), direction))
    return [project_vector(p, w) for p in points], out_lines


def integer_direction(w: Sequence) -> tuple[int, ...]:
    """w scaled by the lcm of its denominators: the same projection."""
    scale = lcm(*(Fraction(c).denominator for c in w))
    return tuple(int(c * scale) for c in w)


def lattice_form(points: Sequence, lines: Sequence[AffLine]) -> tuple[list, list]:
    return [scaled_form(to_vec(p)) for p in points], [ln.lattice for ln in lines]


def fraction_form(points: Sequence, lines: Sequence) -> tuple[list[Vec], list[AffLine]]:
    return (
        [tuple(Fraction(c, q) for c in pv) for pv, q in points],
        [AffLine.from_lattice(lat) for lat in lines],
    )


def project(points: Sequence, lines: Sequence[AffLine], w: Sequence) -> tuple[list[Vec], list[AffLine]]:
    """projection.project_once on Fraction points and AffLines."""
    return fraction_form(*project_once(*lattice_form(points, lines), integer_direction(w)))


def certify(points, lines, projected_points, projected_lines) -> GenericityCertificate:
    """projection.is_generic on Fraction points and AffLines, with the
    original side's incidence relation built here."""
    scaled, lattices = lattice_form(points, lines)
    return is_generic(
        scaled, lattices, lattice_incidences(scaled, lattices),
        *lattice_form(projected_points, projected_lines),
    )


def project_down(points, lines, seed=0, max_resamples=MAX_RESAMPLES):
    """projection.project_to_3space on Fraction points and AffLines."""
    pts, lns, cert = project_to_3space(*lattice_form(points, lines), seed, max_resamples)
    return (*fraction_form(pts, lns), cert)


def step_by_step(points, lines, seed=0, max_resamples=MAX_RESAMPLES):
    """(points, lines, resamples): the descent on scaled points and line
    lattices that certifies each step against the original incidence
    relation and resamples it until it passes, with the same draws as
    project_to_3space."""
    pts, lns = list(points), list(lines)
    dim = len(pts[0][0]) if pts else len(lns[0][1])
    lines_at = lattice_incidences(pts, lns)
    rng = random.Random(seed)
    resamples = 0
    while dim > 3:
        w = _sample_direction(rng, dim)
        try:
            if not any(w):
                raise CollapseError("zero direction")
            cand = project_once(pts, lns, w)
            ok = is_generic(pts, lns, lines_at, *cand).ok
        except CollapseError:
            ok = False
        if ok:
            pts, lns = cand
            dim -= 1
        else:
            resamples += 1
            if resamples > max_resamples:
                raise ResampleExhaustedError("resample budget exhausted")
    return pts, lns, resamples
