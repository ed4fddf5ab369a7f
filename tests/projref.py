"""Reference projection on Fraction coordinates, for the tests.

The package projects on integers: points as scaled pairs (P, q), lines as
lattices (k, D, B, s) and the direction scaled to integers.  The tests check
that step against project_vector, the plain Fraction formula it replaced,
which shares no arithmetic with it; the adapters below run the integer step
and certificate on Fraction points and AffLines.
"""

from fractions import Fraction
from math import lcm
from typing import Sequence

from incgeo.errors import ArityError, CollapseError, DomainError
from incgeo.linalg import Vec, to_vec
from incgeo.linespace import AffLine, scaled_form, incidence_relation
from incgeo.projection import GenericityCertificate, is_generic, project_once


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
        [AffLine([Fraction(c, s) for c in bv], dv) for _, dv, bv, s in lines],
    )


def project(points: Sequence, lines: Sequence[AffLine], w: Sequence) -> tuple[list[Vec], list[AffLine]]:
    """projection.project_once on Fraction points and AffLines."""
    return fraction_form(*project_once(*lattice_form(points, lines), integer_direction(w)))


def certify(points, lines, projected_points, projected_lines) -> GenericityCertificate:
    """projection.is_generic on Fraction points and AffLines, with the
    original side's incidence relation built here."""
    scaled, lattices = lattice_form(points, lines)
    return is_generic(
        scaled, lattices, incidence_relation(points, lines),
        *lattice_form(projected_points, projected_lines),
    )
