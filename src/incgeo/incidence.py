"""Point-line incidence counting over a known surface decomposition.

The workflow: build the instance's IncidenceTable, which holds the
point-line relation (linespace.incidence_relation) both ways; measure the
coplanarity parameter s from linespace.coplanar_partners; split the line
family by surface factor into the structured part L0 (lines on non-ruled
factors, on several factors at once, or exceptional on a singly ruled
factor) and the generic part L1; then read the incidence count, the
conical incidences, the pruned points and the meeting counts off the
table, check the structural caps and evaluate the closed-form bounds.
count_incidences is the exhaustive reference count.  The table and s both
come from linespace's integer kernel, which answers every point-line and
line-line question on integer-primitive data.  Bound evaluation is the
only place floats appear; everything combinatorial is exact.  Only the
decomposition reads surfaces, which it imports when it runs, so counting
and the bounds load no surface analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import (
    DomainError,
    InvariantViolation,
    NotOnSurfaceError,
    PlanarComponentError,
)
from .linalg import Vec, to_vec
from .linespace import (
    AffLine,
    coplanar_partners,
    incidence_point_line,
    incidence_relation,
    line_on_surface,
)

if TYPE_CHECKING:
    from .poly import Surface
    from .surfaces import ClassificationResult


# -- the incidence relation --------------------------------------------------


def count_incidences(points: Sequence, lines: Sequence[AffLine]) -> int:
    """Number of pairs (p, ln) with p on ln, by exhaustive exact check."""
    pts = [to_vec(p) for p in points]
    return sum(1 for p in pts for ln in lines if incidence_point_line(p, ln))


@dataclass(frozen=True)
class IncidenceTable:
    """The point-line incidence relation of one instance, computed once.

    Every pair is checked exactly on construction.  lines_at[i] holds the
    indices of the lines through points[i] and points_on[j] the indices of
    the points on lines[j], both ascending.  Duplicate points or lines are
    rejected, so each incidence is counted once.
    """

    points: tuple[Vec, ...]
    lines: tuple[AffLine, ...]
    lines_at: tuple[tuple[int, ...], ...]
    points_on: tuple[tuple[int, ...], ...]

    def __init__(self, points: Sequence, lines: Sequence[AffLine]):
        pts, lns = tuple(to_vec(p) for p in points), tuple(lines)
        if len(set(pts)) != len(pts):
            raise DomainError("point set contains duplicates")
        if len(set(lns)) != len(lns):
            raise DomainError("line family contains duplicates")
        lines_at = incidence_relation(pts, lns)
        points_on: list[list[int]] = [[] for _ in lns]
        for i, through in enumerate(lines_at):
            for j in through:
                points_on[j].append(i)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "lines", lns)
        object.__setattr__(self, "lines_at", lines_at)
        object.__setattr__(self, "points_on", tuple(map(tuple, points_on)))

    @property
    def total(self) -> int:
        """Number of incident pairs."""
        return sum(len(through) for through in self.lines_at)


# -- coplanarity parameter ---------------------------------------------------


def max_lines_per_flat(lines: Sequence[AffLine]) -> int:
    """Largest number of family lines lying in a common plane.

    Zero for an empty family.  The lowest-index line of a plane finds every
    other line of it in one group of coplanar_partners, so s is one more
    than the largest group.  Duplicate lines are rejected.
    """
    if len(set(lines)) != len(lines):
        raise DomainError("line family contains duplicates")
    if not lines:
        return 0
    return 1 + max(
        (len(group) for groups, _ in coplanar_partners(lines) for group in groups), default=0
    )


# -- decomposition of the line family ----------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Line family split against the classified surface factors.

    structured holds the lines that the generic argument cannot handle
    uniformly: lines on some non-ruled factor, lines shared by two factors,
    and exceptional lines of singly ruled factors.  Every remaining line
    (generic) lies on exactly one factor, and that factor is ruled.
    """

    surface: Surface
    lines: tuple[AffLine, ...]
    verdicts: tuple[ClassificationResult, ...]
    containing: tuple[tuple[int, ...], ...]
    structured: tuple[AffLine, ...]
    generic: tuple[AffLine, ...]
    generic_owner: Mapping[AffLine, int]
    exceptional: Mapping[int, tuple[AffLine, ...]]
    apexes: Mapping[int, Vec]

    def factor_of(self, ln: AffLine) -> int:
        """The unique containing factor of a generic line."""
        owner = self.generic_owner.get(ln)
        if owner is None:
            raise DomainError("line is not in the generic part of the family")
        return owner

    @property
    def structured_cap(self) -> int:
        from .surfaces import RULED_VERDICTS

        d = self.surface.degree
        non_ruled_sq = sum(
            self.surface.factors[i].degree() ** 2
            for i, r in enumerate(self.verdicts)
            if r.verdict not in RULED_VERDICTS
        )
        return 11 * non_ruled_sq + d * d + d


def decompose_lines(surface: Surface, lines: Sequence[AffLine]) -> Decomposition:
    """Classify the factors and split the line family into L0 and L1."""
    from .surfaces import RULED_VERDICTS, Verdict, classify_component, exceptional_lines

    lines = tuple(lines)
    if len(set(lines)) != len(lines):
        raise DomainError("line family contains duplicates")
    per_factor_lines: list[list[AffLine]] = [[] for _ in surface.factors]
    containing: list[tuple[int, ...]] = []
    for ln in lines:
        owners = tuple(
            i for i, w in enumerate(surface.factors) if line_on_surface(w, ln)
        )
        if not owners:
            raise NotOnSurfaceError(f"line {ln} lies on no factor of the surface")
        for i in owners:
            per_factor_lines[i].append(ln)
        containing.append(owners)

    verdicts = []
    for i, w in enumerate(surface.factors):
        if w.degree() == 1:
            raise PlanarComponentError(
                "surface has a planar component; use the planes variant"
            )
        verdicts.append(classify_component(w, hint_lines=per_factor_lines[i]))

    exceptional: dict[int, tuple[AffLine, ...]] = {}
    apexes: dict[int, Vec] = {}
    for i, r in enumerate(verdicts):
        if r.verdict is Verdict.CONE and r.apex is not None:
            apexes[i] = r.apex
        if r.verdict is Verdict.SINGLY_RULED:
            exceptional[i] = tuple(exceptional_lines(surface.factors[i], per_factor_lines[i]))

    structured: list[AffLine] = []
    generic: list[AffLine] = []
    generic_owner: dict[AffLine, int] = {}
    for ln, owners in zip(lines, containing):
        on_non_ruled = any(verdicts[i].verdict not in RULED_VERDICTS for i in owners)
        shared = len(owners) >= 2
        is_exceptional = any(ln in exceptional.get(i, ()) for i in owners)
        if on_non_ruled or shared or is_exceptional:
            structured.append(ln)
        else:
            generic.append(ln)
            generic_owner[ln] = owners[0]

    decomp = Decomposition(
        surface=surface,
        lines=lines,
        verdicts=tuple(verdicts),
        containing=tuple(containing),
        structured=tuple(structured),
        generic=tuple(generic),
        generic_owner=generic_owner,
        exceptional=exceptional,
        apexes=apexes,
    )
    if len(decomp.structured) > decomp.structured_cap:
        raise InvariantViolation(
            f"{len(decomp.structured)} structured lines exceed the cap "
            f"{decomp.structured_cap}"
        )
    return decomp


# -- conical incidences and pruning -------------------------------------------


def _generic_apexes(decomp: Decomposition, table: IncidenceTable) -> dict[int, Vec | None]:
    """Index of each generic line of the table -> apex of its owning cone,
    None if the owner is no cone.  A conical incidence is a line through it."""
    if table.lines != decomp.lines:
        raise DomainError("incidence table and decomposition hold different lines")
    return {
        j: decomp.apexes.get(decomp.generic_owner[ln])
        for j, ln in enumerate(table.lines)
        if ln in decomp.generic_owner
    }


def _non_conical_at(apexes: Mapping[int, Vec | None], table: IncidenceTable, i: int) -> list[int]:
    """Generic lines through point i, leaving out the conical incidences."""
    return [j for j in table.lines_at[i] if j in apexes and apexes[j] != table.points[i]]


def conical_incidence_count(decomp: Decomposition, table: IncidenceTable) -> int:
    """Number of conical incidences; structurally at most one per generic line."""
    apexes = _generic_apexes(decomp, table)
    count = sum(apexes.get(j) == p for p, lns in zip(table.points, table.lines_at) for j in lns)
    if count > len(decomp.generic):
        raise InvariantViolation("conical incidences exceed the generic line count")
    return count


def prune_points(
    decomp: Decomposition, table: IncidenceTable, min_incidences: int = 4
) -> tuple[int, ...]:
    """Indices of the points with at least min_incidences non-conical
    generic-line incidences."""
    apexes = _generic_apexes(decomp, table)
    return tuple(
        i for i in range(len(table.points))
        if len(_non_conical_at(apexes, table, i)) >= min_incidences
    )


def meeting_line_counts(
    decomp: Decomposition, table: IncidenceTable, kept: Sequence[int]
) -> dict[AffLine, int]:
    """Per generic line: distinct generic lines met non-conically at the kept
    points (indices into the table)."""
    apexes = _generic_apexes(decomp, table)
    partners: dict[int, set[int]] = {j: set() for j in apexes}
    for i in kept:
        incident = _non_conical_at(apexes, table, i)
        for j in incident:
            partners[j].update(k for k in incident if k != j)
    return {table.lines[j]: len(met) for j, met in partners.items()}


def check_meeting_cap(decomp: Decomposition, table: IncidenceTable, kept: Sequence[int]) -> int:
    """Assert each generic line meets at most 4*degree others; return the max."""
    counts = meeting_line_counts(decomp, table, kept)
    cap = 4 * decomp.surface.degree
    worst = max(counts.values(), default=0)
    if worst > cap:
        raise InvariantViolation(f"a generic line meets {worst} others, cap {cap}")
    return worst


# -- closed-form bound evaluators ---------------------------------------------


def _cbrt(x: float) -> float:
    """Nonnegative cube root, exact on perfect integer cubes."""
    r = x ** (1.0 / 3.0)
    snapped = float(round(r))
    if snapped**3 == x:
        return snapped
    return r


def rhs_st(m: int, n: int) -> float:
    """Planar point-line shape: m^(2/3) n^(2/3) + m + n."""
    return _cbrt(float(m) ** 2) * _cbrt(float(n) ** 2) + m + n


def rhs_gk(m: int, n: int, s: int) -> float:
    """Spatial shape with coplanarity control:
    m^(1/2) n^(3/4) + m^(2/3) n^(1/3) s^(1/3) + m + n."""
    return (
        float(m) ** 0.5 * float(n) ** 0.75
        + _cbrt(float(m) ** 2) * _cbrt(float(n)) * _cbrt(float(s))
        + m
        + n
    )


def rhs_main(m: int, n: int, degree: int, s: int) -> float:
    """Surface-sensitive shape:
    (m n degree)^(1/2) + m^(2/3) min(n, degree^2)^(1/3) s^(1/3) + m + n."""
    return (
        (float(m) * float(n) * float(degree)) ** 0.5
        + _cbrt(float(m) ** 2) * _cbrt(float(min(n, degree * degree))) * _cbrt(float(s))
        + m
        + n
    )


def rhs_planes(m: int, s: int, n: int) -> float:
    """Plane-dominated shape: m^(2/3) s^(2/3) + m + n."""
    return _cbrt(float(m) ** 2) * _cbrt(float(s) ** 2) + m + n


def choose_xi(m: int, n: int, degree: int) -> float:
    """Cell resolution parameter: 3 in the dense regime, else sqrt(n*degree/m)."""
    if m < 1 or n < 1 or degree < 1:
        raise DomainError("cell parameter needs positive m, n, degree")
    if 9 * m > n * degree:
        return 3.0
    return (n * degree / m) ** 0.5


# -- bound report --------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    m: int
    n: int
    degree: int
    s: int
    incidences: int
    xi: float
    rhs_st: float
    rhs_gk: float
    rhs_main: float
    ratio_main: float
    constant: float
    within: bool
    notes: str = ""


def _bound_report(
    points: Sequence, lines: Sequence[AffLine], degree: int, s: int | None,
    constant: float, planes: bool,
) -> BoundReport:
    """Count the instance once and evaluate the bounds; planes selects the
    plane-dominated shape (and xi 0) instead of the surface-sensitive one."""
    table = IncidenceTable(points, lines)
    m, n = len(table.points), len(table.lines)
    if s is None:
        s = max_lines_per_flat(table.lines)
    inc = table.total
    if planes:
        main, xi = rhs_planes(m, s, n), 0.0
    else:
        main = rhs_main(m, n, degree, s) if n else float(m)
        xi = choose_xi(m, n, degree) if m and n else 0.0
    return BoundReport(
        m=m,
        n=n,
        degree=degree,
        s=s,
        incidences=inc,
        xi=xi,
        rhs_st=rhs_st(m, n),
        rhs_gk=rhs_gk(m, n, s),
        rhs_main=main,
        ratio_main=inc / main if main else 0.0,
        constant=constant,
        within=inc <= constant * main,
        notes="plane-dominated bound" if planes else "",
    )


def verify_bound(
    points: Sequence,
    lines: Sequence[AffLine],
    degree: int,
    s: int | None = None,
    constant: float = 4.0,
) -> BoundReport:
    """Measure an instance against the closed-form bounds.

    s defaults to the measured coplanarity parameter.  The report carries
    the exact counts plus the float evaluations; within means the incidence
    count stays below constant times the surface-sensitive bound.
    """
    if degree < 1:
        raise DomainError("surface degree must be positive")
    return _bound_report(points, lines, degree, s, constant, planes=False)


def verify_planes_bound(
    points: Sequence,
    lines: Sequence[AffLine],
    constant: float = 4.0,
) -> BoundReport:
    """Plane-dominated variant used when the surface has planar components."""
    return _bound_report(points, lines, 1, None, constant, planes=True)
