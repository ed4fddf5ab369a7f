"""Point-line incidence counting over a known surface decomposition.

Every function here reads one checked IncidenceInstance (instfile), which
has already rejected duplicates and stray lines, and which holds the
surface factors of each line (containing) and the point-line relation
(lines_at, points_on, by linespace.incidence_relation), both built on
first read.
The workflow: measure the coplanarity parameter s from
linespace.coplanar_partners; split the line family by surface factor into
the structured part L0 (lines on non-ruled factors, on several factors at
once, or exceptional on a singly ruled factor) and the generic part L1;
then read the incidence count, the conical incidences, the pruned points
and the meeting counts off the instance, check the structural caps and
evaluate the closed-form bounds.  count_incidences is the exhaustive
reference count.  Bound evaluation is the only place floats appear;
everything combinatorial is exact.  Only the decomposition reads
surfaces, which it imports when it runs, so counting and the bounds load
no surface analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .errors import DomainError, InvariantViolation, PlanarComponentError
from .linalg import Vec, to_vec
from .linespace import AffLine, coplanar_partners, incidence_point_line

if TYPE_CHECKING:
    from .instfile import IncidenceInstance
    from .surfaces import ClassificationResult


def count_incidences(points: Sequence, lines: Sequence[AffLine]) -> int:
    """Number of pairs (p, ln) with p on ln, by exhaustive exact check."""
    pts = [to_vec(p) for p in points]
    return sum(1 for p in pts for ln in lines if incidence_point_line(p, ln))


# -- coplanarity parameter ---------------------------------------------------


def max_lines_per_flat(lines: Sequence[AffLine]) -> int:
    """Largest number of family lines lying in a common plane.

    Zero for an empty family.  The lowest-index line of a plane finds every
    other line of it in one group of coplanar_partners, so s is one more
    than the largest group.  Duplicate lines are rejected, with the
    instance's message.
    """
    if len(set(lines)) != len(lines):
        raise DomainError("instance lines must be distinct")
    if not lines:
        return 0
    return 1 + max(
        (len(group) for groups, _ in coplanar_partners(lines) for group in groups), default=0
    )


# -- decomposition of the line family ----------------------------------------


class Decomposition(NamedTuple):
    """An instance's line family split against its classified surface factors.

    Lines are indices into instance.lines, as in the instance's own
    containing and lines_at.  structured holds the lines that the generic
    argument cannot handle uniformly: lines on some non-ruled factor, lines
    shared by two factors, and exceptional lines of singly ruled factors
    (exceptional, per singly ruled factor).  Every remaining line (generic)
    lies on exactly one factor, its owner, and that factor is ruled; a
    conical incidence is a generic line through the apex of its owner,
    apexes.get(owner[j]).
    """

    instance: IncidenceInstance
    verdicts: tuple[ClassificationResult, ...]
    structured: tuple[int, ...]
    generic: tuple[int, ...]
    owner: Mapping[int, int]
    exceptional: Mapping[int, tuple[int, ...]]
    apexes: Mapping[int, Vec]

    @property
    def structured_cap(self) -> int:
        from .surfaces import RULED_VERDICTS

        surface = self.instance.surface
        d = surface.degree
        non_ruled_sq = sum(
            surface.factors[i].degree() ** 2
            for i, r in enumerate(self.verdicts)
            if r.verdict not in RULED_VERDICTS
        )
        return 11 * non_ruled_sq + d * d + d


def decompose_lines(inst: IncidenceInstance) -> Decomposition:
    """Classify the surface factors and split the line family into L0 and L1."""
    from .surfaces import RULED_VERDICTS, Verdict, classify_component, exceptional_lines

    surface = inst.surface
    if surface is None:
        raise DomainError("decomposition needs an instance with a surface")
    per_factor: list[list[int]] = [[] for _ in surface.factors]
    for j, owners in enumerate(inst.containing):
        for i in owners:
            per_factor[i].append(j)
    lines_of = [[inst.lines[j] for j in js] for js in per_factor]

    verdicts = []
    for i, w in enumerate(surface.factors):
        if w.degree() == 1:
            raise PlanarComponentError(
                "surface has a planar component; use the planes variant"
            )
        verdicts.append(classify_component(w, hint_lines=lines_of[i]))

    exceptional: dict[int, tuple[int, ...]] = {}
    apexes: dict[int, Vec] = {}
    for i, r in enumerate(verdicts):
        if r.verdict is Verdict.CONE and r.apex is not None:
            apexes[i] = r.apex
        if r.verdict is Verdict.SINGLY_RULED:
            found = set(exceptional_lines(surface.factors[i], lines_of[i]))
            exceptional[i] = tuple(j for j in per_factor[i] if inst.lines[j] in found)

    structured: list[int] = []
    owner: dict[int, int] = {}
    for j, owners in enumerate(inst.containing):
        on_non_ruled = any(verdicts[i].verdict not in RULED_VERDICTS for i in owners)
        shared = len(owners) >= 2
        is_exceptional = any(j in exceptional.get(i, ()) for i in owners)
        if on_non_ruled or shared or is_exceptional:
            structured.append(j)
        else:
            owner[j] = owners[0]

    decomp = Decomposition(
        instance=inst,
        verdicts=tuple(verdicts),
        structured=tuple(structured),
        generic=tuple(owner),
        owner=owner,
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


def _non_conical_at(decomp: Decomposition, i: int) -> list[int]:
    """Generic lines through point i, leaving out the conical incidences."""
    owner, apexes, p = decomp.owner, decomp.apexes, decomp.instance.points[i]
    return [j for j in decomp.instance.lines_at[i] if j in owner and apexes.get(owner[j]) != p]


def conical_incidence_count(decomp: Decomposition) -> int:
    """Number of conical incidences; structurally at most one per generic line."""
    inst, owner, apexes = decomp.instance, decomp.owner, decomp.apexes
    count = sum(
        j in owner and apexes.get(owner[j]) == p
        for p, lns in zip(inst.points, inst.lines_at)
        for j in lns
    )
    if count > len(decomp.generic):
        raise InvariantViolation("conical incidences exceed the generic line count")
    return count


def prune_points(decomp: Decomposition, min_incidences: int = 4) -> tuple[int, ...]:
    """Indices of the instance points with at least min_incidences
    non-conical generic-line incidences."""
    return tuple(
        i for i in range(decomp.instance.m)
        if len(_non_conical_at(decomp, i)) >= min_incidences
    )


def meeting_line_counts(decomp: Decomposition, kept: Sequence[int]) -> dict[int, int]:
    """Per generic line index: distinct generic lines met non-conically at
    the kept points (indices into the instance points)."""
    partners: dict[int, set[int]] = {j: set() for j in decomp.generic}
    for i in kept:
        incident = _non_conical_at(decomp, i)
        for j in incident:
            partners[j].update(k for k in incident if k != j)
    return {j: len(met) for j, met in partners.items()}


def check_meeting_cap(decomp: Decomposition, kept: Sequence[int]) -> int:
    """Assert each generic line meets at most 4*degree others; return the max."""
    counts = meeting_line_counts(decomp, kept)
    cap = 4 * decomp.instance.surface.degree
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


class BoundReport(NamedTuple):
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
    inst: IncidenceInstance, degree: int, s: int | None, constant: float, planes: bool
) -> BoundReport:
    """Evaluate the bounds on the instance's counts; planes selects the
    plane-dominated shape (and xi 0) instead of the surface-sensitive one."""
    m, n, inc = inst.m, inst.n, inst.incidences
    if s is None:
        s = max_lines_per_flat(inst.lines)
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
    inst: IncidenceInstance, degree: int, s: int | None = None, constant: float = 4.0
) -> BoundReport:
    """Measure an instance against the closed-form bounds.

    s defaults to the measured coplanarity parameter.  The report carries
    the exact counts plus the float evaluations; within means the incidence
    count stays below constant times the surface-sensitive bound.
    """
    if degree < 1:
        raise DomainError("surface degree must be positive")
    return _bound_report(inst, degree, s, constant, planes=False)


def verify_planes_bound(inst: IncidenceInstance, constant: float = 4.0) -> BoundReport:
    """Plane-dominated variant used when the surface has planar components."""
    return _bound_report(inst, 1, None, constant, planes=True)
