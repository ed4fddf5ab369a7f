"""Lines on a ruled factor: lines through a point, exceptional lines and
generator counts.

These are the questions the incidence machinery asks once a factor is
known to be ruled (surfaces classifies it): which lines through a point lie
on the factor (a bounded search), which lines of a family are exceptional,
and do the generator-count sums along a probe line stay below the factor
degree.  Each reads the expansion helpers of surfaces: the Taylor parts at
a point, and the forms of one integer expansion along a line.
Exceptionality is exact over C on non-singular lines, read off the tangent
pencil along the line; on singular lines it is a bounded scan.  Everything
runs on integer forms: a factor is its zpoly form, a line its lattice and a
point its scaled pair (lattice).  The public functions read a Poly or a
form, AffLines or lattices, and points of ints or Fractions or scaled
pairs, and exceptional_lines returns the caller's own line objects, so no
Fraction view is built; the tangent pencil that no certificate settles
takes its gcd on integer term maps (zgcd.term_gcd), so poly is never
loaded.  A scaled pair is reduced, and a point or line outside R^3 raises
ArityError.  The module is apart from surfaces so that classifying a
factor, which searches for a line (_search_real_line) only on a ruled
factor without hint lines, does not load it."""

from __future__ import annotations

import itertools
from math import gcd
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import (
    ArityError,
    DomainError,
    ExceptionalLineError,
    InvariantViolation,
    NotOnSurfaceError,
)
from .lattice import Lattice, RelationKind, Scaled, lattice_incidences, lattice_on_surface, lattice_point
from .lattice import lattice_relation, line_lattice, point_strings, reduced_form, scaled_form
from .surfaces import _UNITS, Bivariate, _at_point, _form, _forms_along, _lattice, _term_maps, _zpowers
from .zpoly import Form, _line_expansion, form_degree, univariate_gcd

if TYPE_CHECKING:
    from .linespace import AffLine
    from .poly import Poly


def _scaled(point: Sequence) -> Scaled:
    """The scaled pair of a point in R^3: of a pair (P, q), q > 0, reduced
    (lattice.reduced_form); of a vector of ints or Fractions, its own."""
    if not isinstance(point[0], tuple):
        if not all(hasattr(c, "denominator") and not isinstance(c, bool) for c in point):
            raise DomainError(f"point {tuple(point)!r} has a coordinate that is not an int or a Fraction")
        point = scaled_form(point)
    if len(point[0]) != 3:
        raise ArityError(f"point of dimension {len(point[0])}, not 3")
    if point[1] <= 0:
        raise DomainError(f"scaled point {point!r} needs a positive scale")
    return reduced_form(*point)


# -- lines through a point ---------------------------------------------------


def _eval_terms(terms: list[tuple[int, tuple[int, int, int]]], v: tuple[int, int, int]) -> int:
    total = 0
    for c, e in terms:
        val = c
        for base, k in zip(v, e):
            if k:
                val *= base**k
        total += val
    return total


def _primitive_dirs(bound: int):
    """All primitive integer directions in the box, first nonzero entry positive."""
    for v1 in range(0, bound + 1):
        for v2 in range(0 if v1 == 0 else -bound, bound + 1):
            for v3 in range(1 if v1 == v2 == 0 else -bound, bound + 1):
                if gcd(gcd(v1, abs(v2)), abs(v3)) == 1:
                    yield (v1, v2, v3)


# Entry bound of the line search: its default, and the bound of the probe
# scan that decides exceptionality on singular lines.
DENOMINATOR_BOUND = 10


def find_lines_through_point(
    form: Form, point: Scaled, denominator_bound: int = DENOMINATOR_BOUND
) -> list[Lattice]:
    """The lattices of all lines through the scaled point inside the zero
    set of the form's factor with small integer directions, in order.

    Sound and complete for directions admitting a primitive integer
    representative with entries bounded by denominator_bound; lines whose
    direction needs larger integers are not searched for.  At non-singular
    points the search is an integer walk over the tangent lattice, still
    complete inside the box: two coordinates of a direction run over the
    box, and the gradient, scaled to integers, fixes the third (where the
    gradient is largest).  Each primitive direction found is tested once.
    At singular points every primitive direction in the box is tested.
    """
    d = form_degree(_form(form))
    if d < 1:
        raise DomainError("line search needs a non-constant factor")
    if denominator_bound < 1:
        raise DomainError("denominator bound must be >= 1")
    # f(p + t v) = sum_k t^k c_k(v), c_k the degree-k Taylor part; c_0 = 0
    # and c_1(v) = grad . v; each c_k comes as one positive integer multiple
    parts = _at_point(form, point, d)
    if (0, 0, 0) in parts:
        raise NotOnSurfaceError(f"point ({', '.join(point_strings(point))}) is not on the surface")
    g = [parts.get(u, 0) for u in _UNITS]
    orders = ([(c, e) for e, c in parts.items() if sum(e) == k] for k in range(2, d + 1))
    int_coeffs = sorted((terms for terms in orders if terms), key=len)
    found: set[Lattice] = set()

    def check_dir(v: tuple[int, int, int]) -> None:
        for terms in int_coeffs:
            if _eval_terms(terms, v) != 0:
                return
        found.add(line_lattice(v, point[0], point[1]))

    if any(g):
        # c_1 vanishes exactly on the tangent plane lattice: walk two
        # coordinates over the box (one half of it, as v and -v are one
        # direction) and solve the integer gradient equation for the third
        piv = max(range(3), key=lambda i: abs(g[i]))
        i, j = (k for k in range(3) if k != piv)
        gi, gj, gp = g[i], g[j], g[piv]
        seen: set[tuple[int, ...]] = set()
        for a in range(0, denominator_bound + 1):
            for b in range(1 if a == 0 else -denominator_bound, denominator_bound + 1):
                rhs = -(gi * a + gj * b)
                if rhs % gp:
                    continue
                raw = [0, 0, 0]
                raw[i], raw[j], raw[piv] = a, b, rhs // gp
                k = gcd(*raw)
                if abs(raw[piv]) > denominator_bound * k:
                    continue
                prim = tuple(x // k for x in raw)
                if prim not in seen:
                    seen.add(prim)
                    check_dir(prim)  # type: ignore[arg-type]
    else:
        for v in _primitive_dirs(denominator_bound):
            check_dir(v)

    lines = sorted(found)
    for ln in lines:
        if not lattice_on_surface(form, ln):  # pragma: no cover - guards check_dir
            raise InvariantViolation("line search returned a non-contained line")
    return lines

# Entry bound of the search for one real line that witnesses a ruling.
REAL_LINE_BOUND = 5


def _search_real_line(form: Form) -> Lattice | None:
    """Cheap bounded search for one rational line on the factor
    (surfaces.classify_component): it looks only at the 125 points of the
    integer grid {0, +-1, +-2}^3 that lie on the factor, each with a line
    search of entry bound REAL_LINE_BOUND."""
    for p in itertools.product((0, 1, -1, 2, -2), repeat=3):
        if _at_point(form, (p, 1), 0):  # f(p) != 0
            continue
        lines = find_lines_through_point(form, (p, 1), REAL_LINE_BOUND)
        if lines:
            return lines[0]
    return None


# -- exceptional lines and generator counts ----------------------------------


def _probe_parameters(d: int) -> list[int]:
    """Deterministic probe parameters along a line.

    Plain integers catch linearly spaced incidences; the square values catch
    rulings whose parametrization meets a fixed line quadratically, which is
    how generators meet the singular line of the canonical ruled cubic.
    """
    top = 2 * d + 1
    out = [0]
    for k in range(1, top + 1):
        out.extend((k, -k))
    for k in range(2, top + 1):
        out.extend((k * k, -k * k))
    return list(dict.fromkeys(out))


def exceptional_lines(factor: Poly | Form, lines: Sequence[AffLine | Lattice]) -> list:
    """Lines of the family meeting other lines of the factor along their length.

    The factor is read as its form and the lines as lattices; the result
    holds the caller's own line objects, in the family's order.  Every line
    of the family must lie on the factor; one that does not raises
    NotOnSurfaceError, and one outside R^3 ArityError.  On a non-singular
    line the answer is exact over C: the line is exceptional iff the
    tangent pencil along it (_tangent_pencil) has a common factor in the
    pencil direction, so infinitely many of its points carry a second line
    of the factor, whatever their entries.  A singular line, where the
    gradient vanishes and _tangent_pencil gives None, keeps a bounded
    scan: it is reported when at least 2*deg + 1 distinct points on it are
    each incident to another line inside the factor, where the witnesses
    come from its crossings with the supplied family and from line search
    (entries up to DENOMINATOR_BOUND) at probe points.  On a singly ruled
    factor more than two such lines contradict the structure theory, so
    the count is asserted.
    """
    form = _form(factor)
    lattices = [_lattice(ln) for ln in lines]
    d = form_degree(form)
    result = [ln for ln, lat in zip(lines, lattices) if _is_exceptional(form, lat, lattices)]
    if d >= 2 and len(result) > 2:
        raise InvariantViolation(
            f"{len(result)} exceptional lines on a degree-{d} factor (cap is 2)"
        )
    return result


def _is_exceptional(form: Form, ln: Lattice, contained: Sequence[Lattice]) -> bool:
    """Whether a line of the factor is exceptional; only a singular line's
    verdict depends on the family, and then on it as a set, not its order."""
    pencil = _tangent_pencil(form, ln)
    if pencil is None:
        return _singular_line_scan(form, ln, contained)
    return _pencil_has_common_factor(pencil)


def _crossings(ln: Lattice, family: Iterable[Lattice]) -> set[Scaled]:
    """The scaled points where the lines of the family other than ln meet it."""
    points: set[Scaled] = set()
    for other in family:
        if other != ln:
            kind, _, at = lattice_relation(ln, other)
            if kind is RelationKind.INTERSECTING:
                points.add(lattice_point(other, *at))
    return points


def _singular_line_scan(form: Form, ln: Lattice, contained: Sequence[Lattice]) -> bool:
    """Bounded verdict on a singular line: 2*deg + 1 witness points, from its
    crossings with the other contained lines, then from line searches at
    the probe points."""
    d = form_degree(form)
    need = 2 * d + 1
    found = _crossings(ln, contained)
    for t in _probe_parameters(d):
        if len(found) >= need:
            break
        pt = lattice_point(ln, t, 1)
        if pt in found:
            continue
        if any(o != ln for o in find_lines_through_point(form, pt)):
            found.add(pt)
    return len(found) >= need


def _tangent_pencil(form: Form, ln: Lattice) -> list[Bivariate] | None:
    """The tangent pencil along a contained line, on integers; None when
    the gradient vanishes along the whole line (a singular line).  A line
    off the surface, where the expansion's order-0 part is nonzero, raises
    NotOnSurfaceError.

    With the line's lattice (k, D, B, s), X(t) = (B + t*D)/s runs over
    the line, and F(y) = den*s^deg f*f(y/s) has integer coefficients.  The
    full expansion of F(B + t*D + y) in y (_line_expansion) gives the
    gradient of F along the line (its y-linear part) and every higher
    Taylor part.  The tangent plane at X(t) is spanned by D and
    W(t) = grad F x D, so a second line through X(t) has a direction
    a*D + W(t).  The result is, for k = 2..deg f, the u^k coefficient
    c_k(t, a) of F(B + t*D + u*(a*D + W(t))); the u^0 and u^1 coefficients
    vanish since the line is contained.  c_k has a-degree at most k - 1.
    """
    _, dv, bv, s = ln
    d = form_degree(form)
    expansion, _ = _line_expansion(form, bv, dv, s, d)
    if any(expansion.get((0, 0, 0), ())):
        raise NotOnSurfaceError("line is not contained in the surface")
    # the y^a coefficient of F(B + t*D + y) is a list in t; |a| = 1 gives grad F
    zero = [0] * d
    grad = [expansion.get(a, zero) for a in _UNITS]
    cross: list[Bivariate] = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        w = [x * dv[k] - y * dv[j] for x, y in zip(grad[j], grad[k])]
        cross.append({(m, 0): x for m, x in enumerate(w) if x})
    if not any(cross):
        return None
    # powers of the pencil direction a*D_i + W_i(t), coordinate by coordinate
    dirs = [_zpowers({**w, (0, 1): v}, max(e[i] for e in form[0])) for i, (w, v) in enumerate(zip(cross, dv))]
    return _forms_along(_term_maps(expansion), dirs, 2, d)


def _pencil_has_common_factor(pencil: list[Bivariate]) -> bool:
    """Whether the c_k share a factor of positive degree in a over Q(t):
    then infinitely many points of the line carry a second line.

    If every c_k vanishes, every direction works.  Otherwise a certificate
    at a few integers t0 usually settles the common case: when some
    c_k(t0, .) keeps its a-degree and the c_j(t0, .) have a constant gcd,
    no common factor exists, since its leading coefficient in a divides
    that of c_k and so the factor would survive at t0.  Lines without such
    a point take the exact gcd of the c_k, on their integer term maps keyed
    (t, a) (zgcd.term_gcd).
    """
    cs = [c for c in pencil if c]
    if not cs:
        return True
    degrees = [max(j for _, j in c) for c in cs]
    if min(degrees) == 0:
        return False
    if len(cs) == 1:
        return True
    for t0 in (1, -1, 2, -2):
        at = []
        for c, dg in zip(cs, degrees):
            row = [0] * (dg + 1)
            for (i, j), x in c.items():
                row[dg - j] += x * t0**i
            at.append(row)
        if not any(row[0] for row in at):
            continue
        rows = [row[next(i for i, x in enumerate(row) if x) :] for row in at if any(row)]
        g = rows[0]
        for row in rows[1:]:
            g = univariate_gcd(g, row)
            if len(g) == 1:
                return False
    from .zgcd import term_gcd

    g: Bivariate = {}
    for c in cs:
        g = term_gcd(g, c)
        if not any(j for _, j in g):
            return False
    return True


class GeneratorCount(NamedTuple):
    """Number of family lines through a point, with the contained-line variant."""

    lam: int
    lam_star: int


def lambda_counts(
    factor: Poly | Form,
    p: Sequence,
    lines: Sequence[AffLine | Lattice],
    exceptional: Sequence[AffLine | Lattice] = (),
    apex: Sequence | None = None,
) -> GeneratorCount:
    """Count non-exceptional contained family lines through p.

    The factor is read as its form, lines as lattices, and p and the apex
    as scaled points: each may be a scaled pair or a vector of ints or
    Fractions.  A point or line outside R^3 raises ArityError, a scale
    q <= 0 DomainError.  At the apex of a cone the count is defined as
    zero: every generator passes through it, so it carries no information.
    """
    form, pt = _form(factor), _scaled(p)
    if apex is not None and pt == _scaled(apex):
        return GeneratorCount(0, 0)
    exc = {_lattice(ln) for ln in exceptional}
    family = [lat for lat in map(_lattice, lines) if lat not in exc]
    lam = sum(lattice_on_surface(form, family[j]) for j in lattice_incidences([pt], family)[0])
    return GeneratorCount(lam, max(0, lam - 1))


class FirstflipReport(NamedTuple):
    contained: bool
    total: int
    bound: int
    ok: bool
    points: tuple[Scaled, ...]


def check_firstflip(
    factor: Poly | Form,
    ln: AffLine | Lattice,
    lines: Sequence[AffLine | Lattice],
    exceptional: Sequence[AffLine | Lattice],
    apex: Sequence | None = None,
) -> FirstflipReport:
    """Generator-count sum along one probe line against the factor degree.

    For a probe line not inside the factor the plain counts are summed over
    its intersection points with the family, scaled points; for a contained
    probe line each count drops by one (the line itself rules through those
    points).  The sum is bounded by the factor degree; exceptional probe
    lines are rejected since the inequality says nothing about them.
    exceptional holds the family's exceptional lines (exceptional_lines),
    computed once by the caller for all its probes.  Arguments are read as
    lambda_counts reads them.
    """
    form, probe = _form(factor), _lattice(ln)
    d = form_degree(form)
    family = [lat for lat in map(_lattice, lines) if lattice_on_surface(form, lat)]
    exc = [_lattice(e) for e in exceptional]
    if probe in exc:
        raise ExceptionalLineError("generator-count sums are undefined on exceptional lines")
    contained = lattice_on_surface(form, probe)
    points = _crossings(probe, family)
    total = 0
    if contained and probe not in family:
        family.append(probe)
    for pt in points:
        counts = lambda_counts(form, pt, family, exc, apex)
        total += counts.lam_star if contained else counts.lam
    return FirstflipReport(
        contained=contained,
        total=total,
        bound=d,
        ok=total <= d,
        points=tuple(sorted(points)),
    )
