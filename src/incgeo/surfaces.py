"""Global analysis of algebraic surfaces in R^3, factor by factor.

A Surface (defined in poly, re-exported here) is kept as its (known)
factorization into pairwise distinct squarefree factors; factorization is
never computed here, only consumed, and the product of the factors is
never formed.  Every analysis function takes one trivariate polynomial f,
in practice a single factor.  The module answers the questions the
incidence machinery needs: does a factor admit a ruling (flecnode witness
plus divisibility, tried first on a few lines), is it a cone (its apex
comes from one linear solve), which lines through a point lie on the
surface (a bounded search), which lines are exceptional, and do the
generator-count sums stay below the factor degree.  Every local question
reads one integer expansion of poly: along a line, or around a point as a
line with direction zero.  Exceptionality is exact over C on non-singular
lines, read off the tangent pencil along the line; on singular lines it is
a bounded scan.

Everything is exact.  Ruledness certificates obtained through the flecnode
route are certificates over the complex numbers; real verdicts are only
claimed when a real witness (a rational line, a real quadric ruling) is in
hand.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from . import linalg, poly
from .errors import (
    ArityError,
    DegreeError,
    DomainError,
    ExceptionalLineError,
    InvariantViolation,
    NotOnSurfaceError,
)
from .linalg import Vec, to_vec
from .linespace import AffLine, RelationKind, incidence_point_line, line_on_surface, line_relation
from .poly import (
    Poly,
    _den,
    _fixed_lines,
    _line_expansion,
    _taylor,
    _unpack,
    divides,
    exact_div,
    poly_gcd,
    remove_content,
    sylvester_determinant,
    univariate_gcd,
)

# The container lives in poly, so a surface file is read and checked without
# this module; it is re-exported here beside the analysis of its factors.
Surface = poly.Surface

# -- the expansion around a point ---------------------------------------------


def _at_point(f: Poly, p: Vec, order: int) -> dict[tuple[int, ...], int]:
    """The Taylor parts of f at p up to the given order: the nonzero x^a
    coefficients of f(p + x), |a| <= order, each order times one positive
    integer.  A point is a line with direction zero (_line_expansion)."""
    s = lcm(*(c.denominator for c in p))
    base = [c.numerator * (s // c.denominator) for c in p]
    expansion, _ = _line_expansion(f, base, [0] * len(p), s, order)
    return {a: g[0] for a, g in expansion.items() if g[0]}


# -- forms along a line -------------------------------------------------------

# Taylor data: each a with |a| <= order maps to the y^a coefficient of
# f(X + y), up to one positive constant per order, as an integer term map
# {m: c} whose key is additive: the power of t along a line
# (_line_expansion, through _term_maps), or a packed monomial in x, y, z at a
# symbolic point (poly._taylor).
Taylor = dict[tuple[int, ...], dict[int, int]]
# Bivariate integer polynomials in that key and a second variable (the
# pencil parameter a, or a chart's direction coordinate w_j) are maps
# {(m, j): c} for c times the key's monomial times a^j.
Bivariate = dict[tuple[int, int], int]

_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _term_maps(expansion: dict[tuple[int, ...], list[int]]) -> Taylor:
    """An expansion along a line as Taylor data keyed by the power of t."""
    return {a: {m: x for m, x in enumerate(g) if x} for a, g in expansion.items()}


def _zmul(p: Bivariate, q: Bivariate) -> Bivariate:
    out: Bivariate = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + a * b
    return {e: c for e, c in out.items() if c}


def _zpowers(p: Bivariate, top: int) -> list[Bivariate]:
    out = [{(0, 0): 1}]
    for _ in range(top):
        out.append(_zmul(out[-1], p))
    return out


def _forms_along(taylor: Taylor, dirs: list[list[Bivariate]], low: int, high: int) -> list[Bivariate]:
    """The Taylor parts of orders low..high in a direction y whose entries
    are Bivariates: for each k, the sum over |e| = k of the y^e coefficient
    g_e of the Taylor data times prod_i y_i^e_i, where dirs[i] lists the
    powers of y_i."""
    out: list[Bivariate] = [{} for _ in range(low, high + 1)]
    for a, g in taylor.items():
        if low <= sum(a) <= high:
            term: Bivariate | None = None
            for i in range(3):
                if a[i]:
                    term = dirs[i][a[i]] if term is None else _zmul(term, dirs[i][a[i]])
            acc = out[sum(a) - low]
            for (i, j), y in term.items():  # times g
                for m, x in g.items():
                    acc[i + m, j] = acc.get((i + m, j), 0) + x * y
    return [{e: c for e, c in ck.items() if c} for ck in out]


# -- flecnode witness -------------------------------------------------------


def _chart_forms(taylor: Taylor, c: int) -> tuple[list[dict[int, int]], ...] | None:
    """The osculation system's binary forms of degrees 2 and 3 on the chart
    where the c-th partial f_c is nonzero, or None when f_c vanishes.

    With the chart's direction v_i = f_c*w_i, v_j = f_c*w_j,
    v_c = -(f_i*w_i + f_j*w_j), which is tangent for every w, _forms_along
    gives the second and third-order parts of f in direction v as binary
    forms in w.  Each is a full coefficient list, highest power of w_i first
    and zeros included, of term maps in the Taylor data's key; so a common
    root at (1:0) stays visible to the formal Sylvester matrix.  Both the
    full witness and its restriction to a line read these forms, so
    restricting the key to a line commutes with building them.
    """
    i, j = (k for k in range(3) if k != c)
    grad = [taylor.get(u, {}) for u in _UNITS]
    if not grad[c]:
        return None
    lin: list[Bivariate] = [{}, {}, {}]
    lin[i] = {(m, 0): x for m, x in grad[c].items()}
    lin[j] = {(m, 1): x for m, x in grad[c].items()}
    lin[c] = {(m, k): -x for k, g in ((0, grad[i]), (1, grad[j])) for m, x in g.items()}
    g2, g3 = _forms_along(taylor, [_zpowers(v, 3) for v in lin], 2, 3)
    return tuple([{m: x for (m, k), x in g.items() if k == n} for n in range(deg + 1)] for g, deg in ((g2, 2), (g3, 3)))


def _chart_eliminant(f: Poly, c: int) -> Poly | None:
    """Direction eliminant of the osculation system on one chart.

    On the chart where the c-th partial is nonzero the tangency condition is
    solved for the c-th direction coordinate (after scaling the free
    coordinates by that partial, which keeps everything polynomial).  The
    second and third-order conditions become binary forms of degrees 2 and 3
    in the free direction coordinates (_chart_forms, on the Taylor data at a
    symbolic point); their resultant depends on position alone.  The
    scaling inflates the resultant by the 6th power of the chart partial,
    which is divided back out, leaving a polynomial of degree at most
    11*deg - 18.  That every chart gives the same witness up to content is
    not proven here, and no caller relies on it.
    """
    # the forms have degree at most 4*deg - 6, so every exponent fits a field
    width = (4 * f.degree()).bit_length()
    forms = _chart_forms(_taylor(f, 3, width, _den((f,))), c)
    if forms is None:
        return None
    a, b = ([_unpack(t, 3, width, 1) for t in form] for form in forms)
    res = sylvester_determinant(a, b, 3)
    if res.is_zero:
        return res
    try:
        witness = exact_div(res, f.diff(c) ** 6)
    except DomainError:  # the rescaling does not divide on this chart
        return None
    return remove_content(witness)


def flecnode_polynomial(f: Poly) -> Poly:
    """Polynomial witness for the osculating-line locus of a degree >= 3 surface.

    At a flecnode some tangent direction osculates to third order: the
    first, second and third directional derivatives all vanish there.  The
    witness is the eliminant of that direction system; it vanishes at every
    flecnode and at every singular point, has degree at most 11*deg - 18,
    and the surface is ruled-indicated (over the complex numbers) exactly
    when the surface polynomial divides it.

    In the completely degenerate situation where the eliminant vanishes
    identically (every point of space carries an osculating direction) the
    surface polynomial itself is returned, which keeps that equivalence.
    """
    if f.nvars != 3:
        raise ArityError("flecnode witness is defined for trivariate surfaces")
    d = f.degree()
    if d < 3:
        raise DegreeError("flecnode witness needs degree >= 3")
    witness: Poly | None = None
    saw_zero = False
    for c in range(3):
        result = _chart_eliminant(f, c)
        if result is None:
            continue
        if result.is_zero:
            saw_zero = True
            continue
        witness = result
        break
    if witness is None:
        # either every chart degenerated to zero (totally osculating surface)
        # or no chart admitted the exact rescaling; the surface itself is the
        # honest fallback witness in the first case and there is no second
        # case for surfaces with a nonzero gradient somewhere
        if not saw_zero:
            raise InvariantViolation("no chart produced a direction eliminant")
        witness = remove_content(f)
    if witness.degree() > 11 * d - 18:
        raise InvariantViolation(
            f"flecnode witness degree {witness.degree()} exceeds 11*{d}-18"
        )
    return witness


def _certified_not_ruled(f: Poly) -> bool:
    """Whether one of the fixed lines certifies that a factor of degree
    >= 3 does not divide its flecnode witness, without building it.

    On chart c, _chart_eliminant's resultant is res_c = f_c^6 * W_c, built
    from _chart_forms, and restricting x to a line l commutes with every
    step of it: the forms come from the one builder, on the Taylor data at a
    symbolic point or along l, and the Sylvester determinant commutes with
    evaluation.  So if f divides W_c, then f|l divides res_c|l.  A line
    certifies "not ruled" when, on every chart whose partial f_c is nonzero,
    res_c|l is nonzero and f|l does not divide it: whichever chart
    flecnode_polynomial takes, its witness is then nonzero and f does not
    divide it.  This does not rest on the charts giving one witness.  A line
    where f is constant or some res_c|l vanishes says nothing, and the next
    line is tried.  A line where f|l divides some res_c|l, as on every ruled
    factor, ends the test, and the factor takes the full witness.  The
    11*deg - 18 cap is enforced on the restricted witness
    res_c|l / f_c|l^6.
    """
    if f.nvars != 3:  # flecnode_polynomial rejects it
        return False
    d = f.degree()
    charts = [c for c in range(3) if f.degree_in(c)]
    for base, direction in _fixed_lines(3):
        expansion, _ = _line_expansion(f, base, direction, 1, 3)
        if not any(expansion[0, 0, 0][1:]):
            continue
        taylor = _term_maps(expansion)
        # the first chart that does not rule f out decides the line
        outcomes = (_chart_rules_out(d, taylor, c) for c in charts)
        verdict = next((v for v in outcomes if v is not True), True)
        if verdict is not None:
            return verdict
    return False


def _chart_rules_out(d: int, taylor: Taylor, c: int) -> bool | None:
    """True when res_c|l is nonzero and f|l does not divide it (see
    _certified_not_ruled), False when f|l divides it and None when it is
    zero.

    The Taylor data of f along l = B + t*D (_line_expansion to order 3,
    keyed by the power of t) gives, up to one constant for each order, f|l,
    the gradient on l and the second and third-order forms.  The Sylvester
    determinant of the chart's binary forms (_chart_forms), coefficients in
    Z[t], is res_c|l up to a nonzero constant.
    """
    forms = _chart_forms(taylor, c)
    if forms is None:  # both forms vanish at f_i*w_i + f_j*w_j = 0, so res_c|l = 0
        return None
    a, b = ([Poly(1, {(m,): x for m, x in t.items()}) for t in form] for form in forms)
    res = sylvester_determinant(a, b, 1)
    if res.is_zero:
        return None
    restricted = res.degree() - 6 * max(taylor[_UNITS[c]])  # of res_c|l / f_c|l^6
    if restricted > 11 * d - 18:
        raise InvariantViolation(f"restricted flecnode witness degree {restricted} exceeds 11*{d}-18")
    return not divides(Poly(1, {(m,): x for m, x in taylor[0, 0, 0].items()}), res)


class RuledIndication(NamedTuple):
    """Outcome of the ruledness test.

    complex_only notes that the certificate lives over the complex numbers;
    a real ruling needs a separate real witness.
    """

    indicated: bool
    complex_only: bool
    witness_degree: int | None = None


def ruled_indicator(f: Poly) -> RuledIndication:
    """Is the (factor) surface covered by lines over the complex numbers?

    Degree 1 and 2 are always ruled over C.  From degree 3 on the test is
    whether the factor divides its flecnode witness, which is always built
    here, for its degree.  classify_component asks the line certificate
    (_certified_not_ruled) first and comes here only when no line decides.
    """
    d = f.degree()
    if d < 1:
        raise DomainError("constant polynomials are not surfaces")
    if d <= 2:
        return RuledIndication(indicated=True, complex_only=True, witness_degree=None)
    witness = flecnode_polynomial(f)
    indicated = divides(f, witness)
    return RuledIndication(
        indicated=indicated, complex_only=indicated, witness_degree=witness.degree()
    )


# -- component classification -----------------------------------------------


class Verdict(Enum):
    PLANE = "Plane"
    REGULUS = "Regulus"
    CONE = "Cone"
    SINGLY_RULED = "SinglyRuled"
    NOT_RULED_REAL = "NotRuledReal"
    UNKNOWN = "Unknown"


RULED_VERDICTS = frozenset({Verdict.REGULUS, Verdict.CONE, Verdict.SINGLY_RULED})


class ClassificationResult(NamedTuple):
    verdict: Verdict
    apex: Vec | None = None
    complex_ruled_indicated: bool = False
    notes: str = ""


def _quadric_matrix(f: Poly) -> list[list[Fraction]]:
    """Symmetric 4x4 matrix of the homogenized quadric, index 0 homogenizing."""
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for e, c in f.terms.items():
        support = [i for i, k in enumerate(e) if k]
        total = sum(e)
        if total == 0:
            m[0][0] += c
        elif total == 1:
            i = support[0] + 1
            m[0][i] += c / 2
            m[i][0] += c / 2
        elif total == 2 and len(support) == 1:
            i = support[0] + 1
            m[i][i] += c
        elif total == 2:
            i, j = support[0] + 1, support[1] + 1
            m[i][j] += c / 2
            m[j][i] += c / 2
        else:
            raise DomainError("not a quadric")
    return m


def symmetric_inertia(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
    """Exact (positive, negative, zero) inertia of a rational symmetric matrix.

    Congruence diagonalization by Schur complements: eliminating below a
    pivot row leaves exactly the Schur complement in the trailing block, so
    row operations alone walk through a congruence-diagonal sequence and the
    pivot signs give the inertia.
    """
    n = len(matrix)
    m = [list(row) for row in matrix]
    pos = neg = zero = 0
    for i in range(n):
        if m[i][i] == 0:
            j = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if j is not None:
                for row in m:
                    row[i], row[j] = row[j], row[i]
                m[i], m[j] = m[j], m[i]
            else:
                j = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if j is None:
                    zero += 1
                    continue
                # congruence by adding the j-th basis vector to the i-th:
                # the new diagonal entry is 2*m[i][j] since m[j][j] = 0
                for row in m:
                    row[i] += row[j]
                m[i] = [a + b for a, b in zip(m[i], m[j])]
        pivot = m[i][i]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if m[j][i] != 0:
                c = m[j][i] / pivot
                m[j] = [a - c * b for a, b in zip(m[j], m[i])]
    return pos, neg, zero


def _cone_apex(f: Poly) -> Vec | None:
    """The apex of a cone of degree d >= 3, or None when f is no cone.

    If f(p + x) is homogeneous of degree d, every (d-1)-th partial of f is
    affine-linear and vanishes at p, so p solves one linear system, taken
    term by term: c*x^e with |e| = d adds c*e! to the x_i coefficient of
    the partial D^(e - unit_i), and |e| = d - 1 adds c*e! to the constant
    of D^e.  On its solution set S each lower partial is constant, since
    its gradient is made of higher partials, which vanish on S; so one
    test at the rref point of S (free coordinates 0) decides all of S.
    """
    d = f.degree()
    rows: dict[tuple[int, ...], list[Fraction]] = {}
    for e, c in f.terms.items():
        if sum(e) < d - 1:
            continue
        weight = c * factorial(e[0]) * factorial(e[1]) * factorial(e[2])
        if sum(e) == d - 1:
            rows.setdefault(e, [Fraction(0)] * 4)[3] -= weight
            continue
        for i in range(3):
            if e[i]:
                rows.setdefault(e[:i] + (e[i] - 1,) + e[i + 1 :], [Fraction(0)] * 4)[i] += weight
    apex = [Fraction(0)] * 3
    for row in linalg.rref(list(rows.values())):
        pivot = next((j for j in range(3) if row[j]), None)
        if pivot is None:  # 0 = 1: the partials share no zero
            return None
        apex[pivot] = row[3]
    return tuple(apex) if _is_cone_apex(f, apex) else None


def _is_cone_apex(f: Poly, apex: Sequence) -> bool:
    """Whether f(apex + x) is homogeneous: its top part is f's own, so
    every order below the degree must vanish."""
    return not _at_point(f, to_vec(apex), f.degree() - 1)


def classify_component(factor: Poly, hint_lines: Sequence[AffLine] = ()) -> ClassificationResult:
    """Classify one squarefree factor of the surface.

    Quadrics are settled exactly through the inertia of the homogenized
    4x4 matrix.  From degree 3 on, the flecnode divisibility test decides
    complex ruledness in two steps: the witness restricted to a few fixed
    lines (_certified_not_ruled) settles "not ruled" without building it,
    and a factor that no line settles, every ruled one among them, takes
    the full witness (ruled_indicator).  A cone verdict also needs an
    exact apex (a point whose Taylor expansion is purely top-degree), found
    or ruled out by one linear solve whatever the hint lines, and a singly
    ruled verdict needs a real rational line as witness: a hint line on the
    factor, else a bounded search.
    """
    d = factor.degree()
    if d < 1:
        raise DomainError("constant factor cannot be classified")
    if d == 1:
        return ClassificationResult(Verdict.PLANE)
    if d == 2:
        m = _quadric_matrix(factor)
        pos, neg, _ = symmetric_inertia(m)
        if neg > pos:
            pos, neg = neg, pos
        rank = pos + neg
        if rank == 4 and (pos, neg) == (2, 2):
            return ClassificationResult(Verdict.REGULUS, complex_ruled_indicated=True)
        if rank == 3 and (pos, neg) == (2, 1):
            kernel = linalg.nullspace(m)
            k = kernel[0]
            if k[0] != 0:
                apex = tuple(c / k[0] for c in k[1:])
                return ClassificationResult(
                    Verdict.CONE, apex=apex, complex_ruled_indicated=True
                )
            return ClassificationResult(
                Verdict.SINGLY_RULED,
                complex_ruled_indicated=True,
                notes="rank-3 quadric with vertex at infinity (cylinder)",
            )
        if rank <= 2:
            return ClassificationResult(
                Verdict.UNKNOWN,
                complex_ruled_indicated=True,
                notes="rank<=2 quadric splits into planes over an extension field",
            )
        return ClassificationResult(Verdict.NOT_RULED_REAL, complex_ruled_indicated=True)

    if _certified_not_ruled(factor):
        return ClassificationResult(Verdict.NOT_RULED_REAL, complex_ruled_indicated=False)
    indication = ruled_indicator(factor)
    if not indication.indicated:
        return ClassificationResult(Verdict.NOT_RULED_REAL, complex_ruled_indicated=False)
    apex = _cone_apex(factor)
    if apex is not None:
        return ClassificationResult(Verdict.CONE, apex=apex, complex_ruled_indicated=True)
    real_line = next(
        (ln for ln in hint_lines if ln.dim == 3 and line_on_surface(factor, ln)), None
    )
    if real_line is None:
        real_line = _search_real_line(factor)
    if real_line is not None:
        return ClassificationResult(Verdict.SINGLY_RULED, complex_ruled_indicated=True)
    return ClassificationResult(
        Verdict.UNKNOWN,
        complex_ruled_indicated=True,
        notes="complex ruling indicated but no rational line found",
    )


def _search_real_line(factor: Poly) -> AffLine | None:
    """Cheap bounded search for one rational line on the factor: it looks
    only at the 125 points of the grid {0, +-1, +-2}^3 that lie on the
    factor, each with a line search of entry bound REAL_LINE_BOUND."""
    grid = [Fraction(v) for v in (0, 1, -1, 2, -2)]
    for p in itertools.product(grid, repeat=3):
        if factor.eval(p) != 0:
            continue
        lines = find_lines_through_point(factor, p, REAL_LINE_BOUND)
        if lines:
            return lines[0]
    return None


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
# Entry bound of the search for one real line that witnesses a ruling.
REAL_LINE_BOUND = 5


def find_lines_through_point(
    factor: Poly, p: Sequence, denominator_bound: int = DENOMINATOR_BOUND
) -> list[AffLine]:
    """All lines through p inside Z(factor) with small integer directions.

    Sound and complete for directions admitting a primitive integer
    representative with entries bounded by denominator_bound; lines whose
    direction needs larger integers are not searched for.  At non-singular
    points the search is an integer walk over the tangent lattice, still
    complete inside the box: two coordinates of a direction run over the
    box, and the gradient, scaled to integers, fixes the third (where the
    gradient is largest).  Each primitive direction found is tested once.
    At singular points every primitive direction in the box is tested.
    """
    if factor.nvars != 3:
        raise ArityError("line search works on trivariate factors")
    if factor.degree() < 1:
        raise DomainError("line search needs a non-constant factor")
    if denominator_bound < 1:
        raise DomainError("denominator bound must be >= 1")
    pt = to_vec(p)
    # factor(pt + t v) = sum_k t^k c_k(v), c_k the degree-k Taylor part; c_0 = 0
    # and c_1(v) = grad . v; each c_k comes as one positive integer multiple
    parts = _at_point(factor, pt, factor.degree())
    if (0, 0, 0) in parts:
        raise NotOnSurfaceError(f"point {tuple(pt)} is not on the surface")
    g = [parts.get(u, 0) for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    orders = ([(c, e) for e, c in parts.items() if sum(e) == k] for k in range(2, factor.degree() + 1))
    int_coeffs = sorted((terms for terms in orders if terms), key=len)
    found: set[AffLine] = set()

    def check_dir(v: tuple[int, int, int]) -> None:
        for terms in int_coeffs:
            if _eval_terms(terms, v) != 0:
                return
        found.add(AffLine(pt, [Fraction(c) for c in v]))

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
                first = next(x for x in raw if x)
                if first < 0:
                    k = -k
                prim = tuple(x // k for x in raw)
                if prim not in seen:
                    seen.add(prim)
                    check_dir(prim)  # type: ignore[arg-type]
    else:
        for v in _primitive_dirs(denominator_bound):
            check_dir(v)

    lines = sorted(found, key=lambda ln: (ln.direction, ln.base))
    for ln in lines:
        if not line_on_surface(factor, ln):  # pragma: no cover - guards check_dir
            raise InvariantViolation("line search returned a non-contained line")
    return lines


# -- exceptional lines and generator counts ----------------------------------


def _probe_parameters(d: int) -> list[Fraction]:
    """Deterministic probe parameters along a line.

    Plain integers catch linearly spaced incidences; the square values catch
    rulings whose parametrization meets a fixed line quadratically, which is
    how generators meet the singular line of the canonical ruled cubic.
    """
    out: list[Fraction] = [Fraction(0)]
    top = 2 * d + 1
    for k in range(1, top + 1):
        out.extend((Fraction(k), Fraction(-k)))
    for k in range(2, top + 1):
        out.extend((Fraction(k * k), Fraction(-k * k)))
    seen = set()
    uniq = []
    for t in out:
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    return uniq


def exceptional_lines(factor: Poly, lines: Sequence[AffLine]) -> list[AffLine]:
    """Lines of the family meeting other lines of the factor along their length.

    Every line of the family must lie on the factor; one that does not
    raises NotOnSurfaceError.  On a non-singular line the answer is exact
    over C: the line is exceptional iff the tangent pencil along it
    (_tangent_pencil) has a common factor in the pencil direction, so
    infinitely many of its points carry a second line of the factor,
    whatever their entries.  A singular line, where the gradient vanishes
    and _tangent_pencil gives None, keeps a bounded scan: it is reported
    when at least 2*deg + 1 distinct points on it are each incident to
    another line inside the factor, where the witnesses come from its
    crossings with the supplied family and from line search (entries up to
    DENOMINATOR_BOUND) at probe points.  On a singly ruled factor more than
    two such lines contradict the structure theory, so the count is
    asserted.
    """
    d = factor.degree()
    result = [ln for ln in lines if _is_exceptional(factor, ln, lines)]
    if d >= 2 and len(result) > 2:
        raise InvariantViolation(
            f"{len(result)} exceptional lines on a degree-{d} factor (cap is 2)"
        )
    return result


def _is_exceptional(factor: Poly, ln: AffLine, contained: Sequence[AffLine]) -> bool:
    """Whether a line of the factor is exceptional; only a singular line's
    verdict depends on the family, and then on it as a set, not its order."""
    pencil = _tangent_pencil(factor, ln)
    if pencil is None:
        return _singular_line_scan(factor, ln, contained)
    return _pencil_has_common_factor(pencil)


def _crossings(ln: AffLine, family: Iterable[AffLine]) -> set[Vec]:
    """The points where the lines of the family other than ln meet it."""
    points: set[Vec] = set()
    for other in family:
        if other != ln:
            rel = line_relation(ln, other)
            if rel.kind is RelationKind.INTERSECTING:
                points.add(rel.point)
    return points


def _singular_line_scan(factor: Poly, ln: AffLine, contained: Sequence[AffLine]) -> bool:
    """Bounded verdict on a singular line: 2*deg + 1 witness points, from its
    crossings with the other contained lines, then from line searches at
    the probe points."""
    need = 2 * factor.degree() + 1
    found = _crossings(ln, contained)
    for t in _probe_parameters(factor.degree()):
        if len(found) >= need:
            break
        pt = ln.point_at(t)
        if pt in found:
            continue
        if any(o != ln for o in find_lines_through_point(factor, pt)):
            found.add(pt)
    return len(found) >= need


def _tangent_pencil(f: Poly, ln: AffLine) -> list[Bivariate] | None:
    """The tangent pencil along a contained line, on integers; None when
    the gradient vanishes along the whole line (a singular line).  A line
    off the surface, where the expansion's order-0 part is nonzero, raises
    NotOnSurfaceError.

    With the line's lattice data (D, B, s), X(t) = (B + t*D)/s runs over
    the line, and F(y) = den*s^deg f*f(y/s) has integer coefficients.  The
    full expansion of F(B + t*D + y) in y (_line_expansion) gives the
    gradient of F along the line (its y-linear part) and every higher
    Taylor part.  The tangent plane at X(t) is spanned by D and
    W(t) = grad F x D, so a second line through X(t) has a direction
    a*D + W(t).  The result is, for k = 2..deg f, the u^k coefficient
    c_k(t, a) of F(B + t*D + u*(a*D + W(t))); the u^0 and u^1 coefficients
    vanish since the line is contained.  c_k has a-degree at most k - 1.
    """
    if f.nvars != ln.dim:
        raise ArityError("polynomial arity and line dimension differ")
    _, dv, bv, s = ln.lattice
    d = f.degree()
    expansion, _ = _line_expansion(f, bv, dv, s, d)
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
    dirs = [_zpowers({**w, (0, 1): v}, f.degree_in(i)) for i, (w, v) in enumerate(zip(cross, dv))]
    return _forms_along(_term_maps(expansion), dirs, 2, d)


def _pencil_has_common_factor(pencil: list[Bivariate]) -> bool:
    """Whether the c_k share a factor of positive degree in a over Q(t):
    then infinitely many points of the line carry a second line.

    If every c_k vanishes, every direction works.  Otherwise a certificate
    at a few integers t0 usually settles the common case: when some
    c_k(t0, .) keeps its a-degree and the c_j(t0, .) have a constant gcd,
    no common factor exists, since its leading coefficient in a divides
    that of c_k and so the factor would survive at t0.  Lines without such
    a point take the exact bivariate gcd.
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
    g = Poly.zero(2)
    for c in cs:
        g = poly_gcd(g, Poly(2, {e: Fraction(x) for e, x in c.items()}))
        if g.degree_in(1) == 0:
            return False
    return True


class GeneratorCount(NamedTuple):
    """Number of family lines through a point, with the contained-line variant."""

    lam: int
    lam_star: int


def lambda_counts(
    factor: Poly,
    p: Sequence,
    lines: Sequence[AffLine],
    exceptional: Sequence[AffLine] = (),
    apex: Sequence | None = None,
) -> GeneratorCount:
    """Count non-exceptional contained family lines through p.

    At the apex of a cone the count is defined as zero: every generator
    passes through it, so it carries no information.
    """
    pt = to_vec(p)
    if apex is not None and pt == to_vec(apex):
        return GeneratorCount(0, 0)
    exc = set(exceptional)
    lam = 0
    for ln in lines:
        if ln in exc:
            continue
        if incidence_point_line(pt, ln) and line_on_surface(factor, ln):
            lam += 1
    return GeneratorCount(lam, max(0, lam - 1))


class FirstflipReport(NamedTuple):
    contained: bool
    total: int
    bound: int
    ok: bool
    points: tuple[Vec, ...]


def check_firstflip(
    factor: Poly,
    ln: AffLine,
    lines: Sequence[AffLine],
    exceptional: Sequence[AffLine],
    apex: Sequence | None = None,
) -> FirstflipReport:
    """Generator-count sum along one probe line against the factor degree.

    For a probe line not inside the factor the plain counts are summed over
    its intersection points with the family; for a contained probe line each
    count drops by one (the line itself rules through those points).  The
    sum is bounded by the factor degree; exceptional probe lines are
    rejected since the inequality says nothing about them.  exceptional
    holds the family's exceptional lines (exceptional_lines), computed
    once by the caller for all its probes.
    """
    d = factor.degree()
    family = [l for l in lines if line_on_surface(factor, l)]
    if ln in exceptional:
        raise ExceptionalLineError("generator-count sums are undefined on exceptional lines")
    contained = line_on_surface(factor, ln)
    points = _crossings(ln, family)
    total = 0
    all_lines = list(family)
    if contained and ln not in all_lines:
        all_lines.append(ln)
    for pt in points:
        counts = lambda_counts(factor, pt, all_lines, exceptional, apex)
        total += counts.lam_star if contained else counts.lam
    ordered = tuple(sorted(points))
    return FirstflipReport(
        contained=contained,
        total=total,
        bound=d,
        ok=total <= d,
        points=ordered,
    )
