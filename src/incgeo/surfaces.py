"""Global analysis of algebraic surfaces in R^3, factor by factor: is each
factor ruled, and how.

A Surface (defined in zpoly, re-exported here) is kept as its (known)
factorization into pairwise distinct squarefree factors; factorization is
never computed here, only consumed, and the product of the factors is
never formed.  Every analysis function takes one trivariate polynomial f,
in practice a single factor.  The module answers the first question of
the incidence machinery: does a factor admit a ruling (flecnode witness
plus divisibility, tried first on a few lines), is it a cone (its apex
comes from one integer solve), and is a ruling witnessed by a real line.
Every local question reads one integer expansion of a factor's form
(zpoly): along a line, or around a point as a line with direction zero.
The questions asked only of ruled factors (lines through a point,
exceptional lines and generator counts) live in exceptional, which reads
the expansion helpers here.  classify_component reads a factor's form and
hint lattices: quadrics, cone apexes and the line certificate run on
integers (zpoly's echelon and integer lists), and an apex is a scaled
point (P, q), so they need neither poly nor fractions, imported only for
the full witness and the line search.

Everything is exact.  Ruledness certificates obtained through the flecnode
route are certificates over the complex numbers; real verdicts are only
claimed when a real witness (a rational line, a real quadric ruling) is in
hand.
"""

from __future__ import annotations

import itertools
from enum import Enum
from math import factorial
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import zpoly
from .errors import ArityError, DegreeError, DomainError, InvariantViolation
from .zpoly import _fixed_lines, _line_expansion, echelon_point, form_degree, univariate_divides, univariate_sylvester

if TYPE_CHECKING:
    from .lattice import Lattice, Scaled
    from .linespace import AffLine
    from .poly import Poly
    from .zpoly import Form

# The container lives in zpoly, so a surface file is read and checked without
# this module; it is re-exported here beside the analysis of its factors.
Surface = zpoly.Surface

# -- the expansion around a point ---------------------------------------------


def _at_point(form: Form, point: Scaled, order: int) -> dict[tuple[int, ...], int]:
    """The Taylor parts of the form's polynomial f at the scaled point
    p = P/q up to the given order: the nonzero x^a coefficients of
    f(p + x), |a| <= order, each order times one positive integer.  A point
    is a line with direction zero (_line_expansion)."""
    pv, q = point
    expansion, _ = _line_expansion(form, pv, [0] * len(pv), q, order)
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
    from .poly import _den, _taylor, _unpack, exact_div, remove_content, sylvester_determinant

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
    from .poly import remove_content

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


def _certified_not_ruled(form: Form) -> bool:
    """Whether a fixed line certifies that the factor of a form, of degree
    >= 3, does not divide its flecnode witness, without building it.

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
    if len(next(iter(form[0]))) != 3:  # flecnode_polynomial rejects it
        return False
    d = form_degree(form)
    charts = [c for c in range(3) if any(e[c] for e in form[0])]
    for base, direction in _fixed_lines(3):
        expansion, _ = _line_expansion(form, base, direction, 1, 3)
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
    Z[t], is res_c|l up to a nonzero constant; it and the divisibility run
    on integer coefficient lists, highest power first (zpoly).
    """
    forms = _chart_forms(taylor, c)
    if forms is None:  # both forms vanish at f_i*w_i + f_j*w_j = 0, so res_c|l = 0
        return None
    res = univariate_sylvester(*forms)
    if not res:
        return None
    restricted = len(res) - 1 - 6 * max(taylor[_UNITS[c]])  # of res_c|l / f_c|l^6
    if restricted > 11 * d - 18:
        raise InvariantViolation(f"restricted flecnode witness degree {restricted} exceeds 11*{d}-18")
    on_line = taylor[0, 0, 0]
    return not univariate_divides([on_line.get(m, 0) for m in range(max(on_line), -1, -1)], res)


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
    here, for its degree.  A cone's witness is built at its apex, where f
    is its own top-degree part: W commutes with translation chart by
    chart, so its degree and the divisibility are f's.  classify_component
    asks the line certificate and the apex first, then tests f | W itself.
    """
    from .poly import Poly, divides

    d = f.degree()
    if d < 1:
        raise DomainError("constant polynomials are not surfaces")
    if d <= 2:
        return RuledIndication(indicated=True, complex_only=True, witness_degree=None)
    if f.nvars == 3 and _cone_apex(f.form) is not None:
        f = Poly(3, {e: c for e, c in f.terms.items() if sum(e) == d})
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
    apex: Scaled | None = None
    complex_ruled_indicated: bool = False
    notes: str = ""


def _quadric_matrix(form: Form) -> list[list[int]]:
    """Symmetric 4x4 matrix of the homogenized quadric, index 0 homogenizing,
    times 2*den > 0, read off its integer form: the term c*x_i*x_j adds c at
    (i, j) and at (j, i)."""
    terms, _ = form
    m = [[0] * 4 for _ in range(4)]
    for e, c in terms.items():
        if sum(e) > 2:
            raise DomainError("not a quadric")
        i, j = ([k + 1 for k, n in enumerate(e) for _ in range(n)] + [0, 0])[:2]
        m[i][j] += c
        m[j][i] += c
    return m


def symmetric_inertia(matrix: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Exact (positive, negative, zero) inertia of an integer symmetric matrix.

    Congruence diagonalization by fraction-free Schur complements: below a
    pivot p each row becomes |p|*row - sign(p)*c*pivot_row, c its entry in
    the pivot column, which leaves |p| times the Schur complement, of the
    same inertia, in the trailing block; so row operations alone walk
    through a congruence-diagonal sequence and the pivot signs give the
    inertia.
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
            c = m[j][i] if pivot > 0 else -m[j][i]
            m[j] = [abs(pivot) * a - c * b for a, b in zip(m[j], m[i])]
    return pos, neg, zero


def _cone_apex(form: Form) -> Scaled | None:
    """The apex of a cone of degree d >= 3, as a scaled point, or None when
    the factor f of the form is no cone.

    If f(p + x) is homogeneous of degree d, every (d-1)-th partial of f is
    affine-linear and vanishes at p, so p solves one linear system, taken
    term by term: c*x^e with |e| = d adds c*e! to the x_i coefficient of
    the partial D^(e - unit_i), and |e| = d - 1 adds c*e! to the constant
    of D^e.  On its solution set S each lower partial is constant, since
    its gradient is made of higher partials, which vanish on S; so one
    test at the echelon point of S (free coordinates 0) decides all of S.
    The integer numerators of the form give the system times den.
    """
    d = form_degree(form)
    rows: dict[tuple[int, ...], list[int]] = {}
    for e, c in form[0].items():
        if sum(e) < d - 1:
            continue
        weight = c * factorial(e[0]) * factorial(e[1]) * factorial(e[2])
        if sum(e) == d - 1:
            rows.setdefault(e, [0] * 4)[3] -= weight
            continue
        for i in range(3):
            if e[i]:
                rows.setdefault(e[:i] + (e[i] - 1,) + e[i + 1 :], [0] * 4)[i] += weight
    apex = echelon_point(list(rows.values()))  # None: the partials share no zero
    return apex if apex is not None and _is_cone_apex(form, apex) else None


def _is_cone_apex(form: Form, apex: Scaled) -> bool:
    """Whether f(apex + x) is homogeneous: its top part is f's own, so
    every order below the degree must vanish."""
    return not _at_point(form, apex, form_degree(form) - 1)


def classify_component(factor: Poly | Form, hint_lines: Sequence[AffLine | Lattice] = ()) -> ClassificationResult:
    """Classify one squarefree factor of the surface.

    Quadrics are settled exactly through the inertia of the homogenized
    4x4 matrix.  From degree 3 on, the flecnode divisibility test decides
    complex ruledness in two steps: the witness restricted to a few fixed
    lines (_certified_not_ruled) settles "not ruled" without building it,
    and a factor that no line settles, every ruled one among them, takes
    the full witness unless it is a cone.  Every cone is
    ruled, so an exact apex (a point whose Taylor expansion is purely
    top-degree), found or ruled out by one integer linear solve before the
    witness whatever the hint lines, settles the cone verdict.  A singly
    ruled verdict needs a real rational line as witness: a hint line on the
    factor, else a bounded search.  The factor is read as its form (a
    Poly's, or one of Surface.forms) and hint lines as lattices; the Poly
    view is built only for the full witness and the line search.
    """
    form, view = (factor, None) if isinstance(factor, tuple) else (factor.form, factor)
    hints = [ln if isinstance(ln, tuple) else ln.lattice for ln in hint_lines]
    d = form_degree(form)
    if d < 1:
        raise DomainError("constant factor cannot be classified")
    if d == 1:
        return ClassificationResult(Verdict.PLANE)
    if d == 2:
        m = _quadric_matrix(form)
        pos, neg, _ = symmetric_inertia(m)
        if neg > pos:
            pos, neg = neg, pos
        rank = pos + neg
        if rank == 4 and (pos, neg) == (2, 2):
            return ClassificationResult(Verdict.REGULUS, complex_ruled_indicated=True)
        if rank == 3 and (pos, neg) == (2, 1):
            # the kernel is one line; it holds (1, apex) iff m*(1, x) = 0 solves
            apex = echelon_point([row[1:] + [-row[0]] for row in m])
            if apex is not None:
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

    if _certified_not_ruled(form):
        return ClassificationResult(Verdict.NOT_RULED_REAL, complex_ruled_indicated=False)
    # every cone is ruled, so its apex settles the verdict without the witness
    apex = _cone_apex(form)
    if apex is not None:
        return ClassificationResult(Verdict.CONE, apex=apex, complex_ruled_indicated=True)
    from .poly import Poly, divides

    if view is None:
        view = Poly.from_form(len(next(iter(form[0]))), form)
    if not divides(view, flecnode_polynomial(view)):
        return ClassificationResult(Verdict.NOT_RULED_REAL, complex_ruled_indicated=False)
    real_line = None
    if hints:
        from .lattice import lattice_on_surface

        real_line = next((lat for lat in hints if len(lat[1]) == 3 and lattice_on_surface(form, lat)), None)
    if real_line is None:
        real_line = _search_real_line(view)
    if real_line is not None:
        return ClassificationResult(Verdict.SINGLY_RULED, complex_ruled_indicated=True)
    return ClassificationResult(
        Verdict.UNKNOWN,
        complex_ruled_indicated=True,
        notes="complex ruling indicated but no rational line found",
    )


# Entry bound of the search for one real line that witnesses a ruling.
REAL_LINE_BOUND = 5


def _search_real_line(factor: Poly) -> AffLine | None:
    """Cheap bounded search for one rational line on the factor: it looks
    only at the 125 points of the grid {0, +-1, +-2}^3 that lie on the
    factor, each with a line search of entry bound REAL_LINE_BOUND."""
    from fractions import Fraction

    from .exceptional import find_lines_through_point

    grid = [Fraction(v) for v in (0, 1, -1, 2, -2)]
    for p in itertools.product(grid, repeat=3):
        if factor.eval(p) != 0:
            continue
        lines = find_lines_through_point(factor, p, REAL_LINE_BOUND)
        if lines:
            return lines[0]
    return None
