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
the expansion helpers here.  classify_component and ruled_indicator read
a factor's form and hint lattices, and every step runs on integers: the
line certificate on integer lists (its Sylvester determinant and
division are here), a quadric's inertia and every cone apex in zsolve (an
apex is a scaled point (P, q)), the full witness and its divisibility on
packed term maps in witness, and the line search (exceptional) on the
integer grid.  Each is imported where it runs, so a factor that the line
certificate rules out loads none of them.  Neither loads poly or
fractions; a Poly is built only as flecnode_polynomial's result.

Everything is exact.  Ruledness certificates obtained through the flecnode
route are certificates over the complex numbers; real verdicts are only
claimed when a real witness (a rational line, a real quadric ruling) is in
hand.
"""

from __future__ import annotations

from enum import Enum
from math import gcd, prod
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import zpoly
from .errors import ArityError, DomainError, InvariantViolation
from .zpoly import _fixed_lines, _line_expansion, form_degree

if TYPE_CHECKING:
    from .lattice import Lattice, Scaled
    from .linespace import AffLine
    from .poly import Poly
    from .zpoly import Form

# The container lives in zpoly, so a surface file is read and checked without
# this module; it is re-exported here beside the analysis of its factors.
Surface = zpoly.Surface


def _form(factor: Poly | Form) -> Form:
    """A factor's form, a Poly's or itself; the one check that it is
    trivariate (the zero form has no arity and passes)."""
    form = factor if isinstance(factor, tuple) else factor.form
    if form[0] and len(next(iter(form[0]))) != 3:
        raise ArityError("surface factors must be trivariate")
    return form


def _lattice(line: AffLine | Lattice) -> Lattice:
    """A line's lattice, an AffLine's or itself; the one check that it
    lies in R^3."""
    lat = line if isinstance(line, tuple) else line.lattice
    if len(lat[1]) != 3:
        raise ArityError(f"line of dimension {len(lat[1])}, not 3")
    return lat


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
# symbolic point (witness._taylor).
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
    This is the Poly view of witness._witness_form.
    """
    from .poly import Poly
    from .witness import _witness_form

    return Poly.from_form(3, _witness_form(_form(f)))


# -- the line certificate --------------------------------------------------


def univariate_divides(f: list[int], g: list[int]) -> bool:
    """Whether the nonzero integer polynomial f divides g over Q, both
    highest power first with leading entry nonzero ([] for zero).  By
    Gauss's lemma f's primitive part p then divides g over Z, so every step
    of g's long division by p is exact in Z."""
    c = gcd(*f)
    p = [x // c for x in f]
    while len(g) >= len(p):
        q, r = divmod(g[0], p[0])
        if r:
            return False
        g = [x - q * y for x, y in zip(g[1:], p[1:] + [0] * (len(g) - len(p)))]
        g = g[next((i for i, x in enumerate(g) if x), len(g)) :]
    return not g


def _bareiss(m: list[list], step) -> tuple[object, int]:
    """Fraction-free elimination of a square matrix over Z or Z[x], in
    place: its determinant up to the sign of the row swaps, and that sign.
    step(a, d, b, c, p) is (a*d - b*c)/p, exact; p is None at the first
    step, whose divisor is 1."""
    n, sign, prev = len(m), 1, None
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return m[k][k], sign
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = step(m[i][j], m[k][k], m[i][k], m[k][j], prev)
        prev = m[k][k]
    return m[n - 1][n - 1], sign


def univariate_determinant(mat: Sequence[Sequence[dict[int, int]]]) -> list[int]:
    """Determinant of a square matrix of integer polynomials in t, each a
    term map {power: coefficient}: its coefficients, highest power first
    with leading entry nonzero ([] for zero).

    Every coefficient of the determinant is at most the permanent of the
    entries' coefficient 1-norms, so at most the product of the row sums of
    those norms; k is one bit above it.  The entries are evaluated at
    t = 2^k, the integer determinant is taken by Bareiss elimination, and
    its balanced base-2^k digits are the coefficients.
    """
    if not mat:
        return [1]
    k = prod(sum(abs(c) for p in row for c in p.values()) for row in mat).bit_length() + 1
    m = [[sum(c << (k * e) for e, c in p.items()) for p in row] for row in mat]
    det, sign = _bareiss(m, lambda a, d, b, c, p: a * d - b * c if p is None else (a * d - b * c) // p)
    det *= sign
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while det:
        digit = ((det + half) & mask) - half
        out.append(digit)
        det = (det - digit) >> k
    return out[::-1]


def sylvester_rows(a: Sequence, b: Sequence, zero) -> list[list]:
    """The Sylvester matrix of two coefficient lists, highest power first:
    len(b) - 1 shifted rows of a above len(a) - 1 shifted rows of b, zero
    elsewhere."""
    n = len(a) + len(b) - 2
    rows = ((coeffs, i) for coeffs, shifts in ((a, len(b) - 1), (b, len(a) - 1)) for i in range(shifts))
    return [[zero] * i + list(c) + [zero] * (n - i - len(c)) for c, i in rows]


def univariate_sylvester(a: Sequence[dict[int, int]], b: Sequence[dict[int, int]]) -> list[int]:
    """univariate_determinant of the Sylvester matrix of two coefficient
    lists of term maps in t."""
    return univariate_determinant(sylvester_rows(a, b, {}))


def _certified_not_ruled(form: Form) -> bool:
    """Whether a fixed line certifies that the factor of a form, of degree
    >= 3, does not divide its flecnode witness, without building it.

    On chart c, witness._chart_eliminant's resultant is res_c = f_c^6 * W_c, built
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
    on integer coefficient lists, highest power first (the kernels above).
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


def ruled_indicator(factor: Poly | Form) -> RuledIndication:
    """Is the (factor) surface covered by lines over the complex numbers?

    Degree 1 and 2 are always ruled over C.  From degree 3 on the test is
    whether the factor divides its flecnode witness, which is always built
    here, for its degree.  A cone's witness is built at its apex, where f
    is its own top-degree part: W commutes with translation chart by
    chart, so its degree and the divisibility are f's.  classify_component
    asks the line certificate and the apex first, then tests f | W itself.
    The factor is read as its form (a Poly's, or one of Surface.forms).
    """
    form = _form(factor)
    d = form_degree(form)
    if d < 1:
        raise DomainError("constant polynomials are not surfaces")
    if d <= 2:
        return RuledIndication(indicated=True, complex_only=True, witness_degree=None)
    from .witness import _witness_form, form_quotient
    from .zsolve import _cone_apex

    if _cone_apex(form) is not None:
        form = {e: c for e, c in form[0].items() if sum(e) == d}, form[1]
    witness = _witness_form(form)
    indicated = form_quotient(witness, form) is not None
    return RuledIndication(indicated=indicated, complex_only=indicated, witness_degree=form_degree(witness))


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


def classify_component(factor: Poly | Form, hint_lines: Sequence[AffLine | Lattice] = ()) -> ClassificationResult:
    """Classify one squarefree factor of the surface.

    Quadrics are settled exactly through the inertia of the homogenized
    4x4 matrix, and a quadric cone's apex by the solve of any degree
    (_cone_apex).  From degree 3 on, the flecnode divisibility test decides
    complex ruledness in two steps: the witness restricted to a few fixed
    lines (_certified_not_ruled) settles "not ruled" without building it,
    and a factor that no line settles, every ruled one among them, takes
    the full witness unless it is a cone.  Every cone is
    ruled, so an exact apex (a point whose Taylor expansion is purely
    top-degree), found or ruled out by one integer linear solve before the
    witness whatever the hint lines, settles the cone verdict.  A singly
    ruled verdict needs a real rational line as witness: a hint line on the
    factor, else a bounded search.  The factor is read as its form (a
    Poly's, or one of Surface.forms) and hint lines as lattices, and every
    step runs on them: no Poly is built.  A hint line outside R^3 raises
    ArityError.
    """
    form = _form(factor)
    hints = [_lattice(ln) for ln in hint_lines]
    d = form_degree(form)
    if d < 1:
        raise DomainError("constant factor cannot be classified")
    if d == 1:
        return ClassificationResult(Verdict.PLANE)
    if d == 2:
        from .zsolve import _cone_apex, _quadric_matrix, symmetric_inertia

        pos, neg, _ = symmetric_inertia(_quadric_matrix(form))
        if neg > pos:
            pos, neg = neg, pos
        if (pos, neg) == (2, 2):
            return ClassificationResult(Verdict.REGULUS, complex_ruled_indicated=True)
        if (pos, neg) == (2, 1):
            apex = _cone_apex(form)
            if apex is not None:
                return ClassificationResult(
                    Verdict.CONE, apex=apex, complex_ruled_indicated=True
                )
            return ClassificationResult(
                Verdict.SINGLY_RULED,
                complex_ruled_indicated=True,
                notes="rank-3 quadric with vertex at infinity (cylinder)",
            )
        if pos + neg <= 2:
            return ClassificationResult(
                Verdict.UNKNOWN,
                complex_ruled_indicated=True,
                notes="rank<=2 quadric splits into planes over an extension field",
            )
        return ClassificationResult(Verdict.NOT_RULED_REAL, complex_ruled_indicated=True)

    if _certified_not_ruled(form):
        return ClassificationResult(Verdict.NOT_RULED_REAL, complex_ruled_indicated=False)
    from .zsolve import _cone_apex

    # every cone is ruled, so its apex settles the verdict without the witness
    apex = _cone_apex(form)
    if apex is not None:
        return ClassificationResult(Verdict.CONE, apex=apex, complex_ruled_indicated=True)
    from .witness import _witness_form, form_quotient

    if form_quotient(_witness_form(form), form) is None:
        return ClassificationResult(Verdict.NOT_RULED_REAL, complex_ruled_indicated=False)
    real_line = None
    if hints:
        from .lattice import lattice_on_surface

        real_line = next((lat for lat in hints if lattice_on_surface(form, lat)), None)
    if real_line is None:
        from .exceptional import _search_real_line

        real_line = _search_real_line(form)
    if real_line is not None:
        return ClassificationResult(Verdict.SINGLY_RULED, complex_ruled_indicated=True)
    return ClassificationResult(
        Verdict.UNKNOWN,
        complex_ruled_indicated=True,
        notes="complex ruling indicated but no rational line found",
    )
