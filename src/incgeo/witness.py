"""The full flecnode witness (_witness_form, one symbolic elimination per
chart) and exact division of forms (form_quotient), on packed term maps.
Only the witness functions read surfaces, so zgcd's content steps do not
load it, and a call that the line certificate settles loads no witness."""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING

from .errors import DegreeError, DomainError, InvariantViolation
from .zpoly import _taylor_weights, form_degree, primitive_terms

if TYPE_CHECKING:
    from .surfaces import Taylor
    from .zpoly import Exponent, Form

# The witness determinant and exact division run on integer term maps
# {packed monomial: int}.  A monomial packs into one int of `width`-bit
# fields: from the top, the total degree, then e[0], e[1], ...  Multiplying
# monomials is adding ints, and int order is graded lex order.  The width is
# one bit more than the operation's degree bound needs, so for packed m, n
# the difference m - n borrows across a field (n does not divide m) exactly
# when it is negative or shows one of those top guard bits.


def _guard(nvars: int, width: int) -> int:
    bit = 1 << (width - 1)
    return sum(bit << (i * width) for i in range(nvars + 1))


def _pack(terms: dict[Exponent, int], width: int) -> dict[int, int]:
    """The packed term map of an integer term map."""
    out = {}
    for e, c in terms.items():
        m = sum(e)
        for k in e:
            m = (m << width) | k
        out[m] = c
    return out


def _unpack(packed: dict[int, int], nvars: int, width: int) -> dict[Exponent, int]:
    """The integer term map of a packed one."""
    mask = (1 << width) - 1
    out = {}
    for m, c in packed.items():
        e = [0] * nvars
        for i in range(nvars - 1, -1, -1):
            e[i] = m & mask
            m >>= width
        out[tuple(e)] = c
    return out


def _zcross(a: dict[int, int], d: dict[int, int], b: dict[int, int], c: dict[int, int]) -> dict[int, int]:
    """a*d - b*c on packed term maps."""
    out: dict[int, int] = {}
    get = out.get
    for ea, ca in a.items():
        for ed, cd in d.items():
            e = ea + ed
            out[e] = get(e, 0) + ca * cd
    for eb, cb in b.items():
        for ec, cc in c.items():
            e = eb + ec
            out[e] = get(e, 0) - cb * cc
    return {e: v for e, v in out.items() if v}


def _zquot(g: dict[int, int], f: dict[int, int], guard: int) -> dict[int, int] | None:
    """Quotient g/f in Z[x] by division in graded lex order, or None as soon
    as a term of g's remainder shows up, that is when f does not divide g
    over Z.  f is nonzero; all monomials fit the packing behind guard."""
    import heapq

    lt_e = max(f)
    lt_c = f[lt_e]
    rest = [(e, c) for e, c in f.items() if e != lt_e]
    work = dict(g)
    heap = [-e for e in work]  # heapq pops smallest: walk graded lex from the top
    heapq.heapify(heap)
    quot = {}
    while heap:
        e = -heapq.heappop(heap)
        c = work.pop(e)
        if not c:
            continue
        q_e = e - lt_e
        if q_e < 0 or q_e & guard:
            return None
        q_c, r = divmod(c, lt_c)
        if r:
            return None
        quot[q_e] = q_c
        for fe, fc in rest:
            te = q_e + fe  # below e, so not yet popped
            prev = work.get(te)
            if prev is None:
                heapq.heappush(heap, -te)
                work[te] = -q_c * fc
            else:
                work[te] = prev - q_c * fc
    return quot


def form_quotient(g: Form, f: Form) -> Form | None:
    """The form of g/f, or None when f does not divide g.  By Gauss's
    lemma, f divides g over Q exactly when f's primitive integer part
    divides g's numerators over Z; the quotient is that one over den."""
    if not f[0]:
        raise DomainError("division by the zero polynomial")
    if not g[0]:
        return {}, 1
    d = form_degree(g)
    if form_degree(f) > d:
        return None
    nvars, width = len(next(iter(g[0]))), d.bit_length() + 1
    content = gcd(*f[0].values())
    q = _zquot(_pack(g[0], width), _pack({e: c // content for e, c in f[0].items()}, width), _guard(nvars, width))
    if q is None:
        return None
    # g/f = q * f_den / (g_den * content), reduced to the canonical form
    terms, den = {e: c * f[1] for e, c in _unpack(q, nvars, width).items()}, g[1] * content
    k = gcd(den, *terms.values())
    return {e: c // k for e, c in terms.items()}, den // k


def _taylor(form: Form, order: int, width: int) -> Taylor:
    """The Taylor data of the form's numerators at a symbolic point x, up to
    the given order: each a with |a| <= order that some term reaches maps to
    the y^a coefficient of den*f(x + y), a packed term map in x (packed at
    this width).  The term c*x^e gives c*prod comb(e_i, a_i) at
    x^(e - a)."""
    out: Taylor = {}
    for e, c in form[0].items():
        for a, weight in _taylor_weights(e, order):
            m = sum(e) - sum(a)
            for k, j in zip(e, a):
                m = (m << width) | (k - j)
            out.setdefault(a, {})[m] = c * weight
    return out


def _chart_eliminant(form: Form, c: int) -> dict[Exponent, int] | None:
    """Direction eliminant of the osculation system on one chart: the
    primitive witness terms, {} when the eliminant vanishes, or None.

    On the chart where the c-th partial is nonzero the tangency condition is
    solved for the c-th direction coordinate (after scaling the free
    coordinates by that partial, which keeps everything polynomial).  The
    second and third-order conditions become binary forms of degrees 2 and 3
    in the free direction coordinates (surfaces._chart_forms, on the Taylor
    data at a symbolic point); their resultant depends on position alone.
    Its 5x5 Sylvester determinant has degree at most 17*deg - 24, so Bareiss
    elimination, whose steps multiply two minors, runs on packed term maps
    one bit above twice that.  The scaling inflates the resultant by the
    6th power of the chart partial, and by Gauss's lemma the primitive part
    of that power divides it over Z, leaving a polynomial of degree at most
    11*deg - 18; None when it does not divide.  That every chart gives the
    same witness up to content is not proven here, and no caller relies on
    it.
    """
    from .surfaces import _UNITS, _bareiss, _chart_forms, sylvester_rows

    width = (2 * (17 * form_degree(form) - 24)).bit_length() + 1
    taylor = _taylor(form, 3, width)
    forms = _chart_forms(taylor, c)
    if forms is None:
        return None
    guard = _guard(3, width)

    def step(a, d, b, e, p):  # (a*d - b*e)/p, exact
        cross = _zcross(a, d, b, e)
        return cross if p is None else _zquot(cross, p, guard)

    res, _ = _bareiss(sylvester_rows(*forms, {}), step)
    if not res:
        return {}
    partial = taylor[_UNITS[c]]
    content = gcd(*partial.values())
    partial = {m: x // content for m, x in partial.items()}
    square = _zcross(partial, partial, {}, {})
    quotient = _zquot(res, _zcross(_zcross(square, square, {}, {}), square, {}, {}), guard)
    return None if quotient is None else primitive_terms(_unpack(quotient, 3, width))


def _witness_form(form: Form) -> Form:
    """The flecnode witness of a trivariate form of degree >= 3
    (surfaces.flecnode_polynomial) as a primitive form, from the first
    chart that gives a nonzero eliminant."""
    d = form_degree(form)
    if d < 3:
        raise DegreeError("flecnode witness needs degree >= 3")
    witness: dict[Exponent, int] | None = None
    saw_zero = False
    for c in range(3):
        result = _chart_eliminant(form, c)
        if result is None:
            continue
        if not result:
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
        witness = primitive_terms(form[0])
    degree = max(map(sum, witness))
    if degree > 11 * d - 18:
        raise InvariantViolation(f"flecnode witness degree {degree} exceeds 11*{d}-18")
    return witness, 1
