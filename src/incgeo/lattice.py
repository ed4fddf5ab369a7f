"""Integer forms of points and lines, their kernels, and their file strings.

A point is its scaled pair (P, q), P/q with q > 0 and gcd 1; a line its
lattice (k, D, B, s): pivot k, primitive direction D with D[k] > 0, base
B/s with B[k] = 0.  Both are canonical, so equal points or lines have
equal tuples.  P/q lies on the line iff s*(P_i*D_k - P_k*D_i) = q*D_k*B_i
for every i, and the point at parameter n/d is (B*d*D_k + n*s*D)/(s*d*D_k).
In R^3 two lines are coplanar iff their Plucker coordinates' reciprocal
product vanishes; in R^d line b meets line a iff b's direction and base
offset, reduced against a's pivot, are proportional, and the reduced
vector's flat key (primitive, positive lead entry) keys the 2-flat they
span.  The module imports no fractions; the ruled-factor analysis
(surfaces, exceptional) reads lines and points in these forms, and
linespace builds the Fraction views (Vec points and AffLine) and their
predicates on top of it for library callers.
"""

from __future__ import annotations

import re
from collections import defaultdict
from enum import Enum
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import ArityError, DegenerateLineError, ParseError

if TYPE_CHECKING:
    from .zpoly import Form

# (pivot, integer direction, integer base, base scale) of a line
Lattice = tuple[int, tuple[int, ...], tuple[int, ...], int]
# (integer numerators, common denominator) of a point
Scaled = tuple[tuple[int, ...], int]


class RelationKind(Enum):
    EQUAL = "equal"
    PARALLEL = "parallel"
    INTERSECTING = "intersecting"
    SKEW = "skew"


def scaled_form(v: Sequence) -> Scaled:
    """(V, q) with v = V/q for Fractions v: q is their denominators' lcm."""
    q = lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (q // c.denominator) for c in v), q


def _flat_key(v: list[int]) -> tuple[int, ...]:
    """The primitive integer vector on v's ray with a positive lead entry."""
    g = gcd(*v)
    if next(c for c in v if c) < 0:
        g = -g
    return tuple(c // g for c in v)


def reduced_form(v: Sequence[int], q: int) -> Scaled:
    """The scaled form of V/q, for integers V and q != 0."""
    g = gcd(q, *v)
    if q < 0:
        g = -g
    return tuple(c // g for c in v), q // g


def line_lattice(direction: Sequence[int], base: Sequence[int], scale: int) -> Lattice:
    """The lattice of the line base/scale + t*direction, for integers with
    direction and scale nonzero: the direction made a flat key, and the
    base slid along it to 0 at the pivot."""
    dv = _flat_key(direction)
    k = next(i for i, c in enumerate(dv) if c)
    dk, bk = dv[k], base[k]
    bv, s = reduced_form([b * dk - bk * d for b, d in zip(base, dv)], scale * dk)
    return k, dv, bv, s


def lattice_point(line: Lattice, n: int, d: int) -> Scaled:
    """The scaled point of the line at parameter n/d, d != 0, counted as
    AffLine.point_at counts it: B/s + (n/d)*D/D[k]."""
    k, dv, bv, s = line
    return reduced_form([b * d * dv[k] + n * s * c for b, c in zip(bv, dv)], s * d * dv[k])


def lattice_incidences(points: Sequence[Scaled], lines: Sequence[Lattice]) -> tuple[tuple[int, ...], ...]:
    """For each point, the ascending indices of the lines through it: each
    line's equations above, i other than k, with coefficients read once."""
    equations = [
        (k, s * dv[k], [(i, s * d, dv[k] * b) for i, (d, b) in enumerate(zip(dv, bv)) if i != k])
        for k, dv, bv, s in lines
    ]
    out = []
    for pv, q in points:
        through = []
        for j, (k, sdk, rows) in enumerate(equations):
            pk = pv[k]
            for i, sd, dkb in rows:
                if sdk * pv[i] - sd * pk != q * dkb:
                    break
            else:
                through.append(j)
        out.append(tuple(through))
    return tuple(out)


def lattice_relation(
    a: Lattice, b: Lattice
) -> tuple[RelationKind, tuple[int, ...] | None, tuple[int, int] | None]:
    """How line b sits against line a, from b's direction and b's base
    minus a's, reduced against a, all in integers.  Returns the kind; for
    coplanar distinct lines, the key of the 2-flat they span (the reduced
    direction, or for parallel lines the reduced offset, made a flat key);
    and for intersecting lines, the unreduced integer pair n, d with
    b.point_at(n/d) on a, which coplanar_partners never reads.
    """
    k, da, ba, sa = a
    kb, db, bb, sb = b
    if len(da) != len(db):
        raise ArityError("lines live in different dimensions")
    dk = da[k]
    # sa*sb*dk times the reduced offset; zero at k, where a's base is 0
    wk = bb[k] * sa
    if da == db:  # primitive with positive pivot entry, so equal iff parallel
        offset = [(y * sa - x * sb) * dk - wk * d for x, y, d in zip(ba, bb, da)]
        if not any(offset):
            return RelationKind.EQUAL, None, None
        return RelationKind.PARALLEL, _flat_key(offset), None
    # db[kb]*dk times the reduced direction is the turn; it is nonzero, as
    # the directions differ.  b meets a iff offset + s*turn = 0 for some s,
    # tested entry by entry, so most skew pairs stop within a few entries.
    tk = db[k]
    tj = oj = 0
    for x, y, d, c in zip(ba, bb, da, db):
        t = c * dk - tk * d
        o = (y * sa - x * sb) * dk - wk * d
        if tj:
            if o * tj != oj * t:
                return RelationKind.SKEW, None, None
        elif t:
            tj, oj = t, o
        elif o:
            return RelationKind.SKEW, None, None
    turn = [c * dk - tk * d for c, d in zip(db, da)]
    return RelationKind.INTERSECTING, _flat_key(turn), (-oj * db[kb], sa * sb * tj)


def coplanar_partners(lines: Sequence[Lattice]) -> Iterator[tuple[list[list[int]], list[int]]]:
    """For each line a in order: the indices of its later coplanar partners,
    grouped by the 2-flat they span with a, and of its later equal lines.
    Each unordered pair is tested once: in R^d, d > 3, by lattice_relation;
    in R^3 by one product and no call, as B/s + t*D has Plucker coordinates
    (s*D, M = B x D) up to s, computed once, and two lines are coplanar iff
    s_a*D_a.M_b + s_b*D_b.M_a = 0.  Their plane is keyed by its primitive
    normal: D_a x D_b, or s_a*M_b - s_b*M_a, zero iff equal, for D_a = D_b."""
    plucker = None
    if all(len(lat[1]) == 3 for lat in lines):
        plucker = [
            (s * d0, s * d1, s * d2, b1 * d2 - b2 * d1, b2 * d0 - b0 * d2, b0 * d1 - b1 * d0)
            for _, (d0, d1, d2), (b0, b1, b2), s in lines
        ]
    for i, a in enumerate(lines):
        groups: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
        equal: list[int] = []
        if plucker is None:
            for j in range(i + 1, len(lines)):
                kind, key, _ = lattice_relation(a, lines[j])
                if key is not None:
                    groups[key].append(j)
                elif kind is RelationKind.EQUAL:
                    equal.append(j)
        else:
            _, (d0, d1, d2), _, sa = a
            u0, u1, u2, m0, m1, m2 = plucker[i]
            for j, (v0, v1, v2, n0, n1, n2) in enumerate(plucker[i + 1 :], i + 1):
                if u0 * n0 + u1 * n1 + u2 * n2 + v0 * m0 + v1 * m1 + v2 * m2:
                    continue
                _, (e0, e1, e2), _, sb = lines[j]
                if (e0, e1, e2) == (d0, d1, d2):
                    x, y, z = sa * n0 - sb * m0, sa * n1 - sb * m1, sa * n2 - sb * m2
                else:
                    x, y, z = d1 * e2 - d2 * e1, d2 * e0 - d0 * e2, d0 * e1 - d1 * e0
                if x or y or z:
                    g = gcd(x, y, z) if (x or y or z) > 0 else -gcd(x, y, z)
                    groups[x // g, y // g, z // g].append(j)
                else:
                    equal.append(j)
        yield list(groups.values()), equal


def lattice_on_surface(form: Form, lattice: Lattice) -> bool:
    """Whether the line lies in the zero set of the polynomial of an
    integer form: its integer restriction to (B + t*D)/s vanishes."""
    from .zpoly import _line_expansion

    _, dv, bv, s = lattice
    return not any(_line_expansion(form, bv, dv, s, 0)[0].get((0,) * len(dv), ()))


# -- the file's coordinate strings ---------------------------------------------

_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _rational(text: object) -> tuple[int, int]:
    """(n, d), d > 0, for the "n" or "n/d" grammar; nothing else (no
    exponents, no decimals).  d = 0, or more digits than int reads, is bad."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ParseError(f"expected an 'n' or 'n/d' rational string, got {text!r}")
    num, _, den = text.partition("/")
    try:
        n, d = int(num), int(den or 1)
    except ValueError as exc:
        raise ParseError(f"bad rational {text!r}") from exc
    if not d:
        raise ParseError(f"bad rational {text!r}")
    return n, d


def _vector(obj: object, dim: int) -> tuple[list[int], int]:
    """(V, q), q > 0, with V/q the vector of dim coordinate strings."""
    if not isinstance(obj, list) or len(obj) != dim:
        raise ParseError(f"expected {dim} coordinates, got {obj!r}")
    pairs = [_rational(c) for c in obj]
    q = lcm(*(d for _, d in pairs))
    return [n * (q // d) for n, d in pairs], q


def read_point(obj: object, dim: int) -> Scaled:
    return reduced_form(*_vector(obj, dim))


def read_line(base: object, direction: object, dim: int) -> Lattice:
    (bv, s), (dv, _) = _vector(base, dim), _vector(direction, dim)
    if not any(dv):
        raise DegenerateLineError("zero direction vector")
    return line_lattice(dv, bv, s)


def _ratio(n: int, d: int) -> str:
    """n/d, d > 0, in lowest terms as "n" or "n/d"."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def point_strings(point: Scaled) -> list[str]:
    return [_ratio(c, point[1]) for c in point[0]]


def line_strings(line: Lattice) -> tuple[list[str], list[str]]:
    """The strings of base B/s and direction D/D[k]."""
    k, dv, bv, s = line
    return [_ratio(c, s) for c in bv], [_ratio(c, dv[k]) for c in dv]
