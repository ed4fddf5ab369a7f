"""Incidence instances and their JSON file format.

An IncidenceInstance holds a point set and a line set, optionally tied to a
surface, and is the one checked structure every command reads: it rejects
duplicates and stray lines once, and builds on first read which surface
factors hold each line and the point-line relation.  The file layout
keeps every number exact: rationals are "n" or "n/d"
strings, polynomial coefficients are split into integer numerator and
denominator, and term lists are sorted, so serialization is deterministic
and a file round-trips byte for byte.

    {
      "dim": 3,
      "surface": {"vars": 3, "factors": [{"terms": [{"n": 1, "d": 1, "e": [2, 0, 0]}]}]},
      "points": [["1/2", "3", "-2/5"]],
      "lines": [{"base": ["0", "0", "0"], "dir": ["1", "0", "1"]}]
    }

A lifted instance has no surface; the field is null and "dim" may exceed 3.
Only a surface needs poly, so the module imports it where a polynomial is
read or written, and a surfaceless file loads without it.
An instance's dimension is read off its points and lines, so an instance
with neither must have "dim" 3.
A polynomial term of total degree above MAX_DEGREE, or a polynomial of more
than MAX_TERMS terms, is refused on reading: checking a line against the
surface expands every term along the line, so one huge exponent or a dense
high-degree factor would stall the load.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import ArityError, DomainError, ParseError
from .linalg import Vec, to_vec
from .linespace import AffLine, incidence_relation, line_on_surface

if TYPE_CHECKING:
    from .poly import Poly, Surface


class IncidenceInstance:
    """A point set and line set, optionally tied to a concrete surface.

    Construction checks the instance once: points and lines are distinct
    and share one dimension, and with a surface every line lies on it,
    each line tested against the factors in order up to the first that
    holds it.  containing[j] holds the ascending indices of the surface
    factors that contain lines[j] (empty without a surface), read by the
    decomposition and the classifier hints; it is built on first read,
    testing each line only against the factors after that first one.  The
    incidence relation, lines_at and points_on, is built from
    linespace.incidence_relation on first read.  A command that never reads
    one of these never builds it.

    Instances are immutable and equal when their surface, points and lines
    are; containing and the incidence relation are functions of these.
    The instance keeps a __dict__ for its cached properties.

    Lifted instances drop the surface: its equation lives in three
    variables and does not travel to higher dimension, while the points
    and lines do.
    """

    surface: Surface | None
    points: tuple[Vec, ...]
    lines: tuple[AffLine, ...]

    def __init__(self, surface: Surface | None, points: Sequence, lines: Sequence[AffLine]):
        pts = tuple(to_vec(p) for p in points)
        lns = tuple(lines)
        if len(set(pts)) != len(pts):
            raise DomainError("instance points must be distinct")
        if len(set(lns)) != len(lns):
            raise DomainError("instance lines must be distinct")
        dims = {len(p) for p in pts} | {ln.dim for ln in lns}
        if len(dims) > 1:
            raise ArityError("points and lines disagree on ambient dimension")
        first_owners: list[int] = []
        if surface is not None:
            if dims and dims != {3}:
                raise ArityError("a surface-carrying instance must live in 3-space")
            # a line lies in Z(gh) iff it lies in Z(g) or in Z(h)
            for ln in lns:
                owner = next(
                    (i for i, w in enumerate(surface.factors) if line_on_surface(w, ln)), None
                )
                if owner is None:
                    raise DomainError("an instance line misses the surface")
                first_owners.append(owner)
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "lines", lns)
        object.__setattr__(self, "_first_owners", tuple(first_owners))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IncidenceInstance is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("IncidenceInstance is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.surface == other.surface
            and self.points == other.points
            and self.lines == other.lines
        )

    def __hash__(self) -> int:
        return hash((self.surface, self.points, self.lines))

    def __repr__(self) -> str:
        return (
            f"IncidenceInstance(surface={self.surface!r}, points={self.points!r}, "
            f"lines={self.lines!r})"
        )

    @cached_property
    def containing(self) -> tuple[tuple[int, ...], ...]:
        """For each line, the ascending indices of the surface factors that
        contain it; empty without a surface."""
        if self.surface is None:
            return ()
        factors = self.surface.factors
        return tuple(
            (i, *(k for k in range(i + 1, len(factors)) if line_on_surface(factors[k], ln)))
            for i, ln in zip(self._first_owners, self.lines)
        )

    @cached_property
    def lines_at(self) -> tuple[tuple[int, ...], ...]:
        """For each point, the ascending indices of the lines through it."""
        return incidence_relation(self.points, self.lines)

    @cached_property
    def points_on(self) -> tuple[tuple[int, ...], ...]:
        """For each line, the ascending indices of the points on it."""
        points_on: list[list[int]] = [[] for _ in self.lines]
        for i, through in enumerate(self.lines_at):
            for j in through:
                points_on[j].append(i)
        return tuple(map(tuple, points_on))

    @property
    def incidences(self) -> int:
        """Number of incident point-line pairs."""
        return sum(map(len, self.lines_at))

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def n(self) -> int:
        return len(self.lines)

    @property
    def dim(self) -> int:
        for p in self.points:
            return len(p)
        for ln in self.lines:
            return ln.dim
        return 3


MAX_DEGREE = 64
# Checking a line against a factor expands it along the line on integers:
# about 16 ms for a 64-term factor of degree 64 on a line whose entries have
# denominators 7, 2, 3 and 5 (2-vCPU Xeon VM, Python 3.11).  Every polynomial
# of degree 5 or less (at most 56 terms) fits; the catalog factors have at
# most 4 terms.
MAX_TERMS = 64


def format_rational(q: Fraction) -> str:
    return str(q)


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: object) -> Fraction:
    """Parse the "n" or "n/d" grammar; nothing else (no exponents, no decimals)."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ParseError(f"expected an 'n' or 'n/d' rational string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def _vector_to_obj(v: Vec) -> list[str]:
    return [format_rational(c) for c in v]


def _obj_to_vector(obj: object, dim: int) -> Vec:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ParseError(f"expected {dim} coordinates, got {obj!r}")
    return tuple(parse_rational(c) for c in obj)


def poly_to_obj(p: Poly) -> dict:
    from .poly import grlex_key

    terms = sorted(p.terms.items(), key=lambda item: grlex_key(item[0]), reverse=True)
    return {
        "terms": [
            {"n": c.numerator, "d": c.denominator, "e": list(e)} for e, c in terms
        ]
    }


def obj_to_poly(obj: object, nvars: int) -> Poly:
    from .poly import Poly

    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise ParseError(f"expected a polynomial object, got {obj!r}")
    if len(obj["terms"]) > MAX_TERMS:
        raise ParseError(f"polynomial of {len(obj['terms'])} terms exceeds the cap {MAX_TERMS}")
    terms: dict[tuple[int, ...], Fraction] = {}
    for item in obj["terms"]:
        if not isinstance(item, dict):
            raise ParseError(f"bad polynomial term {item!r}")
        n, d, e = item.get("n"), item.get("d"), item.get("e")
        # type(...) is int: JSON true/false load as bool, an int subclass
        if type(n) is not int or type(d) is not int or d <= 0:
            raise ParseError(f"bad coefficient in term {item!r}")
        if not isinstance(e, list) or len(e) != nvars or not all(type(k) is int for k in e):
            raise ParseError(f"bad exponent in term {item!r}")
        if sum(e) > MAX_DEGREE:
            raise ParseError(f"term of degree {sum(e)} exceeds the cap {MAX_DEGREE}")
        key = tuple(e)
        if key in terms:
            raise ParseError(f"repeated exponent {key} in polynomial")
        terms[key] = Fraction(n, d)
    return Poly(nvars, terms)


def surface_to_obj(surface: Surface) -> dict:
    return {"vars": 3, "factors": [poly_to_obj(w) for w in surface.factors]}


def obj_to_surface(obj: object) -> Surface:
    from .poly import Surface

    if not isinstance(obj, dict) or obj.get("vars") != 3:
        raise ParseError(f"expected a trivariate surface object, got {obj!r}")
    factors = obj.get("factors")
    if not isinstance(factors, list) or not factors:
        raise ParseError("surface needs a nonempty factor list")
    return Surface([obj_to_poly(w, 3) for w in factors])


def instance_to_obj(inst: IncidenceInstance) -> dict:
    return {
        "dim": inst.dim,
        "surface": None if inst.surface is None else surface_to_obj(inst.surface),
        "points": [_vector_to_obj(p) for p in inst.points],
        "lines": [
            {"base": _vector_to_obj(ln.base), "dir": _vector_to_obj(ln.direction)}
            for ln in inst.lines
        ],
    }


def obj_to_instance(obj: object) -> IncidenceInstance:
    if not isinstance(obj, dict):
        raise ParseError("instance file must hold a JSON object")
    dim = obj.get("dim")
    if not isinstance(dim, int) or dim < 3:
        raise ParseError(f"bad dimension {dim!r}")
    surface_obj = obj.get("surface")
    surface = None if surface_obj is None else obj_to_surface(surface_obj)
    if surface is not None and dim != 3:
        raise ParseError("a surface-carrying instance must have dim 3")
    points_obj = obj.get("points")
    lines_obj = obj.get("lines")
    if not isinstance(points_obj, list) or not isinstance(lines_obj, list):
        raise ParseError("instance needs point and line lists")
    if not points_obj and not lines_obj and dim != 3:
        # nothing would carry the dimension, so it would come back as 3
        raise ParseError(f"an instance without points or lines has dim 3, not {dim}")
    points = [_obj_to_vector(p, dim) for p in points_obj]
    lines = []
    for item in lines_obj:
        if not isinstance(item, dict):
            raise ParseError(f"bad line entry {item!r}")
        base = _obj_to_vector(item.get("base"), dim)
        direction = _obj_to_vector(item.get("dir"), dim)
        lines.append(AffLine(base, direction))
    return IncidenceInstance(surface, points, lines)


def dumps_instance(inst: IncidenceInstance) -> str:
    return json.dumps(instance_to_obj(inst), indent=2, sort_keys=True) + "\n"


def save_instance(inst: IncidenceInstance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(inst), encoding="utf-8")


def load_instance(path: str | Path) -> IncidenceInstance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read instance file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise ParseError(f"instance file {path} is not valid JSON: {exc}") from exc
    return obj_to_instance(obj)
