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
Surface factors are read into and written from zpoly's integer forms, so
poly never loads; lattice (which reads and writes coordinates) loads only
for points or lines, linespace only for the views.
An instance's dimension is read off its points and lines, so an instance
with neither must have "dim" 3.
A polynomial term of total degree above MAX_DEGREE, or a polynomial of more
than MAX_TERMS terms, is refused on reading: checking a line against the
surface expands every term along the line, so one huge exponent or a dense
high-degree factor would stall the load.  A "dim" above MAX_DIM is refused
too: the projection's exact certificate grows steeply with the dimension.
"""

from __future__ import annotations

import json
from functools import cached_property
from math import gcd, lcm
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import ArityError, DomainError, ParseError

if TYPE_CHECKING:
    from .lattice import Lattice, Scaled
    from .linespace import AffLine, Vec
    from .zpoly import Form, Surface


class IncidenceInstance:
    """A point set and line set, optionally tied to a concrete surface.

    It holds lattice's forms, scaled points and line lattices, and checks
    them once: points and lines are distinct and share one dimension, and
    with a surface every line lies on it, tested against the factors' forms
    in order up to the first that holds it.  Built on first read only:
    containing[j], the factors that contain lines[j] (testing those after
    the first); the incidence relation lines_at and points_on; and the
    Fraction views points and lines.  Instances are immutable, and equal
    when their surface, points and lines are.  A lifted instance has no
    surface: its equation does not travel to higher dimension.
    """

    surface: Surface | None
    scaled: tuple[Scaled, ...]
    lattices: tuple[Lattice, ...]

    def __init__(self, surface: Surface | None, points: Sequence, lines: Sequence[AffLine]):
        from .lattice import scaled_form
        from .linespace import to_vec

        self.__dict__.update(points=tuple(map(to_vec, points)), lines=tuple(lines))
        self._check(surface, tuple(map(scaled_form, self.points)), tuple(ln.lattice for ln in self.lines))

    @classmethod
    def from_forms(cls, surface: Surface | None, points: Sequence[Scaled], lines: Sequence[Lattice]):
        inst = cls.__new__(cls)
        inst._check(surface, tuple(points), tuple(lines))
        return inst

    def _check(self, surface: Surface | None, pts: tuple[Scaled, ...], lns: tuple[Lattice, ...]):
        if len(set(pts)) != len(pts):
            raise DomainError("instance points must be distinct")
        if len(set(lns)) != len(lns):
            raise DomainError("instance lines must be distinct")
        dims = {len(pv) for pv, _ in pts} | {len(lat[1]) for lat in lns}
        if len(dims) > 1:
            raise ArityError("points and lines disagree on ambient dimension")
        first_owners: list[int] = []
        if surface is not None:
            if dims and dims != {3}:
                raise ArityError("a surface-carrying instance must live in 3-space")
            if lns:
                from .lattice import lattice_on_surface
            # a line lies in Z(gh) iff it lies in Z(g) or in Z(h)
            for lat in lns:
                owner = next(
                    (i for i, w in enumerate(surface.forms) if lattice_on_surface(w, lat)), None
                )
                if owner is None:
                    raise DomainError("an instance line misses the surface")
                first_owners.append(owner)
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "scaled", pts)
        object.__setattr__(self, "lattices", lns)
        object.__setattr__(self, "_first_owners", tuple(first_owners))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IncidenceInstance is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("IncidenceInstance is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.surface, self.scaled, self.lattices) == (
            other.surface, other.scaled, other.lattices
        )

    def __hash__(self) -> int:
        return hash((self.surface, self.scaled, self.lattices))

    def __repr__(self) -> str:
        return (
            f"IncidenceInstance(surface={self.surface!r}, points={self.points!r}, "
            f"lines={self.lines!r})"
        )

    @cached_property
    def points(self) -> tuple[Vec, ...]:
        from fractions import Fraction

        return tuple(tuple(Fraction(c, q) for c in pv) for pv, q in self.scaled)

    @cached_property
    def lines(self) -> tuple[AffLine, ...]:
        if not self.lattices:
            return ()
        from .linespace import AffLine

        return tuple(map(AffLine.from_lattice, self.lattices))

    @cached_property
    def containing(self) -> tuple[tuple[int, ...], ...]:
        """For each line, the ascending indices of the surface factors that
        contain it; empty without a surface."""
        if self.surface is None or not self.lattices:
            return ()
        from .lattice import lattice_on_surface

        forms = self.surface.forms
        return tuple(
            (i, *(k for k in range(i + 1, len(forms)) if lattice_on_surface(forms[k], lat)))
            for i, lat in zip(self._first_owners, self.lattices)
        )

    @cached_property
    def lines_at(self) -> tuple[tuple[int, ...], ...]:
        """For each point, the ascending indices of the lines through it."""
        from .lattice import lattice_incidences

        return lattice_incidences(self.scaled, self.lattices)

    @cached_property
    def points_on(self) -> tuple[tuple[int, ...], ...]:
        """For each line, the ascending indices of the points on it."""
        points_on: list[list[int]] = [[] for _ in self.lattices]
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
        return len(self.scaled)

    @property
    def n(self) -> int:
        return len(self.lattices)

    @property
    def dim(self) -> int:
        for pv, _ in self.scaled:
            return len(pv)
        for lat in self.lattices:
            return len(lat[1])
        return 3


MAX_DEGREE = 64
# Checking a line against a factor expands it along the line on integers:
# about 16 ms for a 64-term factor of degree 64 on a line whose entries have
# denominators 7, 2, 3 and 5 (2-vCPU Xeon VM, Python 3.11).  Every polynomial
# of degree 5 or less (at most 56 terms) fits; the catalog factors have at
# most 4 terms.
MAX_TERMS = 64
# Projecting from R^dim grows the coordinates at every step, and a failed
# composed certificate is replayed step by step: a product lift of 40 lines
# and 40 points projects in 0.02, 0.09-0.11 and 0.35-0.38 s from dimensions
# 8, 16 and 24 (in process, 2-vCPU VM, Python 3.11), and `incgeo project`
# takes 0.15-0.23 s on the dim-16 lift.  forge refuses to lift past the cap.
MAX_DIM = 16


def form_to_obj(form: Form) -> dict:
    from .zpoly import grlex_key

    terms, den = form
    out = []
    for e in sorted(terms, key=grlex_key, reverse=True):
        g = gcd(terms[e], den)
        out.append({"n": terms[e] // g, "d": den // g, "e": list(e)})
    return {"terms": out}


def obj_to_form(obj: object, nvars: int) -> Form:
    """The integer form of a polynomial object: each n/d in lowest terms,
    zero terms dropped, numerators over the lcm of the denominators."""
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise ParseError(f"expected a polynomial object, got {obj!r}")
    if len(obj["terms"]) > MAX_TERMS:
        raise ParseError(f"polynomial of {len(obj['terms'])} terms exceeds the cap {MAX_TERMS}")
    terms: dict[tuple[int, ...], tuple[int, int]] = {}
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
        terms[key] = n, d
    for key in terms:
        if any(k < 0 for k in key):
            raise DomainError(f"negative exponent in {key}")
    den = lcm(*(d // gcd(n, d) for n, d in terms.values() if n))
    return {key: n * den // d for key, (n, d) in terms.items() if n}, den


def obj_to_surface(obj: object) -> Surface:
    from .zpoly import Surface

    if not isinstance(obj, dict) or obj.get("vars") != 3:
        raise ParseError(f"expected a trivariate surface object, got {obj!r}")
    factors = obj.get("factors")
    if not isinstance(factors, list) or not factors:
        raise ParseError("surface needs a nonempty factor list")
    return Surface.from_forms([obj_to_form(w, 3) for w in factors])


def instance_to_obj(inst: IncidenceInstance) -> dict:
    if inst.scaled or inst.lattices:
        from .lattice import line_strings, point_strings
    return {
        "dim": inst.dim,
        "surface": None if inst.surface is None else {
            "vars": 3, "factors": [form_to_obj(w) for w in inst.surface.forms]},
        "points": [point_strings(p) for p in inst.scaled],
        "lines": [dict(zip(("base", "dir"), line_strings(lat))) for lat in inst.lattices],
    }


def obj_to_instance(obj: object) -> IncidenceInstance:
    if not isinstance(obj, dict):
        raise ParseError("instance file must hold a JSON object")
    dim = obj.get("dim")
    if not isinstance(dim, int) or dim < 3:
        raise ParseError(f"bad dimension {dim!r}")
    if dim > MAX_DIM:
        raise ParseError(f"dimension {dim} exceeds the cap {MAX_DIM}")
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
    if points_obj or lines_obj:
        from .lattice import read_line, read_point
    points = [read_point(p, dim) for p in points_obj]
    lines = []
    for item in lines_obj:
        if not isinstance(item, dict):
            raise ParseError(f"bad line entry {item!r}")
        lines.append(read_line(item.get("base"), item.get("dir"), dim))
    return IncidenceInstance.from_forms(surface, points, lines)


def dumps_instance(inst: IncidenceInstance) -> str:
    return json.dumps(instance_to_obj(inst), indent=2, sort_keys=True) + "\n"


def save_instance(inst: IncidenceInstance, path: str | Path) -> None:
    try:
        Path(path).write_text(dumps_instance(inst), encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write instance file {path}: {exc}") from exc


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
