"""The benchmark's own exact arithmetic, independent of the incgeo package.

Everything here uses only `fractions.Fraction` and the documented
instance-JSON layout (rationals as "n" or "n/d" strings, polynomial terms
as {"n", "d", "e"}), so inputs and expected answers survive any rewrite of
the library code they are fed to.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

Vec = tuple  # tuple of Fractions


def load(path: Path) -> dict:
    """Instance file as {"dim", "surface", "points", "lines"} with exact vectors."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return {
        "dim": obj["dim"],
        "surface": obj["surface"],
        "points": [tuple(Fraction(c) for c in p) for p in obj["points"]],
        "lines": [
            (tuple(Fraction(c) for c in ln["base"]), tuple(Fraction(c) for c in ln["dir"]))
            for ln in obj["lines"]
        ],
    }


def dump(path: Path, dim: int, surface: dict | None, points, lines) -> None:
    obj = {
        "dim": dim,
        "surface": surface,
        "points": [[str(c) for c in p] for p in points],
        "lines": [{"base": [str(c) for c in b], "dir": [str(c) for c in d]} for b, d in lines],
    }
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def on_line(p: Vec, base: Vec, direction: Vec) -> bool:
    """p lies on base + t*direction: p - base is a multiple of direction."""
    delta = [a - b for a, b in zip(p, base)]
    pivot = next(i for i, c in enumerate(direction) if c)
    t = delta[pivot] / direction[pivot]
    return all(dv == t * dd for dv, dd in zip(delta, direction))


def count_incidences(points, lines) -> int:
    return sum(1 for p in points for b, d in lines if on_line(p, b, d))


def _cross(a: Vec, b: Vec) -> Vec:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def with_intersections(points, lines) -> list[Vec]:
    """Points followed by every new pairwise intersection point of 3-space lines.

    Non-parallel lines b1 + t d1 and b2 + u d2 meet iff (b2 - b1).(d1 x d2) = 0,
    at t = ((b2 - b1) x d2).(d1 x d2) / |d1 x d2|^2.
    """
    out = list(points)
    seen = set(out)
    for i, (b1, d1) in enumerate(lines):
        for b2, d2 in lines[i + 1:]:
            c = _cross(d1, d2)
            if not any(c):
                continue
            w = tuple(x - y for x, y in zip(b2, b1))
            if _dot(w, c) != 0:
                continue
            t = _dot(_cross(w, d2), c) / _dot(c, c)
            p = tuple(b + t * d for b, d in zip(b1, d1))
            if p not in seen:
                seen.add(p)
                out.append(p)
    return out


def _restrict(terms: dict, base: Vec, direction: Vec) -> list[Fraction]:
    """Coefficients (constant first) of t -> f(base + t*direction)."""
    total: list[Fraction] = [Fraction(0)]
    for exps, coef in terms.items():
        prod = [coef]
        for b, d, k in zip(base, direction, exps):
            for _ in range(k):
                nxt = [Fraction(0)] * (len(prod) + 1)
                for i, c in enumerate(prod):
                    nxt[i] += c * b
                    nxt[i + 1] += c * d
                prod = nxt
        total += [Fraction(0)] * (len(prod) - len(total))
        for i, c in enumerate(prod):
            total[i] += c
    return total


def certified_square_free_cubic(terms: dict) -> bool:
    """Sufficient test that a cubic in x, y, z has no repeated factor.

    A repeated factor of a cubic is a linear h with f = h^2 * l, so f
    restricted to any line has a repeated root or degree below 3.  One line
    on which the restriction is a cubic with nonzero discriminant therefore
    certifies square-freeness.
    """
    for k in range(1, 8):
        base = (Fraction(k), Fraction(2 * k + 1), Fraction(-k - 2))
        direction = (Fraction(1), Fraction(k + 1), Fraction((k + 1) ** 2 - 3))
        coeffs = _restrict(terms, base, direction) + [Fraction(0)] * 4
        d, c, b, a = coeffs[:4]
        if a == 0:
            continue
        disc = b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d
        if disc != 0:
            return True
    return False


def cubic_surface(terms: dict) -> dict:
    """Surface object of the documented layout for one integer-coefficient factor."""
    ordered = sorted(terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
    return {
        "vars": 3,
        "factors": [{"terms": [{"n": int(c), "d": 1, "e": list(e)} for e, c in ordered]}],
    }
