"""Reference reader and writer of the instance file's coordinates, for the tests.

The package reads the "n" and "n/d" strings straight into integer forms
and writes them back from those forms (incgeo.lattice).  These are the
Fraction routines that did it before, kept verbatim as the oracle: each
string parsed to a Fraction, and each Fraction written as str.
"""

import re
from fractions import Fraction

from incgeo.errors import ParseError

_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: object) -> Fraction:
    """Parse the "n" or "n/d" grammar; nothing else (no exponents, no decimals)."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ParseError(f"expected an 'n' or 'n/d' rational string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def vector_to_obj(v) -> list[str]:
    return [str(c) for c in v]


def obj_to_vector(obj: object, dim: int) -> tuple[Fraction, ...]:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ParseError(f"expected {dim} coordinates, got {obj!r}")
    return tuple(parse_rational(c) for c in obj)
