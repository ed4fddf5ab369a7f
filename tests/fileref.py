"""Reference readers and writer of the instance file, for the tests.

The package reads the "n" and "n/d" strings straight into integer forms
and writes them back from those forms (incgeo.lattice), and reads each
surface factor straight into its integer form (incgeo.instfile).  These
are the Fraction routines that did it before, kept verbatim as the
oracle: each string parsed to a Fraction, each Fraction written as str,
and each factor read into a Poly of Fraction coefficients.
"""

import re
from fractions import Fraction

from incgeo.errors import ParseError
from incgeo.instfile import MAX_DEGREE, MAX_TERMS
from incgeo.poly import Poly

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


def obj_to_poly(obj: object, nvars: int) -> Poly:
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
