"""Exception taxonomy shared by all incgeo modules.

Every error raised on purpose derives from IncGeoError so callers can
distinguish contract violations from genuine bugs.  InvariantViolation is
reserved for checked mathematical invariants that the implementation
promises to enforce at runtime.
"""

from __future__ import annotations


class IncGeoError(Exception):
    """Base class for all deliberate incgeo errors."""


class ArityError(IncGeoError):
    """An argument tuple has the wrong length for the ambient dimension."""


class DomainError(IncGeoError):
    """An argument lies outside an operation's stated domain."""


class ParseError(IncGeoError):
    """An instance file or CLI argument could not be parsed."""


class DegenerateLineError(IncGeoError):
    """Two coincident points, or a zero direction, cannot span a line."""


class NotOnSurfaceError(IncGeoError):
    """The point or line does not lie on the surface."""


class DegreeError(IncGeoError):
    """The polynomial degree is outside the operation's supported range."""


class ExceptionalLineError(IncGeoError):
    """The generator-count inequality is not defined on exceptional lines."""


class PlanarComponentError(IncGeoError):
    """Degree-1 factors are outside the bound verifier's domain."""


class CollapseError(IncGeoError):
    """Projection collapsed a line to a point."""


class ResampleExhaustedError(IncGeoError):
    """No generic projection direction was found within the resample budget."""


class InvariantViolation(IncGeoError):
    """A checked mathematical invariant failed at runtime."""
