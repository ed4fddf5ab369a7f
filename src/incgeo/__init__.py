"""Exact rational toolkit for line geometry on low-degree algebraic surfaces.

The package is organized bottom-up:

- poly: sparse multivariate polynomials over Q (arithmetic, one integer
  expansion along a line or around a point, integer Taylor data at a
  symbolic point, Sylvester determinants, exact division, gcd, a
  square-free test) and the Surface factor list
- linespace: affine lines in R^d with their exact incidence, relation and
  coplanarity predicates, and Plucker coordinates with the Klein form
- surfaces: flecnode witnesses, ruledness indicators, per-component
  classification, lines through a point, exceptional lines, generator
  counting
- incidence: the ruled/unruled line decomposition, pruning, meeting
  counts, and the bound evaluators, all read from one checked instance
- projection: seeded generic projection of high-dimensional instances down
  to 3-space with exact genericity certificates
- forge: canonical surface instances (cone, regulus, ruled cubic, sphere,
  Fermat cubic and products) with seeded line and point placement
- instfile: the IncidenceInstance, checked once on construction (which
  factors hold each line and the point-line relation are built on first
  read), and its exact JSON file format
- cli: the command-line front end, one report per command printed as
  text or JSON

Importing the package loads none of these modules.  Each name in __all__
resolves on first use by importing its home module (PEP 562), so a CLI call
loads only the modules its subcommand runs.
"""

from importlib import import_module

# the catalog surface names, shared by forge and the CLI parser
SURFACE_KINDS = ("cone", "regulus", "whitney", "sphere", "fermat", "product")

_HOMES = {
    "forge": ("build_instance", "make_lines", "make_surface"),
    "incidence": ("count_incidences", "decompose_lines", "verify_bound"),
    "instfile": ("IncidenceInstance", "load_instance", "save_instance"),
    "linespace": ("AffLine",),
    "poly": ("Poly", "Surface", "variables"),
    "projection": ("project_to_3space",),
    "surfaces": ("classify_component", "flecnode_polynomial"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [
    "AffLine",
    "IncidenceInstance",
    "Poly",
    "Surface",
    "build_instance",
    "classify_component",
    "count_incidences",
    "decompose_lines",
    "flecnode_polynomial",
    "load_instance",
    "make_lines",
    "make_surface",
    "project_to_3space",
    "save_instance",
    "variables",
    "verify_bound",
]


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
