"""Exact rational toolkit for line geometry on low-degree algebraic surfaces.

The package is organized bottom-up:

- poly: sparse multivariate polynomials over Q (arithmetic, Taylor
  components, directional derivatives, Sylvester determinants, exact
  division, gcd, a square-free test)
- linespace: affine lines in R^d with their exact incidence, relation and
  coplanarity predicates, and Plucker coordinates with the Klein form
- surfaces: singularities, flat and singular lines, flecnode witnesses,
  ruledness indicators, per-component classification, generator counting
- incidence: the per-instance incidence table (each point-line pair checked
  once, read by every statistic), the ruled/unruled line decomposition,
  pruning, meeting counts, and the bound evaluators
- projection: seeded generic projection of high-dimensional instances down
  to 3-space with exact genericity certificates
- forge: canonical surface instances (cone, regulus, ruled cubic, sphere,
  Fermat cubic and products) with seeded line and point placement
- instfile: the IncidenceInstance container and its exact JSON file format
- cli: the command-line front end, one report per command printed as
  text or JSON
"""

from .forge import build_instance, make_lines, make_surface
from .incidence import IncidenceTable, count_incidences, decompose_lines, verify_bound
from .instfile import IncidenceInstance, load_instance, save_instance
from .linespace import AffLine
from .poly import Poly, variables
from .projection import project_to_3space
from .surfaces import Surface, classify_component, flecnode_polynomial

__all__ = [
    "AffLine",
    "IncidenceInstance",
    "IncidenceTable",
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
