"""Each CLI call loads only the modules its subcommand runs, and no call
loads dataclasses; the package resolves its exported names on first use.
A call that only counts, relates and projects points and lines, and reads
a surface as integer forms, loads no fractions either; nor does classify on
a line-free file whose factors the line certificate rules out, which runs
on integer lists and loads no poly, nor classify and incidence on a quadric
cone, whose apex is a scaled point solved for on integers.  classify,
flecnode and incidence on a file with a ruled factor that is no cone load
neither poly nor fractions either: the witness runs on packed term maps,
the line search on the integer grid, and the exceptional lines on lattices,
with the gcd that decides a tangent pencil no certificate settles on
integer term maps.

The module sets are read in a fresh interpreter per call, since this test
process has long since imported every module of the package.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import incgeo
from incgeo.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# where each exported name is defined
HOMES = {
    "AffLine": "linespace",
    "IncidenceInstance": "instfile",
    "Poly": "poly",
    "Surface": "zpoly",
    "build_instance": "forge",
    "classify_component": "surfaces",
    "count_incidences": "incidence",
    "decompose_lines": "incidence",
    "flecnode_polynomial": "surfaces",
    "load_instance": "instfile",
    "make_lines": "forge",
    "make_surface": "forge",
    "project_to_3space": "projection",
    "save_instance": "instfile",
    "variables": "poly",
    "verify_bound": "incidence",
}

# the standard library modules whose loading the calls are checked for
WATCHED = ("dataclasses", "fractions", "decimal")

# runs main() on its arguments, if given any, and prints the exit code, the
# loaded incgeo modules and the loaded WATCHED modules as the last line of
# stdout
CHILD = """
import json, sys
import incgeo
code = None
if sys.argv[1:]:
    from incgeo.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "incgeo")
print(json.dumps([code, loaded, [m for m in %r if m in sys.modules]]))
""" % (WATCHED,)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def loaded_by(*argv: str) -> tuple[int | None, set[str], set[str]]:
    """The exit code, the incgeo modules (without the package prefix) and
    the WATCHED modules loaded by one call."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    code, modules, watched = json.loads(proc.stdout.splitlines()[-1])
    return code, {m.removeprefix("incgeo.") for m in modules}, set(watched)


@pytest.fixture(scope="module")
def bare_loads() -> set[str]:
    """The WATCHED modules a bare interpreter already has loaded, say from a
    site hook; no call can be asked to leave those unloaded."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; print([m for m in {WATCHED!r} if m in sys.modules])"],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("loading")
    names = ("cone", "whitney", "whitney0", "product", "fermat", "lifted", "back")
    paths = {name: str(root / f"{name}.json") for name in names}
    assert main(["gen", "--kind", "cone", "--lines", "6", "--points", "12", "--seed", "1",
                 "-o", paths["cone"]]) == 0
    # a singly ruled surface, the one kind whose lines are checked for exceptional ones
    assert main(["gen", "--kind", "whitney", "--lines", "6", "--points", "12", "--seed", "1",
                 "-o", paths["whitney"]]) == 0
    # without hint lines, classify searches the Whitney cubic for a witness line
    assert main(["gen", "--kind", "whitney", "--lines", "0", "--points", "0", "-o", paths["whitney0"]]) == 0
    assert main(["gen", "--kind", "product", "--lines", "10", "--points", "16", "--seed", "5",
                 "-o", paths["product"]]) == 0
    # a line-free surface file that is not ruled, as every flecnode_cubics benchmark input
    assert main(["gen", "--kind", "fermat", "--lines", "0", "--points", "0",
                 "-o", paths["fermat"]]) == 0
    assert main(["gen", "--kind", "product", "--lines", "10", "--points", "16", "--seed", "5",
                 "--dim", "6", "-o", paths["lifted"]]) == 0
    assert main(["project", paths["lifted"], "--seed", "2", "-o", paths["back"]]) == 0
    # the smooth singly ruled z - x^2 y: its x-axis is exceptional, since
    # every (c, 0, 0) carries the line (c, t, c^2 t); no certificate point
    # t0 settles the tangent pencil, so the gcd decides it
    terms = [{"n": 1, "d": 1, "e": [0, 0, 1]}, {"n": -1, "d": 1, "e": [2, 1, 0]}]
    lines = [{"base": ["0", "0", "0"], "dir": ["1", "0", "0"]}]
    lines += [{"base": [str(c), "0", "0"], "dir": ["0", "1", str(c * c)]} for c in range(-4, 5)]
    points = [[str(c), str(t), str(c * c * t)] for c in range(-4, 5) for t in (0, 1)]
    paths["axis"] = str(root / "axis.json")
    Path(paths["axis"]).write_text(json.dumps({
        "dim": 3, "surface": {"vars": 3, "factors": [{"terms": terms}]}, "points": points, "lines": lines,
    }), encoding="utf-8")
    return paths


def test_help_loads_only_the_front_end(bare_loads):
    code, modules, watched = loaded_by("--help")
    assert code == 0
    assert modules == {"incgeo", "cli", "errors"}
    assert "dataclasses" not in watched - bare_loads


@pytest.mark.parametrize(
    "argv, absent",
    [
        # the surfaceless calls read, count, relate, project and write the
        # integer forms of lattice alone
        (("project", "{lifted}", "--seed", "2", "-o", "{out}"),
         {"poly", "surfaces", "linespace", "fractions"}),
        (("verify", "--degree", "7", "{back}"),
         {"poly", "surfaces", "linespace", "fractions"}),
        (("incidence", "{back}"), {"poly", "surfaces", "linespace", "fractions"}),
        # the surface is read, checked and measured as integer forms (zpoly)
        (("verify", "{cone}"),
         {"poly", "surfaces", "exceptional", "projection", "forge", "linespace", "fractions"}),
        # a quadric's matrix is read off its integer form, its hints as
        # lattices, and its apex is a scaled point compared with scaled points
        (("classify", "{cone}"),
         {"poly", "linespace", "exceptional", "incidence", "projection", "forge", "fractions", "decimal"}),
        (("flecnode", "{cone}"), {"exceptional", "incidence", "projection", "forge"}),
        (("incidence", "{cone}"), {"poly", "linespace", "projection", "forge", "fractions", "decimal"}),
        # the line certificate runs on integer lists
        (("classify", "{fermat}"),
         {"poly", "linespace", "exceptional", "incidence", "projection", "forge", "fractions", "decimal"}),
        (("incidence", "{fermat}"),
         {"poly", "linespace", "exceptional", "projection", "forge", "fractions", "decimal"}),
        (("flecnode", "{fermat}"),
         {"poly", "linespace", "exceptional", "incidence", "projection", "forge", "fractions", "decimal"}),
        # a ruled factor's witness and divisibility run on packed term maps,
        # its line search on the integer grid, and its exceptional lines on
        # lattices and scaled points
        (("classify", "{whitney}"), {"poly", "linespace", "fractions", "decimal"}),
        (("flecnode", "{whitney}"), {"poly", "linespace", "fractions", "decimal"}),
        (("incidence", "{whitney}"), {"poly", "linespace", "fractions", "decimal"}),
        (("classify", "{whitney0}"), {"poly", "linespace", "fractions", "decimal"}),
        (("classify", "{product}"), {"poly", "linespace", "fractions", "decimal"}),
        (("flecnode", "{product}"), {"poly", "linespace", "fractions", "decimal"}),
        (("incidence", "{product}"), {"poly", "linespace", "fractions", "decimal"}),
        # an exceptional line's tangent pencil takes the gcd on integer term maps
        (("incidence", "{axis}"), {"poly", "linespace", "fractions", "decimal"}),
        # the catalog surface is built from integer forms
        (("gen", "--kind", "cone", "--lines", "3", "--points", "3", "-o", "{out}"),
         {"poly", "surfaces", "incidence", "projection"}),
        (("gen", "--kind", "product", "--lines", "3", "--points", "3", "--dim", "5", "-o", "{out}"),
         {"poly", "surfaces", "incidence", "projection"}),
    ],
    ids=["project", "verify-degree", "incidence-surfaceless", "verify-surface", "classify",
         "flecnode", "incidence", "classify-line-free", "incidence-line-free", "flecnode-line-free",
         "classify-whitney", "flecnode-whitney", "incidence-whitney", "classify-whitney-line-free",
         "classify-product", "flecnode-product", "incidence-product", "incidence-exceptional-axis",
         "gen", "gen-lifted"],
)
def test_each_subcommand_loads_only_what_it_runs(files, tmp_path, bare_loads, argv, absent):
    code, modules, watched = loaded_by(
        *(a.format(out=tmp_path / "out.json", **files) for a in argv)
    )
    assert code == 0
    assert not (modules | watched - bare_loads) & absent
    assert "dataclasses" not in watched - bare_loads


@pytest.mark.parametrize("command", ["classify", "flecnode"])
def test_a_file_without_points_or_lines_loads_no_lattice(files, command):
    # lattice reads the coordinates; a line-free surface file has none.
    # classify rules the Fermat cubic out on integer lists and never asks
    # for the apex of a factor that the line certificate rules out, while
    # flecnode asks for the apex first (an integer solve in zpoly), to
    # build a cone's witness at its apex, and builds the witness on the
    # form's packed term maps, so neither loads poly
    code, modules, _ = loaded_by(command, files["fermat"])
    assert code == 0
    assert modules == {"incgeo", "cli", "errors", "instfile", "surfaces", "zpoly"}


def test_incidence_loads_the_exceptional_lines(files):
    # only for a singly ruled factor: a cone has no exceptional lines to
    # find; either way the lines are read as lattices
    code, modules, _ = loaded_by("incidence", files["cone"])
    assert code == 0
    assert "surfaces" in modules
    assert not {"exceptional", "linespace"} & modules
    code, modules, _ = loaded_by("incidence", files["whitney"])
    assert code == 0
    assert {"surfaces", "exceptional"} <= modules
    assert "linespace" not in modules


def test_importing_the_package_loads_no_module():
    assert loaded_by()[:2] == (None, {"incgeo"})


def test_every_export_is_its_home_object():
    assert sorted(incgeo.__all__) == sorted(HOMES)
    for name, home in HOMES.items():
        assert getattr(incgeo, name) is getattr(importlib.import_module(f"incgeo.{home}"), name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from incgeo import *", namespace)
    for name in incgeo.__all__:
        assert namespace[name] is getattr(incgeo, name)


def test_dir_lists_every_export():
    assert set(incgeo.__all__) <= set(dir(incgeo))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        incgeo.no_such_name  # noqa: B018
    assert not hasattr(incgeo, "Verdict")


def test_surface_is_one_class():
    import incgeo.surfaces
    import incgeo.zpoly

    assert incgeo.surfaces.Surface is incgeo.zpoly.Surface
