"""Each CLI call loads only the modules its subcommand runs, and no call
loads dataclasses; the package resolves its exported names on first use.

The module sets are read in a fresh interpreter per call, since this test
process has long since imported every module of the package.
"""

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
    "Surface": "poly",
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

# runs main() on its arguments, if given any, and prints the exit code, the
# loaded incgeo modules and whether dataclasses is loaded as the last line of
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
print(json.dumps([code, loaded, "dataclasses" in sys.modules]))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def loaded_by(*argv: str) -> tuple[int | None, set[str], bool]:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    code, modules, dataclasses_loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, {m.removeprefix("incgeo.") for m in modules}, dataclasses_loaded


@pytest.fixture(scope="module")
def bare_loads_dataclasses() -> bool:
    """Whether a bare interpreter already has dataclasses loaded, say from a
    site hook, in which case no call can be asked to leave it unloaded."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    return proc.stdout.split()[-1] == "True"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("loading")
    paths = {name: str(root / f"{name}.json") for name in ("cone", "lifted", "back")}
    assert main(["gen", "--kind", "cone", "--lines", "6", "--points", "12", "--seed", "1",
                 "-o", paths["cone"]]) == 0
    assert main(["gen", "--kind", "product", "--lines", "10", "--points", "16", "--seed", "5",
                 "--dim", "6", "-o", paths["lifted"]]) == 0
    assert main(["project", paths["lifted"], "--seed", "2", "-o", paths["back"]]) == 0
    return paths


def test_help_loads_only_the_front_end(bare_loads_dataclasses):
    code, modules, dataclasses_loaded = loaded_by("--help")
    assert code == 0
    assert modules == {"incgeo", "cli", "errors"}
    assert bare_loads_dataclasses or not dataclasses_loaded


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("project", "{lifted}", "--seed", "2", "-o", "{out}"), {"poly", "surfaces"}),
        (("verify", "--degree", "7", "{back}"), {"poly", "surfaces"}),
        (("incidence", "{back}"), {"poly", "surfaces"}),
        (("verify", "{cone}"), {"surfaces", "projection", "forge"}),
        (("classify", "{cone}"), {"incidence", "projection", "forge"}),
        (("flecnode", "{cone}"), {"incidence", "projection", "forge"}),
        (("incidence", "{cone}"), {"projection", "forge"}),
        (("gen", "--kind", "cone", "--lines", "3", "--points", "3", "-o", "{out}"),
         {"surfaces", "incidence", "projection"}),
    ],
    ids=["project", "verify-degree", "incidence-surfaceless", "verify-surface", "classify",
         "flecnode", "incidence", "gen"],
)
def test_each_subcommand_loads_only_what_it_runs(
    files, tmp_path, bare_loads_dataclasses, argv, absent
):
    code, modules, dataclasses_loaded = loaded_by(
        *(a.format(out=tmp_path / "out.json", **files) for a in argv)
    )
    assert code == 0
    assert not modules & absent
    assert bare_loads_dataclasses or not dataclasses_loaded


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
    import incgeo.poly
    import incgeo.surfaces

    assert incgeo.surfaces.Surface is incgeo.poly.Surface
