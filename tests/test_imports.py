"""Every name a module of the package imports is used in that module,
every module-level private function is referenced somewhere in the package,
and every module-level public function or class is reached.

An imported name counts as used when the module's code reads it, or when
the module re-exports it through __all__.  A private function (one leading
underscore) counts as referenced when any module reads it by name, as an
attribute or in an import.  A public function or class counts as reached
when some module of the package reads it that way, when the package lists
it in __all__, or when the acceptance tests read it; so does a public
method of a module-level class, read by name or as an attribute.  The
checks are plain ast walks, so they need no linter.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "incgeo"
MODULES = sorted(PACKAGE.glob("*.py"))
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def names_read(tree: ast.AST) -> set[str]:
    """Names a module reads: by name, as an attribute or in an import."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def unused_private_functions(sources: dict[str, str]) -> list[str]:
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            (module, node.name)
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_")
            and not node.name.startswith("__")
        ]
        used |= names_read(tree)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def unreached_public_names(sources: dict[str, str], acceptance: str) -> list[str]:
    defined: list[tuple[str, str]] = []
    used = names_read(ast.parse(acceptance))
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            (module, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        defined += [
            (f"{module}.{node.name}", method.name)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for method in node.body
            if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
        ]
        used |= names_read(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_detects_an_unused_import():
    source = "from math import gcd, lcm\nimport os\n\nprint(gcd(4, 6))\n"
    assert unused_imports(source) == ["line 1: lcm", "line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_a_dead_private_function():
    sources = {
        "a": "def _kept():\n    return 1\n\n\ndef _dead():\n    return 2\n",
        "b": "from a import _kept\n\n\ndef _called():\n    return _kept()\n\n\nx = _called()\n",
        "c": "import a\n\n\ndef _unread():\n    return a._kept()\n",
    }
    assert unused_private_functions(sources) == ["a._dead", "c._unread"]


def test_no_dead_private_functions():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unused_private_functions(sources) == []


def test_detects_an_unreached_public_name():
    sources = {
        "a": "__all__ = ['Exported']\n\n\nclass Exported:\n    pass\n\n\ndef helper():\n    return 1\n",
        "b": "from a import helper\n\n\ndef orphan():\n    return helper()\n\n\ndef tested():\n    return 2\n",
        "c": "class Unused:\n    pass\n",
    }
    acceptance = "from b import tested\n\n\ndef test_it():\n    assert tested() == 2\n"
    assert unreached_public_names(sources, acceptance) == ["b.orphan", "c.Unused"]


def test_detects_an_unreached_public_method():
    sources = {
        "a": (
            "class Shape:\n"
            "    def area(self):\n        return 1\n\n"
            "    def _helper(self):\n        return 2\n\n"
            "    def dead(self):\n        return 3\n\n"
            "    def tested(self):\n        return 4\n\n"
            "    @property\n    def size(self):\n        return self.area()\n"
        ),
        "b": "from a import Shape\n\n\ndef measure():\n    return Shape().size\n",
    }
    acceptance = (
        "from a import Shape\nfrom b import measure\n\n\n"
        "def test_it():\n    assert Shape().tested() == measure() + 3\n"
    )
    assert unreached_public_names(sources, acceptance) == ["a.Shape.dead"]


def test_no_unreached_public_names():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreached_public_names(sources, ACCEPTANCE.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """The modules a source imports, relative ones without their dots."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def defined_names(source: str) -> set[str]:
    return {
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_the_integer_kernel_builds_no_fraction():
    # lattice reads, relates and writes points and lines on integers, so
    # the calls that need only it load no fractions
    source = (PACKAGE / "lattice.py").read_text(encoding="utf-8")
    assert not imported_modules(source) & {"fractions", "decimal", "linespace"}


def test_linespace_builds_on_the_kernel_without_a_copy():
    linespace = (PACKAGE / "linespace.py").read_text(encoding="utf-8")
    lattice = (PACKAGE / "lattice.py").read_text(encoding="utf-8")
    assert "lattice" in imported_modules(linespace)
    assert not defined_names(linespace) & defined_names(lattice)


def test_poly_builds_on_the_integer_forms_without_a_copy():
    # the kernels on integer forms moved from poly to zpoly, which imports
    # neither poly nor fractions when it loads, so a surface file is read,
    # checked and measured without them
    poly = (PACKAGE / "poly.py").read_text(encoding="utf-8")
    zpoly = (PACKAGE / "zpoly.py").read_text(encoding="utf-8")
    assert "zpoly" in imported_modules(poly)
    assert not defined_names(poly) & defined_names(zpoly)
    loaded = {
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.parse(zpoly).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not loaded & {"fractions", "decimal", "poly"}


def runtime_imports(source: str) -> set[str]:
    """The modules a source imports outside `if TYPE_CHECKING:` blocks."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            node.body = [ast.Pass()]
    return imported_modules(ast.unparse(tree))


@pytest.mark.parametrize("name", ["surfaces", "exceptional"])
def test_the_ruled_factor_analysis_builds_no_fraction(name):
    # a factor is read as its form, lines as lattices and points as scaled
    # pairs; surfaces imports poly only inside flecnode_polynomial, to build
    # its result, and exceptional, whose tangent pencil takes its gcd on
    # integer term maps, only for type checking
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert not runtime_imports(source) & {"fractions", "decimal", "linespace"}
    top_level = {
        node.module for node in ast.parse(source).body if isinstance(node, ast.ImportFrom)
    }
    assert "poly" not in top_level
    if name == "exceptional":
        assert "poly" not in runtime_imports(source)


def test_the_witness_has_one_determinant_path():
    # the Sylvester rows have one builder (zpoly.sylvester_rows), and poly
    # keeps no determinant, Taylor data or evaluation of its own
    poly = ast.parse((PACKAGE / "poly.py").read_text(encoding="utf-8"))
    names = defined_names(ast.unparse(poly))
    assert not names & {"matrix_determinant", "sylvester_determinant", "_taylor"}
    (cls,) = [node for node in poly.body if isinstance(node, ast.ClassDef) and node.name == "Poly"]
    assert "eval" not in {m.name for m in cls.body if isinstance(m, ast.FunctionDef)}
    builders = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and "sylvester" in node.name
    ]
    assert builders == ["zpoly.sylvester_rows", "zpoly.univariate_sylvester"]
