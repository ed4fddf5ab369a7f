"""End-to-end tests of the command line front end.

Most tests call main() in-process and inspect stdout; one subprocess test
covers the installed console script. Reports must be byte-identical across
repeated runs, so anything time-dependent is asserted to live on stderr.
"""

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from incgeo.cli import main
from incgeo.forge import build_instance
from incgeo.incidence import count_incidences
from incgeo.instfile import MAX_DIM, IncidenceInstance, load_instance, save_instance
from incgeo.poly import variables
from incgeo.surfaces import Surface
from polyref import substitute

X, Y, Z = variables(3)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def product_file(tmp_path, capsys):
    path = tmp_path / "prod.json"
    code, _, _ = run(
        capsys, "gen", "--kind", "product", "--lines", "19", "--points", "25",
        "--seed", "3", "-o", str(path),
    )
    assert code == 0
    return path


class TestGen:
    def test_writes_instance_and_summary(self, tmp_path, capsys):
        path = tmp_path / "cone.json"
        code, out, _ = run(
            capsys, "gen", "--kind", "cone", "--lines", "6", "--points", "10",
            "--seed", "1", "-o", str(path),
        )
        assert code == 0
        assert out == "kind=cone m=10 n=6 dim=3\n"
        inst = load_instance(path)
        assert (inst.m, inst.n) == (10, 6)

    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(capsys, "gen", "--kind", "whitney", "--lines", "7", "--points", "12",
                "--seed", "9", "-o", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_lifted_gen(self, tmp_path, capsys):
        path = tmp_path / "lift.json"
        code, out, _ = run(
            capsys, "gen", "--kind", "regulus", "--lines", "8", "--points", "20",
            "--seed", "1", "--dim", "6", "-o", str(path),
        )
        assert code == 0 and "dim=6" in out
        assert load_instance(path).surface is None

    def test_line_free_kind_fails_usefully(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--kind", "sphere", "--lines", "2", "--points", "4",
            "-o", str(tmp_path / "s.json"),
        )
        assert code == 2
        assert "no real lines" in err

    def test_empty_lifted_instance_refused(self, tmp_path, capsys):
        # no point or line would carry the dimension: the file would say 3
        path = tmp_path / "empty.json"
        code, out, err = run(
            capsys, "gen", "--kind", "sphere", "--lines", "0", "--points", "0",
            "--dim", "6", "-o", str(path),
        )
        assert (code, out) == (2, "")
        assert "has dim 3, not 6" in err
        assert not path.exists()
        code, out, _ = run(
            capsys, "gen", "--kind", "sphere", "--lines", "0", "--points", "0",
            "-o", str(path),
        )
        assert (code, out) == (0, "kind=sphere m=0 n=0 dim=3\n")


class TestClassify:
    def test_product_verdicts(self, product_file, capsys):
        code, out, _ = run(capsys, "classify", str(product_file))
        assert code == 0
        assert "surface degree 7 with 3 factor(s)" in out
        assert "verdict Cone apex (0, 0, 0)" in out
        assert "verdict Regulus" in out
        assert "verdict SinglyRuled" in out

    def test_json_output(self, product_file, capsys):
        code, out, _ = run(capsys, "classify", str(product_file), "--json-out")
        assert code == 0
        data = json.loads(out)
        verdicts = [f["verdict"] for f in data["factors"]]
        assert verdicts == ["Cone", "Regulus", "SinglyRuled"]
        assert data["factors"][0]["apex"] == ["0", "0", "0"]

    def test_needs_surface(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        save_instance(IncidenceInstance(None, [], []), path)
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert "surface" in err


class TestFlecnode:
    def test_witness_summary(self, product_file, capsys):
        code, out, _ = run(capsys, "flecnode", str(product_file))
        assert code == 0
        assert "factor 2: degree 3 witness degree 12 divides factor: yes" in out

    def test_json_output(self, product_file, capsys):
        code, out, _ = run(capsys, "flecnode", str(product_file), "--json-out")
        assert code == 0
        data = json.loads(out)
        assert data["factors"][0]["witness_degree"] is None
        assert data["factors"][2] == {
            "index": 2, "degree": 3, "witness_degree": 12, "divides": True,
        }

    @pytest.mark.parametrize(
        "cone, report",
        [
            (X**3 + Y**2 * Z - 2 * Z**3 + X * Y * Z,
             "factor 0: degree 3 witness degree 15 divides factor: yes\n"),
            (X**4 + Y**3 * Z - 2 * Z**4 + X * Y * Z**2,
             "factor 0: degree 4 witness degree 26 divides factor: yes\n"),
        ],
        ids=["cubic", "quartic"],
    )
    def test_cone_off_the_origin(self, tmp_path, capsys, cone, report):
        # the witness is built at the apex (1, -2, 3), where the moved cone is
        # its own top-degree part; built on the moved polynomial, the same
        # report took 6 s for the cubic and 38-83 s for the quartic
        path = tmp_path / "moved.json"
        moved = substitute(cone, [X - 1, Y + 2, Z - 3])
        save_instance(IncidenceInstance(Surface([moved]), [], []), path)
        started = time.perf_counter()
        code, out, _ = run(capsys, "flecnode", str(path))
        assert (code, out) == (0, report)
        assert time.perf_counter() - started < 5


class TestIncidence:
    def test_statistics(self, product_file, capsys):
        code, out, _ = run(capsys, "incidence", str(product_file), "--json-out")
        assert code == 0
        data = json.loads(out)
        assert (data["m"], data["n"], data["dim"]) == (25, 19, 3)
        assert data["incidences"] == count_incidences(
            load_instance(product_file).points, load_instance(product_file).lines
        )
        assert data["meeting_worst"] <= data["meeting_cap"] == 28
        assert data["structured_cap"] == 56

    def test_surfaceless_reports_counts_only(self, tmp_path, capsys):
        path = tmp_path / "lift.json"
        run(capsys, "gen", "--kind", "cone", "--lines", "5", "--points", "8",
            "--seed", "2", "--dim", "4", "-o", str(path))
        code, out, _ = run(capsys, "incidence", str(path), "--json-out")
        assert code == 0
        data = json.loads(out)
        assert "structured" not in data
        assert data["dim"] == 4


class TestVerify:
    def test_cone_reference_ratio(self, tmp_path, capsys):
        path = tmp_path / "cone.json"
        run(capsys, "gen", "--kind", "cone", "--lines", "20", "--points", "200",
            "--seed", "3", "-o", str(path))
        code, out, _ = run(capsys, "verify", str(path), "--json-out")
        assert code == 0
        data = json.loads(out)
        assert data["within"] is True
        assert abs(float(data["ratio_main"]) - 0.5293) < 0.001
        assert data["s"] == 2

    def test_tiny_constant_fails_with_exit_one(self, product_file, capsys):
        code, out, _ = run(capsys, "verify", str(product_file), "--constant", "0.001")
        assert code == 1
        assert "within constant 0.001: no" in out

    @pytest.mark.parametrize("constant", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("planes", [False, True])
    def test_meaningless_constant_exits_two(self, product_file, capsys, constant, planes):
        argv = ["verify", str(product_file), "--constant", constant] + ["--planes"] * planes
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "bound constant must be a positive finite number" in err

    def test_surfaceless_needs_degree(self, tmp_path, capsys):
        path = tmp_path / "lift.json"
        run(capsys, "gen", "--kind", "regulus", "--lines", "6", "--points", "9",
            "--seed", "4", "--dim", "5", "-o", str(path))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and "--degree" in err
        code, out, _ = run(capsys, "verify", str(path), "--degree", "2", "--json-out")
        assert code == 0
        assert json.loads(out)["within"] is True

    def test_planar_component_needs_flag(self, tmp_path, capsys):
        path = tmp_path / "plane.json"
        pts = [(x, y, 0) for x in range(3) for y in range(3)]
        save_instance(IncidenceInstance(Surface([Z]), pts, []), path)
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        assert "--planes" in err
        code, out, _ = run(capsys, "verify", str(path), "--planes")
        assert code == 0


@pytest.fixture(scope="module")
def product500(tmp_path_factory):
    path = tmp_path_factory.mktemp("product500") / "product500.json"
    assert main(["gen", "--kind", "product", "--lines", "500", "--points", "200",
                 "--seed", "7", "-o", str(path)]) == 0
    return path


# 500 lines on 3 factors, one line on two of them: the instance tests each
# line up to its first factor (999 calls), and containing, read only by
# incidence and classify, tests the factors after it (501 more); each test
# is lattice's integer restriction of the factor to the line
@pytest.mark.parametrize(
    "command, calls", [("verify", 999), ("flecnode", 999), ("incidence", 1500), ("classify", 1500)]
)
def test_containment_stops_at_the_first_owner(product500, monkeypatch, capsys, command, calls):
    import incgeo.lattice as lattice

    tested = []
    lattice_on_surface = lattice.lattice_on_surface

    # instfile imports the test where it runs it; only its calls are counted
    def counted(f, lat):
        if sys._getframe(1).f_globals["__name__"] == "incgeo.instfile":
            tested.append(lat)
        return lattice_on_surface(f, lat)

    monkeypatch.setattr(lattice, "lattice_on_surface", counted)
    code, _, _ = run(capsys, command, str(product500))
    assert code == 0
    assert len(tested) == calls


class TestProject:
    def test_round_trip_preserves_counts(self, tmp_path, capsys):
        lifted = tmp_path / "lift.json"
        run(capsys, "gen", "--kind", "product", "--lines", "10", "--points", "16",
            "--seed", "5", "--dim", "6", "-o", str(lifted))
        before = load_instance(lifted)
        out_path = tmp_path / "proj.json"
        code, out, _ = run(capsys, "project", str(lifted), "--seed", "2",
                           "-o", str(out_path))
        assert code == 0
        assert "projected dim 6 -> 3" in out
        after = load_instance(out_path)
        assert after.dim == 3
        assert (after.m, after.n) == (before.m, before.n)
        assert count_incidences(after.points, after.lines) == count_incidences(
            before.points, before.lines
        )


    # sha256 of the written file, recorded with the Fraction projection step
    # that the integer step replaced: the golden lifted file, and a cone
    # lift in R^5 whose lines all meet at the apex
    @pytest.mark.parametrize(
        "kind, lines, points, seed, dim, project_seed, digest",
        [
            ("product", 10, 16, 5, 6, 2,
             "c798558085696c0b71d3d4fb701396f929e7fe206c66faf854d5ace00a77c9ce"),
            ("cone", 12, 30, 1, 5, 3,
             "c9fc39992cf97ddef80ab9f1913d18da68d1c00186196b8c0a9f6ed29cac1276"),
        ],
        ids=["product-r6", "cone-r5"],
    )
    def test_projected_file_bytes_are_pinned(
        self, tmp_path, capsys, kind, lines, points, seed, dim, project_seed, digest
    ):
        lifted, out_path = tmp_path / "lift.json", tmp_path / "proj.json"
        code, _, _ = run(capsys, "gen", "--kind", kind, "--lines", str(lines), "--points", str(points),
                         "--seed", str(seed), "--dim", str(dim), "-o", str(lifted))
        assert code == 0
        code, _, _ = run(capsys, "project", str(lifted), "--seed", str(project_seed),
                         "-o", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


class TestErrorPaths:
    def test_empty_instance_with_dim_above_three(self, tmp_path, capsys):
        # read back, it would report and write dim 3
        path = tmp_path / "empty6.json"
        path.write_text(json.dumps(
            {"dim": 6, "surface": None, "points": [], "lines": []}
        ), encoding="utf-8")
        out_path = tmp_path / "proj.json"
        code, out, err = run(capsys, "project", str(path), "-o", str(out_path))
        assert (code, out) == (2, "")
        assert "has dim 3, not 6" in err
        assert not out_path.exists()

    def test_dimension_above_the_cap_exits_two(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        dim = MAX_DIM + 1
        line = {"base": ["0"] * dim, "dir": ["1"] + ["0"] * (dim - 1)}
        path.write_text(json.dumps(
            {"dim": dim, "surface": None, "points": [["0"] * dim], "lines": [line]}
        ), encoding="utf-8")
        code, out, err = run(capsys, "project", str(path), "-o", str(tmp_path / "out.json"))
        assert (code, out) == (2, "")
        assert f"dimension {dim} exceeds the cap {MAX_DIM}" in err

    def test_lift_above_the_cap_exits_two_fast(self, tmp_path, capsys):
        # without the cap the lift took 6 s at dim 96, in the rank of its matrix
        out_path = tmp_path / "wide.json"
        started = time.perf_counter()
        code, out, err = run(capsys, "gen", "--kind", "cone", "--lines", "3", "--points", "3",
                             "--dim", "1000", "-o", str(out_path))
        assert (code, out) == (2, "")
        assert f"exceeds the cap {MAX_DIM}" in err
        assert time.perf_counter() - started < 1.0
        assert not out_path.exists()

    def test_unreadable_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "incidence", str(tmp_path / "missing.json"))
        assert code == 2 and "cannot read" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("wat", encoding="utf-8")
        code, _, err = run(capsys, "flecnode", str(path))
        assert code == 2 and "not valid JSON" in err

    def test_oversized_json_integer(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"dim": ' + "9" * 5000 + "}", encoding="utf-8")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and "not valid JSON" in err

    @pytest.mark.parametrize("where", ["point", "base", "dir"])
    def test_coordinate_past_the_int_digit_limit(self, tmp_path, capsys, where):
        # 4,301 digits is one past Python's limit on int string conversion
        path = tmp_path / "long.json"
        long = "1" * 4301
        obj = {"dim": 3, "surface": None, "points": [["0", "0", "0"]],
               "lines": [{"base": ["0", "0", "0"], "dir": ["1", "0", "0"]}]}
        if where == "point":
            obj["points"][0][1] = long
        else:
            obj["lines"][0][where][1] = "1/" + long
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run(capsys, "verify", "--degree", "7", str(path))
        assert code == 2 and out == ""
        assert "error: bad rational" in err

    def test_huge_exponent_exits_fast(self, tmp_path, capsys):
        # z - xy + y^2000 with one line: checking the line against the surface
        # would expand the power, which takes tens of seconds
        path = tmp_path / "deg.json"
        terms = [{"n": 1, "d": 1, "e": e} for e in ([0, 0, 1], [0, 2000, 0])]
        terms.append({"n": -1, "d": 1, "e": [1, 1, 0]})
        path.write_text(json.dumps({
            "dim": 3,
            "surface": {"vars": 3, "factors": [{"terms": terms}]},
            "points": [],
            "lines": [{"base": ["1", "1", "1"], "dir": ["1", "2", "3"]}],
        }), encoding="utf-8")
        started = time.perf_counter()
        code, _, err = run(capsys, "incidence", str(path))
        assert time.perf_counter() - started < 1.0
        assert code == 2 and "exceeds the cap" in err

    def test_monomial_square_factor_exits_fast(self, tmp_path, capsys):
        # x^3 divides every term of this degree-12 factor: the gcd of it and
        # its partials ran past 30 s, and x^2 dividing every term refutes it
        path = tmp_path / "x3.json"
        terms = [
            (-2, [12, 0, 0]), (-1, [11, 1, 0]), (2, [10, 2, 0]), (-2, [9, 1, 2]), (2, [6, 5, 1]),
            (-3, [3, 8, 1]), (-2, [9, 2, 0]), (3, [9, 0, 2]), (-2, [3, 8, 0]), (3, [7, 0, 3]),
            (2, [5, 5, 0]), (-1, [3, 2, 1]),
        ]
        path.write_text(json.dumps({
            "dim": 3,
            "surface": {"vars": 3, "factors": [{"terms": [{"n": n, "d": 1, "e": e} for n, e in terms]}]},
            "points": [],
            "lines": [],
        }), encoding="utf-8")
        started = time.perf_counter()
        code, _, err = run(capsys, "verify", "--degree", "12", str(path))
        assert time.perf_counter() - started < 1.0
        assert code == 2 and "is not square-free" in err

    def test_dense_factor_exits_fast(self, tmp_path, capsys):
        # every monomial of degree at most 64 (47,905 terms, 1.7 MB) with one
        # line: checking the line against it used to take minutes
        path = tmp_path / "dense.json"
        terms = [
            {"n": 1, "d": 1, "e": [i, j, k]}
            for i in range(65) for j in range(65 - i) for k in range(65 - i - j)
        ]
        path.write_text(json.dumps({
            "dim": 3,
            "surface": {"vars": 3, "factors": [{"terms": terms}]},
            "points": [],
            "lines": [{"base": ["1", "1", "1"], "dir": ["1", "2", "3"]}],
        }), encoding="utf-8")
        started = time.perf_counter()
        code, _, err = run(capsys, "incidence", str(path))
        assert time.perf_counter() - started < 1.0
        assert code == 2 and "47905 terms exceeds the cap" in err

    @pytest.mark.parametrize("command", ["incidence", "verify", "classify", "flecnode"])
    def test_many_factors_exit_fast(self, tmp_path, capsys, command):
        # eight distinct dense quintics (every monomial of degree at most 5)
        # and a line on none of them: the line is checked against each
        # factor, never against their degree-40 product, and every command
        # that reads the surface refuses the instance
        path = tmp_path / "quintics.json"
        monomials = [
            [i, j, k] for i in range(6) for j in range(6 - i) for k in range(6 - i - j)
        ]
        factors = [
            {"terms": [{"n": c if e == [0, 0, 0] else 1, "d": 1, "e": e} for e in monomials]}
            for c in range(2, 10)
        ]
        path.write_text(json.dumps({
            "dim": 3,
            "surface": {"vars": 3, "factors": factors},
            "points": [],
            "lines": [{"base": ["1", "1", "1"], "dir": ["1", "2", "3"]}],
        }), encoding="utf-8")
        started = time.perf_counter()
        code, out, err = run(capsys, command, str(path))
        assert time.perf_counter() - started < 1.0
        assert code == 2 and out == "" and "an instance line misses the surface" in err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "incgeo", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: incgeo ")

    def test_argparse_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["nosuchcommand"])
        assert exc.value.code == 2


PRODUCT_INCIDENCE_PRUNE_3 = """\
m=25 n=19 dim=3
incidences I=27
max lines per flat s=3
structured lines |L0|=1 (cap 56)
generic lines |L1|=18
conical incidences=0
points kept at threshold 3: 0
meeting cap: worst generic line meets 0 <= 28
"""

PRODUCT_INCIDENCE_PRUNE_2 = """\
m=25 n=19 dim=3
incidences I=27
max lines per flat s=3
structured lines |L0|=1 (cap 56)
generic lines |L1|=18
conical incidences=0
points kept at threshold 2: 2
meeting cap: worst generic line meets 2 <= 28
"""

PRODUCT_VERIFY = """\
m=25 n=19 degree=7 s=3
incidences I=27
xi=3
rhs_st=104.878284576121 rhs_gk=122.406716243347 rhs_main=134.567034799561
ratio=0.200643493707183
within constant 4: yes
"""


PRODUCT_GEN = "kind=product m=25 n=19 dim=3\n"

PRODUCT_GEN_JSON = """\
{
  "dim": 3,
  "kind": "product",
  "m": 25,
  "n": 19
}
"""

PRODUCT_CLASSIFY = """\
surface degree 7 with 3 factor(s)
factor 0: degree 2 verdict Cone apex (0, 0, 0)
factor 1: degree 2 verdict Regulus
factor 2: degree 3 verdict SinglyRuled
"""

PRODUCT_CLASSIFY_JSON = """\
{
  "degree": 7,
  "factors": [
    {
      "apex": [
        "0",
        "0",
        "0"
      ],
      "complex_ruled_indicated": true,
      "degree": 2,
      "index": 0,
      "notes": "",
      "verdict": "Cone"
    },
    {
      "apex": null,
      "complex_ruled_indicated": true,
      "degree": 2,
      "index": 1,
      "notes": "",
      "verdict": "Regulus"
    },
    {
      "apex": null,
      "complex_ruled_indicated": true,
      "degree": 3,
      "index": 2,
      "notes": "",
      "verdict": "SinglyRuled"
    }
  ]
}
"""

QUADRICS_CLASSIFY = """\
surface degree 4 with 2 factor(s)
factor 0: degree 2 verdict SinglyRuled  [rank-3 quadric with vertex at infinity (cylinder)]
factor 1: degree 2 verdict Cone apex (1/2, 0, 0)
"""

QUADRICS_CLASSIFY_JSON = """\
{
  "degree": 4,
  "factors": [
    {
      "apex": null,
      "complex_ruled_indicated": true,
      "degree": 2,
      "index": 0,
      "notes": "rank-3 quadric with vertex at infinity (cylinder)",
      "verdict": "SinglyRuled"
    },
    {
      "apex": [
        "1/2",
        "0",
        "0"
      ],
      "complex_ruled_indicated": true,
      "degree": 2,
      "index": 1,
      "notes": "",
      "verdict": "Cone"
    }
  ]
}
"""

PRODUCT_FLECNODE = """\
factor 0: degree 2 ruled-indicated (below cubic, no witness)
factor 1: degree 2 ruled-indicated (below cubic, no witness)
factor 2: degree 3 witness degree 12 divides factor: yes
"""

PRODUCT_FLECNODE_JSON = """\
{
  "factors": [
    {
      "degree": 2,
      "divides": true,
      "index": 0,
      "witness_degree": null
    },
    {
      "degree": 2,
      "divides": true,
      "index": 1,
      "witness_degree": null
    },
    {
      "degree": 3,
      "divides": true,
      "index": 2,
      "witness_degree": 12
    }
  ]
}
"""

PRODUCT_VERIFY_PLANES = """\
m=25 n=19 degree=1 s=3
incidences I=27
xi=0
rhs_st=104.878284576121 rhs_gk=122.406716243347 rhs_main=61.7844665224503
ratio=0.437003044935075
within constant 4: yes
"""

LIFTED_INCIDENCE = """\
m=16 n=10 dim=6
incidences I=16
max lines per flat s=3
"""

LIFTED_VERIFY_DEGREE_3 = """\
m=16 n=10 degree=3 s=3
incidences I=16
xi=3
rhs_st=55.4722519891231 rhs_gk=68.2233496022577 rhs_main=66.957714923825
ratio=0.238956780681696
within constant 4: yes
"""

LIFTED_PROJECT = """\
projected dim 6 -> 3
m=16 n=10 resamples=0
certificate ok: yes
"""

LIFTED_PROJECT_JSON = """\
{
  "dim_after": 3,
  "dim_before": 6,
  "m": 16,
  "n": 10,
  "ok": true,
  "resamples": 0
}
"""

PRODUCT_GEN_ARGS = ("gen", "--kind", "product", "--lines", "19", "--points", "25",
                    "--seed", "3", "-o", "{out}")


@pytest.fixture()
def golden_files(tmp_path, capsys, product_file):
    """Paths substituted into the golden argv: the product fixture, a lifted
    product instance in R^6, two quadrics without lines and an output path."""
    lifted = tmp_path / "lift.json"
    code, _, _ = run(
        capsys, "gen", "--kind", "product", "--lines", "10", "--points", "16",
        "--seed", "5", "--dim", "6", "-o", str(lifted),
    )
    assert code == 0
    quadrics = tmp_path / "quadrics.json"
    cylinder, cone = X**2 + Y**2 - 1, (X - F(1, 2)) ** 2 + Y**2 - Z**2
    save_instance(IncidenceInstance(Surface([cylinder, cone]), [], []), quadrics)
    return {"product": str(product_file), "lifted": str(lifted),
            "quadrics": str(quadrics), "out": str(tmp_path / "out.json")}


class TestGoldenText:
    """Exact stdout and exit code of every subcommand, text and JSON, frozen
    from a known-good build; any change to a number or to the layout shows
    here."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("incidence", "--prune", "3"), PRODUCT_INCIDENCE_PRUNE_3),
            (("incidence", "--prune", "2"), PRODUCT_INCIDENCE_PRUNE_2),
            (("verify",), PRODUCT_VERIFY),
        ],
        ids=["incidence-prune-3", "incidence-prune-2", "verify"],
    )
    def test_full_stdout(self, product_file, capsys, argv, expected):
        code, out, _ = run(capsys, argv[0], str(product_file), *argv[1:])
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (PRODUCT_GEN_ARGS, PRODUCT_GEN),
            (PRODUCT_GEN_ARGS + ("--json-out",), PRODUCT_GEN_JSON),
            (("classify", "{product}"), PRODUCT_CLASSIFY),
            (("classify", "{product}", "--json-out"), PRODUCT_CLASSIFY_JSON),
            (("classify", "{quadrics}"), QUADRICS_CLASSIFY),
            (("classify", "{quadrics}", "--json-out"), QUADRICS_CLASSIFY_JSON),
            (("flecnode", "{product}"), PRODUCT_FLECNODE),
            (("flecnode", "{product}", "--json-out"), PRODUCT_FLECNODE_JSON),
            (("incidence", "{lifted}"), LIFTED_INCIDENCE),
            (("verify", "{product}", "--planes"), PRODUCT_VERIFY_PLANES),
            (("verify", "{lifted}", "--degree", "3"), LIFTED_VERIFY_DEGREE_3),
            (("project", "{lifted}", "--seed", "2", "-o", "{out}"), LIFTED_PROJECT),
            (("project", "{lifted}", "--seed", "2", "-o", "{out}", "--json-out"),
             LIFTED_PROJECT_JSON),
        ],
        ids=[
            "gen", "gen-json", "classify", "classify-json", "classify-quadrics",
            "classify-quadrics-json", "flecnode", "flecnode-json",
            "incidence-surfaceless", "verify-planes", "verify-degree", "project",
            "project-json",
        ],
    )
    def test_every_subcommand(self, golden_files, capsys, argv, expected):
        code, out, _ = run(capsys, *(a.format(**golden_files) for a in argv))
        assert code == 0
        assert out == expected


class TestDeterminism:
    def test_reports_are_byte_identical(self, product_file, capsys):
        _, out1, err1 = run(capsys, "incidence", str(product_file), "--json-out")
        _, out2, err2 = run(capsys, "incidence", str(product_file), "--json-out")
        assert out1 == out2
        assert err1.startswith("elapsed ") and err2.startswith("elapsed ")

    def test_console_script_runs(self, product_file, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "incgeo.cli", "verify", str(product_file)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "within constant 4: yes" in proc.stdout
        assert "elapsed" in proc.stderr and "elapsed" not in proc.stdout
