"""End-to-end tests of the command line front end.

Most tests call main() in-process and inspect stdout; one subprocess test
covers the installed console script. Reports must be byte-identical across
repeated runs, so anything time-dependent is asserted to live on stderr.
"""

import json
import subprocess
import sys

import pytest

from incgeo.cli import main
from incgeo.forge import IncidenceInstance, build_instance
from incgeo.incidence import count_incidences
from incgeo.instfile import load_instance, save_instance
from incgeo.poly import variables
from incgeo.surfaces import Surface

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


class TestErrorPaths:
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


class TestGoldenText:
    """Exact text reports on the product fixture, frozen from a known-good
    build; any change to a number or to the layout shows here."""

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
