"""The three workloads: their seeded inputs, CLI calls and output checks.

A workload has a fixed, ordered op set.  One pass runs it PER_PASS times,
and the seed picks for each op a seeded variant of its instance, out of
VARIANTS; the variants of one spec differ within a pass.  Every
variant's reports were recorded at the seed commit in digests.json, so any
seed gets the full byte-identical check.  Instance sizes do not depend on
the seed, and each spec averages over PER_PASS or more variants, which keeps
the cost of a pass steady from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import exact

VARIANTS = 8
PER_PASS = 2

# run_cli(cli_args) -> exit code; runs `incgeo <cli_args>` in a fresh interpreter
RunCli = Callable[[list], int]


class SetupError(RuntimeError):
    """Input generation failed; no op can run."""


@dataclass(frozen=True)
class Op:
    spec: str
    variant: int

    @property
    def key(self) -> str:
        return f"{self.spec}/v{self.variant}"


def _gen(run_cli: RunCli, path: Path, *args: str) -> dict:
    code = run_cli(["gen", *args, "-o", str(path)])
    if code != 0:
        raise SetupError(f"incgeo gen {' '.join(args)} exited {code}")
    inst = exact.load(path)
    path.unlink()
    return inst


def _expect_counts(reports: dict, expected: dict, names: tuple) -> list[str]:
    errors = []
    for name in names:
        for field in ("m", "n", "incidences"):
            if reports[name].get(field) != expected[field]:
                errors.append(f"{name}: {field}={reports[name].get(field)!r}, expected {expected[field]}")
    return errors


class IncidenceProduct:
    """`incidence --prune 3` then `verify` on instances over the catalog surfaces.

    Points are the seeded ones plus every pairwise line intersection (for the
    cone that is the apex), so pruning and meeting counts see rich points.
    """

    name = "incidence_product"
    specs = {  # name: (kind, lines, seeded points); every kind with --exceptional
        "product-40": ("product", 40, 20),
        "cone-56": ("cone", 56, 40),
        "product-48": ("product", 48, 20),
        "whitney-20": ("whitney", 20, 30),
    }
    op_set = ("product-40", "cone-56", "product-48", "whitney-20")
    share = ("surfaces.exceptional_lines.share_of_incidence_cmd", "surfaces.exceptional_lines", "incidence")

    def make(self, op: Op, path: Path, run_cli: RunCli) -> None:
        kind, lines, points = self.specs[op.spec]
        inst = _gen(run_cli, path.with_suffix(".gen"), "--kind", kind, "--lines", str(lines),
                    "--points", str(points), "--seed", str(op.variant), "--exceptional")
        pts = exact.with_intersections(inst["points"], inst["lines"])
        exact.dump(path, 3, inst["surface"], pts, inst["lines"])

    def expect(self, op: Op, path: Path) -> dict:
        inst = exact.load(path)
        return {"m": len(inst["points"]), "n": len(inst["lines"]), "dim": 3,
                "incidences": exact.count_incidences(inst["points"], inst["lines"])}

    def commands(self, op: Op, path: Path, scratch: Path) -> list[list[str]]:
        return [["incidence", "--prune", "3", "--json-out", str(path)],
                ["verify", "--json-out", str(path)]]

    def check(self, op: Op, reports: dict, expected: dict, scratch: Path) -> list[str]:
        errors = _expect_counts(reports, expected, ("incidence", "verify"))
        if reports["verify"].get("within") is not True:
            errors.append("verify: bound not met")
        return errors

    def in_share(self, op: Op) -> bool:
        return True

    def size(self, expected: dict) -> str:
        return f"(m={expected['m']}, n={expected['n']})"


class ProjectLifted:
    """`project --seed k` on a lifted product instance, then `verify --degree 7`.

    The lifted instances have no surface, so the whole op is projection
    (the O(n^3) triple certificate) plus incidence bookkeeping.
    """

    name = "project_lifted"
    specs = {  # name: (lines, dimension, seeded points)
        "lift-20-r6": (20, 6, 30),
        "lift-22-r5": (22, 5, 30),
        "lift-18-r6": (18, 6, 30),
        "lift-24-r5": (24, 5, 30),
        "lift-20-r5": (20, 5, 30),
    }
    op_set = ("lift-20-r6", "lift-22-r5", "lift-18-r6", "lift-24-r5", "lift-20-r5")
    share = ("projection.is_generic.share_of_project_cmd", "projection.is_generic", "project")

    def make(self, op: Op, path: Path, run_cli: RunCli) -> None:
        lines, dim, points = self.specs[op.spec]
        inst = _gen(run_cli, path.with_suffix(".gen"), "--kind", "product", "--lines", str(lines),
                    "--points", str(points), "--seed", str(op.variant), "--dim", str(dim))
        exact.dump(path, dim, None, inst["points"], inst["lines"])

    def expect(self, op: Op, path: Path) -> dict:
        inst = exact.load(path)
        return {"m": len(inst["points"]), "n": len(inst["lines"]), "dim": inst["dim"],
                "incidences": exact.count_incidences(inst["points"], inst["lines"])}

    def commands(self, op: Op, path: Path, scratch: Path) -> list[list[str]]:
        out = str(scratch / "projected.json")
        return [["project", str(path), "--seed", str(op.variant), "-o", out, "--json-out"],
                ["verify", "--degree", "7", "--json-out", out]]

    def check(self, op: Op, reports: dict, expected: dict, scratch: Path) -> list[str]:
        proj = reports["project"]
        errors = []
        if (proj.get("dim_before"), proj.get("dim_after")) != (expected["dim"], 3):
            errors.append(f"project: dims {proj.get('dim_before')}->{proj.get('dim_after')}")
        if proj.get("ok") is not True:
            errors.append("project: certificate not ok")
        if (proj.get("m"), proj.get("n")) != (expected["m"], expected["n"]):
            errors.append("project: m or n changed")
        out = exact.load(scratch / "projected.json")
        got = (len(out["points"]), len(out["lines"]), exact.count_incidences(out["points"], out["lines"]))
        if out["dim"] != 3 or got != (expected["m"], expected["n"], expected["incidences"]):
            errors.append(f"projected file: dim={out['dim']} (m, n, I)={got}, expected "
                          f"{(expected['m'], expected['n'], expected['incidences'])}")
        return errors + _expect_counts(reports, expected, ("verify",))

    def in_share(self, op: Op) -> bool:
        return self.specs[op.spec][0] >= 20

    def size(self, expected: dict) -> str:
        return f"(m={expected['m']}, n={expected['n']}, R^{expected['dim']})"


class FlecnodeCubics:
    """`classify` on one sparse cubic surface without points or lines.

    Supports were fixed at the seed commit so that one op stays within a few
    seconds: 5-monomial ones are mostly interpreter start-up, the 6- and
    7-monomial ones spend their time in the flecnode witness.  Fully dense
    cubics are left out because one op takes 100-144 s, beyond a run.
    The seed draws the integer coefficients.
    """

    name = "flecnode_cubics"
    specs = {  # name: exponent support
        "c5a": ((1, 1, 0), (1, 0, 2), (1, 0, 1), (0, 0, 3), (0, 0, 2)),
        "c5b": ((1, 1, 1), (1, 0, 1), (0, 2, 0), (0, 0, 1), (0, 0, 0)),
        "c6a": ((1, 1, 0), (1, 0, 2), (1, 0, 1), (0, 2, 0), (0, 0, 3), (0, 0, 2)),
        "c7b": ((1, 1, 0), (1, 0, 2), (1, 0, 1), (0, 2, 0), (0, 0, 3), (0, 0, 2), (1, 0, 0)),
    }
    # Two start-up-bound ops (0.2-0.35 s) below three 6-monomial ops
    # (1.3-1.6 s) and two 7-monomial ones (3-4.5 s) above: the median
    # latency falls inside the 6-monomial group, not between groups.
    op_set = ("c5a", "c6a", "c7b", "c6a", "c5b", "c6a", "c7b")
    share = ("poly.matrix_determinant.share_of_classify_cmd", "poly.matrix_determinant", "classify")

    def __init__(self):
        self._base: dict = {}  # set-up directory -> its `incgeo gen` instance

    def make(self, op: Op, path: Path, run_cli: RunCli) -> None:
        # the file comes from `incgeo gen` on the catalog cubic, made once per
        # set-up directory, with its surface replaced by the seeded sparse cubic
        if path.parent not in self._base:
            self._base[path.parent] = _gen(run_cli, path.parent / "fermat.gen", "--kind", "fermat",
                                           "--lines", "0", "--points", "0")
        inst = self._base[path.parent]
        rng = random.Random(f"{op.spec}:{op.variant}")
        while True:
            terms = {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in self.specs[op.spec]}
            if exact.certified_square_free_cubic(terms):
                break
        exact.dump(path, inst["dim"], exact.cubic_surface(terms), inst["points"], inst["lines"])

    def expect(self, op: Op, path: Path) -> dict:
        return {"monomials": len(self.specs[op.spec])}

    def commands(self, op: Op, path: Path, scratch: Path) -> list[list[str]]:
        return [["classify", "--json-out", str(path)]]

    def check(self, op: Op, reports: dict, expected: dict, scratch: Path) -> list[str]:
        rep = reports["classify"]
        factors = rep.get("factors")
        if rep.get("degree") != 3 or not isinstance(factors, list) or len(factors) != 1:
            return [f"classify: unexpected shape {rep!r}"]
        if factors[0].get("degree") != 3 or not factors[0].get("verdict"):
            return [f"classify: unexpected factor {factors[0]!r}"]
        return []

    def in_share(self, op: Op) -> bool:
        return len(self.specs[op.spec]) >= 6

    def size(self, expected: dict) -> str:
        return f"({expected['monomials']} monomials)"


WORKLOADS = {w.name: w for w in (IncidenceProduct(), ProjectLifted(), FlecnodeCubics())}


def ops_for_seed(workload, seed: int) -> list[Op]:
    """One pass: the op set PER_PASS times, each time with other variants.

    All draws of one spec in a pass are distinct variants, so a spec that
    fills several positions averages over more of its variants.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    draws = {spec: rng.sample(range(VARIANTS), PER_PASS * workload.op_set.count(spec))
             for spec in dict.fromkeys(workload.op_set)}
    return [Op(spec, draws[spec].pop(0)) for _ in range(PER_PASS) for spec in workload.op_set]
