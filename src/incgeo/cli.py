"""Command line front end.

Subcommands: gen, classify, flecnode, incidence, verify, project.  All
report text goes to stdout and is a pure function of the input file and
the seed; timing goes to stderr so repeated runs stay byte-identical.
Floats print at 15 significant digits, rationals as n/d strings.  Each
_cmd_* runs its command and returns (exit code, report dict); main prints
the dict as JSON under --json-out, else the lines its _text_* renders
from it.

Names resolve on first use: each _cmd_* imports the modules its command
runs when it runs, so building the parser loads only this module and
errors, and a call loads nothing its subcommand does not use (project,
gen and verify never load poly or surfaces: verify reads a surface's
degrees off its integer forms).

Exit codes: 0 success, 1 a checked invariant or claimed bound failed,
2 bad usage or unreadable input, 3 the input violates a command's
hypotheses (say a planar component without --planes).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING, Sequence

from . import SURFACE_KINDS
from .errors import (
    DegreeError,
    DomainError,
    ExceptionalLineError,
    IncGeoError,
    InvariantViolation,
    NotOnSurfaceError,
    PlanarComponentError,
    ResampleExhaustedError,
)

if TYPE_CHECKING:
    from .instfile import IncidenceInstance

USAGE_EXIT = 2
HYPOTHESIS_EXIT = 3

_HYPOTHESIS_ERRORS = (
    PlanarComponentError,
    NotOnSurfaceError,
    ExceptionalLineError,
    DegreeError,
    ResampleExhaustedError,
)


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _fill(templates: Sequence[str], report: dict, **overrides) -> list[str]:
    """Text lines: each template formatted with the report's fields, where
    overrides add or replace fields for display."""
    fields = {**report, **overrides}
    return [t.format_map(fields) for t in templates]


def _require_surface(inst: IncidenceInstance):
    if inst.surface is None:
        raise DomainError("this command needs an instance with a surface")
    return inst.surface


def _cmd_gen(args: argparse.Namespace) -> tuple[int, dict]:
    from .forge import build_instance
    from .instfile import save_instance

    inst = build_instance(
        args.kind,
        args.lines,
        args.points,
        seed=args.seed,
        dim=args.dim,
        include_exceptional=args.exceptional,
    )
    save_instance(inst, args.output)
    return 0, {"kind": args.kind, "m": inst.m, "n": inst.n, "dim": inst.dim}


def _text_gen(report: dict, args: argparse.Namespace) -> list[str]:
    return _fill(["kind={kind} m={m} n={n} dim={dim}"], report)


def _cmd_classify(args: argparse.Namespace) -> tuple[int, dict]:
    from .instfile import load_instance
    from .surfaces import classify_component

    inst = load_instance(args.file)
    surface = _require_surface(inst)
    factors = []
    for i, (form, degree) in enumerate(zip(surface.forms, surface.degrees)):
        hints = [lat for lat, owners in zip(inst.lattices, inst.containing) if i in owners]
        res = classify_component(form, hint_lines=hints)
        if res.apex is not None:  # a scaled point, written as the file writes points
            from .lattice import point_strings
        factors.append(
            {
                "index": i,
                "degree": degree,
                "verdict": res.verdict.value,
                "apex": None if res.apex is None else point_strings(res.apex),
                "complex_ruled_indicated": res.complex_ruled_indicated,
                "notes": res.notes,
            }
        )
    return 0, {"degree": surface.degree, "factors": factors}


def _text_classify(report: dict, args: argparse.Namespace) -> list[str]:
    out = [f"surface degree {report['degree']} with {len(report['factors'])} factor(s)"]
    for row in report["factors"]:
        line = "factor {index}: degree {degree} verdict {verdict}".format_map(row)
        if row["apex"] is not None:
            line += f" apex ({', '.join(row['apex'])})"
        if row["notes"]:
            line += f"  [{row['notes']}]"
        out.append(line)
    return out


def _cmd_flecnode(args: argparse.Namespace) -> tuple[int, dict]:
    from .instfile import load_instance
    from .surfaces import ruled_indicator

    inst = load_instance(args.file)
    surface = _require_surface(inst)
    factors = []
    for i, factor in enumerate(surface.factors):
        ind = ruled_indicator(factor)
        factors.append(
            {"index": i, "degree": factor.degree(),
             "witness_degree": ind.witness_degree, "divides": ind.indicated}
        )
    return 0, {"factors": factors}


def _text_flecnode(report: dict, args: argparse.Namespace) -> list[str]:
    out = []
    for row in report["factors"]:
        if row["witness_degree"] is None:
            tail = "ruled-indicated (below cubic, no witness)"
        else:
            tail = "witness degree {witness_degree} divides factor: {divides}"
        out += _fill(["factor {index}: degree {degree} " + tail], row, divides=_yes(row["divides"]))
    return out


def _cmd_incidence(args: argparse.Namespace) -> tuple[int, dict]:
    from .incidence import (
        check_meeting_cap,
        conical_incidence_count,
        decompose_lines,
        max_lines_per_flat,
        prune_points,
    )
    from .instfile import load_instance

    inst = load_instance(args.file)
    report: dict = {
        "m": inst.m,
        "n": inst.n,
        "dim": inst.dim,
        "incidences": inst.incidences,
        "s": max_lines_per_flat(inst.lattices),
    }
    if inst.surface is not None:
        decomp = decompose_lines(inst)
        conical = conical_incidence_count(decomp)
        kept = prune_points(decomp, min_incidences=args.prune)
        report.update(
            {
                "structured": len(decomp.structured),
                "generic": len(decomp.generic),
                "structured_cap": decomp.structured_cap,
                "conical": conical,
                "pruned_kept": len(kept),
                "meeting_worst": check_meeting_cap(decomp, kept),
                "meeting_cap": 4 * inst.surface.degree,
            }
        )
    return 0, report


def _text_incidence(report: dict, args: argparse.Namespace) -> list[str]:
    templates = ["m={m} n={n} dim={dim}", "incidences I={incidences}", "max lines per flat s={s}"]
    if "structured" in report:
        templates += [
            "structured lines |L0|={structured} (cap {structured_cap})",
            "generic lines |L1|={generic}",
            "conical incidences={conical}",
            "points kept at threshold {prune}: {pruned_kept}",
            "meeting cap: worst generic line meets {meeting_worst} <= {meeting_cap}",
        ]
    return _fill(templates, report, prune=args.prune)


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    from .incidence import verify_bound, verify_planes_bound
    from .instfile import load_instance

    inst = load_instance(args.file)
    if args.planes:
        bound = verify_planes_bound(inst, constant=args.constant)
    else:
        if inst.surface is not None and 1 in inst.surface.degrees:
            raise PlanarComponentError("surface has a planar component; rerun with --planes")
        if inst.surface is not None:
            degree = inst.surface.degree
        elif args.degree is not None:
            degree = args.degree
        else:
            raise DomainError("surfaceless instance: pass --degree for the bound")
        bound = verify_bound(inst, degree=degree, constant=args.constant)
    return (0 if bound.within else 1), {
        key: _fmt(value) if isinstance(value, float) else value
        for key, value in bound._asdict().items()
    }


def _text_verify(report: dict, args: argparse.Namespace) -> list[str]:
    templates = [
        "m={m} n={n} degree={degree} s={s}",
        "incidences I={incidences}",
        "xi={xi}",
        "rhs_st={rhs_st} rhs_gk={rhs_gk} rhs_main={rhs_main}",
        "ratio={ratio_main}",
        "within constant {constant}: {within}",
    ]
    return _fill(templates, report, within=_yes(report["within"]))


def _cmd_project(args: argparse.Namespace) -> tuple[int, dict]:
    from .instfile import IncidenceInstance, load_instance, save_instance
    from .projection import project_to_3space

    inst = load_instance(args.file)
    pts3, lns3, cert = project_to_3space(inst.scaled, inst.lattices, seed=args.seed)
    out = IncidenceInstance.from_forms(None, pts3, lns3)
    save_instance(out, args.output)
    return (0 if cert.ok else 1), {
        "dim_before": inst.dim,
        "dim_after": out.dim,
        "m": out.m,
        "n": out.n,
        "resamples": cert.resamples_used,
        "ok": cert.ok,
    }


def _text_project(report: dict, args: argparse.Namespace) -> list[str]:
    templates = [
        "projected dim {dim_before} -> {dim_after}",
        "m={m} n={n} resamples={resamples}",
        "certificate ok: {ok}",
    ]
    return _fill(templates, report, ok=_yes(report["ok"]))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incgeo",
        description="Exact line geometry on low-degree surfaces and incidence bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-out", action="store_true",
                        help="print the report as JSON instead of text")

    gen = sub.add_parser("gen", parents=[common],
                         help="generate a seeded instance on a catalog surface")
    gen.add_argument("--kind", choices=SURFACE_KINDS, required=True)
    gen.add_argument("--lines", type=int, required=True)
    gen.add_argument("--points", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--dim", type=int, default=3)
    gen.add_argument("--exceptional", action="store_true",
                     help="include the singular axis where the surface has one")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_gen, text=_text_gen)

    classify = sub.add_parser("classify", parents=[common],
                              help="classify each surface factor")
    classify.add_argument("file")
    classify.set_defaults(func=_cmd_classify, text=_text_classify)

    flec = sub.add_parser("flecnode", parents=[common],
                          help="flecnode witness and divisibility per factor")
    flec.add_argument("file")
    flec.set_defaults(func=_cmd_flecnode, text=_text_flecnode)

    inc = sub.add_parser("incidence", parents=[common],
                         help="incidence statistics and decomposition")
    inc.add_argument("file")
    inc.add_argument("--prune", type=int, default=4,
                     help="point threshold for the pruning pass")
    inc.set_defaults(func=_cmd_incidence, text=_text_incidence)

    ver = sub.add_parser("verify", parents=[common],
                         help="check the incidence count against the bound")
    ver.add_argument("file")
    ver.add_argument("--planes", action="store_true",
                     help="use the plane-arrangement bound instead")
    ver.add_argument("--constant", type=float, default=4.0)
    ver.add_argument("--degree", type=int, default=None,
                     help="degree to assume for a surfaceless instance")
    ver.set_defaults(func=_cmd_verify, text=_text_verify)

    proj = sub.add_parser("project", parents=[common],
                          help="project a lifted instance back to 3-space")
    proj.add_argument("file")
    proj.add_argument("--seed", type=int, default=0)
    proj.add_argument("-o", "--output", required=True)
    proj.set_defaults(func=_cmd_project, text=_text_project)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code, report = args.func(args)
        if args.json_out:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            for line in args.text(report, args):
                print(line)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except _HYPOTHESIS_ERRORS as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return HYPOTHESIS_EXIT
    except IncGeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
