"""Command line front end.

Subcommands: gen, classify, flecnode, incidence, verify, project.  All
report text goes to stdout and is a pure function of the input file and
the seed; timing goes to stderr so repeated runs stay byte-identical.
Floats print at 15 significant digits, rationals as n/d strings.

Exit codes: 0 success, 1 a checked invariant or claimed bound failed,
2 bad usage or unreadable input, 3 the input violates a command's
hypotheses (say a planar component without --planes).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from .errors import (
    ArityError,
    DegenerateLineError,
    DegreeError,
    DomainError,
    ExceptionalLineError,
    IncGeoError,
    InvariantViolation,
    NotOnSurfaceError,
    ParseError,
    PlanarComponentError,
    ResampleExhaustedError,
    SingularPointError,
)
from .forge import SURFACE_KINDS, IncidenceInstance, build_instance
from .incidence import (
    IncidenceTable,
    check_meeting_cap,
    conical_incidence_count,
    decompose_lines,
    max_lines_per_flat,
    prune_points,
    verify_bound,
    verify_planes_bound,
)
from .instfile import format_rational, load_instance, save_instance
from .projection import project_to_3space
from .surfaces import classify_component, flecnode_polynomial, ruled_indicator
from .poly import divides

USAGE_EXIT = 2
HYPOTHESIS_EXIT = 3

_HYPOTHESIS_ERRORS = (
    PlanarComponentError,
    NotOnSurfaceError,
    ExceptionalLineError,
    DegreeError,
    SingularPointError,
    ResampleExhaustedError,
)
_USAGE_ERRORS = (ParseError, DomainError, ArityError, DegenerateLineError)


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _fmt_vec(v) -> str:
    return "(" + ", ".join(format_rational(c) for c in v) + ")"


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _require_surface(inst: IncidenceInstance):
    if inst.surface is None:
        raise DomainError("this command needs an instance with a surface")
    return inst.surface


def _cmd_gen(args: argparse.Namespace) -> int:
    inst = build_instance(
        args.kind,
        args.lines,
        args.points,
        seed=args.seed,
        dim=args.dim,
        include_exceptional=args.exceptional,
    )
    save_instance(inst, args.output)
    if args.json_out:
        _emit_json({"kind": args.kind, "m": inst.m, "n": inst.n, "dim": inst.dim})
    else:
        print(f"kind={args.kind} m={inst.m} n={inst.n} dim={inst.dim}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    inst = load_instance(args.file)
    surface = _require_surface(inst)
    rows = []
    for i, factor in enumerate(surface.factors):
        hints = tuple(ln for ln in inst.lines if ln.dim == 3)
        result = classify_component(factor, hint_lines=hints)
        rows.append((i, factor.degree(), result))
    if args.json_out:
        _emit_json(
            {
                "degree": surface.degree,
                "factors": [
                    {
                        "index": i,
                        "degree": deg,
                        "verdict": res.verdict.value,
                        "apex": None if res.apex is None else
                        [format_rational(c) for c in res.apex],
                        "complex_ruled_indicated": res.complex_ruled_indicated,
                        "notes": res.notes,
                    }
                    for i, deg, res in rows
                ],
            }
        )
        return 0
    print(f"surface degree {surface.degree} with {len(surface.factors)} factor(s)")
    for i, deg, res in rows:
        line = f"factor {i}: degree {deg} verdict {res.verdict.value}"
        if res.apex is not None:
            line += f" apex {_fmt_vec(res.apex)}"
        if res.notes:
            line += f"  [{res.notes}]"
        print(line)
    return 0


def _cmd_flecnode(args: argparse.Namespace) -> int:
    inst = load_instance(args.file)
    surface = _require_surface(inst)
    rows = []
    for i, factor in enumerate(surface.factors):
        deg = factor.degree()
        if deg < 3:
            indication = ruled_indicator(factor)
            rows.append((i, deg, None, indication.indicated))
        else:
            witness = flecnode_polynomial(factor)
            rows.append((i, deg, witness.degree(), divides(factor, witness)))
    if args.json_out:
        _emit_json(
            {
                "factors": [
                    {
                        "index": i,
                        "degree": deg,
                        "witness_degree": wdeg,
                        "divides": div,
                    }
                    for i, deg, wdeg, div in rows
                ]
            }
        )
        return 0
    for i, deg, wdeg, div in rows:
        if wdeg is None:
            print(f"factor {i}: degree {deg} ruled-indicated (below cubic, no witness)")
        else:
            yesno = "yes" if div else "no"
            print(f"factor {i}: degree {deg} witness degree {wdeg} divides factor: {yesno}")
    return 0


def _cmd_incidence(args: argparse.Namespace) -> int:
    inst = load_instance(args.file)
    table = IncidenceTable(inst.points, inst.lines)
    total = table.total
    s = max_lines_per_flat(inst.lines)
    report: dict = {"m": inst.m, "n": inst.n, "dim": inst.dim, "incidences": total, "s": s}
    lines_out = [
        f"m={inst.m} n={inst.n} dim={inst.dim}",
        f"incidences I={total}",
        f"max lines per flat s={s}",
    ]
    if inst.surface is not None:
        decomp = decompose_lines(inst.surface, inst.lines)
        conical = conical_incidence_count(decomp, table)
        kept = prune_points(decomp, table, min_incidences=args.prune)
        worst = check_meeting_cap(decomp, table, kept)
        report.update(
            {
                "structured": len(decomp.structured),
                "generic": len(decomp.generic),
                "structured_cap": decomp.structured_cap,
                "conical": conical,
                "pruned_kept": len(kept),
                "meeting_worst": worst,
                "meeting_cap": 4 * inst.surface.degree,
            }
        )
        lines_out += [
            f"structured lines |L0|={len(decomp.structured)} (cap {decomp.structured_cap})",
            f"generic lines |L1|={len(decomp.generic)}",
            f"conical incidences={conical}",
            f"points kept at threshold {args.prune}: {len(kept)}",
            f"meeting cap: worst generic line meets {worst} <= {4 * inst.surface.degree}",
        ]
    if args.json_out:
        _emit_json(report)
    else:
        for text in lines_out:
            print(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = load_instance(args.file)
    if args.planes:
        report = verify_planes_bound(inst.points, inst.lines, constant=args.constant)
    else:
        if inst.surface is not None and any(
            w.degree() == 1 for w in inst.surface.factors
        ):
            raise PlanarComponentError(
                "surface has a planar component; rerun with --planes"
            )
        if inst.surface is not None:
            degree = inst.surface.degree
        elif args.degree is not None:
            degree = args.degree
        else:
            raise DomainError("surfaceless instance: pass --degree for the bound")
        report = verify_bound(
            inst.points, inst.lines, degree=degree, constant=args.constant
        )
    if args.json_out:
        _emit_json(
            {
                "m": report.m,
                "n": report.n,
                "degree": report.degree,
                "s": report.s,
                "incidences": report.incidences,
                "xi": _fmt(report.xi),
                "rhs_st": _fmt(report.rhs_st),
                "rhs_gk": _fmt(report.rhs_gk),
                "rhs_main": _fmt(report.rhs_main),
                "ratio_main": _fmt(report.ratio_main),
                "constant": _fmt(report.constant),
                "within": report.within,
                "notes": report.notes,
            }
        )
    else:
        print(f"m={report.m} n={report.n} degree={report.degree} s={report.s}")
        print(f"incidences I={report.incidences}")
        print(f"xi={_fmt(report.xi)}")
        print(
            f"rhs_st={_fmt(report.rhs_st)} rhs_gk={_fmt(report.rhs_gk)}"
            f" rhs_main={_fmt(report.rhs_main)}"
        )
        print(f"ratio={_fmt(report.ratio_main)}")
        print(f"within constant {_fmt(report.constant)}: {'yes' if report.within else 'no'}")
    return 0 if report.within else 1


def _cmd_project(args: argparse.Namespace) -> int:
    inst = load_instance(args.file)
    pts3, lns3, cert = project_to_3space(inst.points, inst.lines, seed=args.seed)
    out = IncidenceInstance(None, pts3, lns3)
    save_instance(out, args.output)
    if args.json_out:
        _emit_json(
            {
                "dim_before": inst.dim,
                "dim_after": out.dim,
                "m": out.m,
                "n": out.n,
                "resamples": cert.resamples_used,
                "ok": cert.ok,
            }
        )
    else:
        print(f"projected dim {inst.dim} -> {out.dim}")
        print(f"m={out.m} n={out.n} resamples={cert.resamples_used}")
        print(f"certificate ok: {'yes' if cert.ok else 'no'}")
    return 0 if cert.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incgeo",
        description="Exact line geometry on low-degree surfaces and incidence bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded instance on a catalog surface")
    gen.add_argument("--kind", choices=SURFACE_KINDS, required=True)
    gen.add_argument("--lines", type=int, required=True)
    gen.add_argument("--points", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--dim", type=int, default=3)
    gen.add_argument("--exceptional", action="store_true",
                     help="include the singular axis where the surface has one")
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--json-out", action="store_true")
    gen.set_defaults(func=_cmd_gen)

    classify = sub.add_parser("classify", help="classify each surface factor")
    classify.add_argument("file")
    classify.add_argument("--json-out", action="store_true")
    classify.set_defaults(func=_cmd_classify)

    flec = sub.add_parser("flecnode", help="flecnode witness and divisibility per factor")
    flec.add_argument("file")
    flec.add_argument("--json-out", action="store_true")
    flec.set_defaults(func=_cmd_flecnode)

    inc = sub.add_parser("incidence", help="incidence statistics and decomposition")
    inc.add_argument("file")
    inc.add_argument("--prune", type=int, default=4,
                     help="point threshold for the pruning pass")
    inc.add_argument("--json-out", action="store_true")
    inc.set_defaults(func=_cmd_incidence)

    ver = sub.add_parser("verify", help="check the incidence count against the bound")
    ver.add_argument("file")
    ver.add_argument("--planes", action="store_true",
                     help="use the plane-arrangement bound instead")
    ver.add_argument("--constant", type=float, default=4.0)
    ver.add_argument("--degree", type=int, default=None,
                     help="degree to assume for a surfaceless instance")
    ver.add_argument("--json-out", action="store_true")
    ver.set_defaults(func=_cmd_verify)

    proj = sub.add_parser("project", help="project a lifted instance back to 3-space")
    proj.add_argument("file")
    proj.add_argument("--seed", type=int, default=0)
    proj.add_argument("-o", "--output", required=True)
    proj.add_argument("--json-out", action="store_true")
    proj.set_defaults(func=_cmd_project)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except _HYPOTHESIS_ERRORS as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return HYPOTHESIS_EXIT
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except IncGeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
