"""Traced child: one incgeo CLI call with the named layer functions timed.

    python3 perfbench/shim.py SRC_DIR TRACE_OUT OP_ID CLI_ARG...

Each function in TARGETS is replaced by a timing wrapper in every incgeo
module namespace that binds it (so `from .poly import exact_div` call sites
are counted too) and, for methods, in its class.  Spans (name, start, end,
parent, op id) and per-function counts stay in memory and are written to
TRACE_OUT as JSON when the call ends.  A target that no longer exists is
listed under "absent" instead of failing the call.  Nothing under src/ is
modified: the wrapping happens in this process only.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

T_START = perf_counter()

# (module, attribute path, metric name, extra count)
# extra "true" counts calls that returned True; "distinct" counts distinct
# (factor, point) arguments, which is what a memo keyed on them could reuse.
TARGETS = (
    ("poly", "matrix_determinant", "poly.matrix_determinant", None),
    ("poly", "Poly.__mul__", "poly.mul", None),
    ("poly", "Poly.substitute", "poly.substitute", None),
    ("poly", "restrict_to_line", "poly.restrict_to_line", None),
    ("poly", "exact_div", "poly.exact_div", None),
    ("poly", "is_square_free", "poly.is_square_free", None),
    ("linalg", "rank", "linalg.rank", None),
    ("linalg", "rref", "linalg.rref", None),
    ("linalg", "solve_linear", "linalg.solve_linear", None),
    ("linespace", "incidence_point_line", "linespace.incidence_point_line", "true"),
    ("linespace", "line_relation", "linespace.line_relation", None),
    ("linespace", "coplanar_triple", "linespace.coplanar_triple", "true"),
    ("linespace", "line_on_surface", "linespace.line_on_surface", None),
    ("surfaces", "find_lines_through_point", "surfaces.find_lines_through_point", "distinct"),
    ("surfaces", "exceptional_lines", "surfaces.exceptional_lines", None),
    ("surfaces", "classify_component", "surfaces.classify_component", None),
    ("surfaces", "flecnode_polynomial", "surfaces.flecnode_polynomial", None),
    ("incidence", "count_incidences", "incidence.count_incidences", None),
    ("incidence", "max_lines_per_flat", "incidence.max_lines_per_flat", None),
    ("incidence", "decompose_lines", "incidence.decompose_lines", None),
    ("incidence", "prune_points", "incidence.prune_points", None),
    ("incidence", "meeting_line_counts", "incidence.meeting_line_counts", None),
    ("incidence", "verify_bound", "incidence.verify_bound", None),
    ("projection", "project_once", "projection.project_once", None),
    ("projection", "is_generic", "projection.is_generic", None),
    ("instfile", "load_instance", "instfile.load_instance", None),
    ("instfile", "save_instance", "instfile.save_instance", None),
    ("forge", "build_instance", "forge.build_instance", None),
    ("cli", "main", "cli.main", None),
)

# Spans deeper than this are kept only while the span list is below the cap;
# counts and times are exact either way.
KEEP_DEPTH = 2
SPAN_CAP = 2000


class Tracer:
    def __init__(self, names: list[str]):
        self.names = names
        n = len(names)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_time = [0.0] * n
        self.true = [0] * n
        self.keys: list[set] = [set() for _ in range(n)]
        self.active = [0] * n
        self.stack: list[list] = []  # [span id, child time]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0

    def wrap(self, idx: int, fn, extra: str | None):
        calls, busy, self_time, true, keys = self.calls, self.busy, self.self_time, self.true, self.keys
        active, stack, spans = self.active, self.stack, self.spans
        tracer = self

        def traced(*args, **kwargs):
            if extra == "distinct":
                try:
                    keys[idx].add((args[0], tuple(args[1])))
                except (IndexError, TypeError):  # signature changed: count nothing
                    pass
            parent = stack[-1] if stack else None
            depth = len(stack)
            span_id = tracer.next_id
            tracer.next_id += 1
            frame = [span_id, 0.0]
            active[idx] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[idx] -= 1
                dur = end - start
                calls[idx] += 1
                if not active[idx]:
                    busy[idx] += dur
                self_time[idx] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if depth < KEEP_DEPTH or len(spans) < SPAN_CAP:
                    spans.append((idx, start - T_START, end - T_START,
                                  None if parent is None else parent[0], span_id))
                else:
                    tracer.dropped += 1
            if extra == "true" and result is True:
                true[idx] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def report(self, op_id: str, absent: list[str]) -> dict:
        functions = {}
        for i, name in enumerate(self.names):
            if name in absent:
                continue
            functions[name] = {"calls": self.calls[i], "busy_s": self.busy[i], "self_s": self.self_time[i],
                               "true": self.true[i], "distinct": len(self.keys[i])}
        return {
            "op": op_id,
            "absent": absent,
            "functions": functions,
            "spans": [[self.names[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "spans_dropped": self.dropped,
        }


def _resolve(module: str, path: str):
    """(owner, object) for a dotted attribute of incgeo.<module>, or (None, None)."""
    try:
        obj = __import__(f"incgeo.{module}", fromlist=["_"])
    except ImportError:
        return None, None
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None, None
    return owner, obj


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; return the metric names of targets that are missing."""
    absent = []
    resolved = [(name, extra) + _resolve(module, path) for module, path, name, extra in TARGETS]
    modules = [m for k, m in list(sys.modules.items()) if k == "incgeo" or k.startswith("incgeo.")]
    for idx, (name, extra, owner, fn) in enumerate(resolved):
        if fn is None:
            absent.append(name)
            continue
        wrapped = tracer.wrap(idx, fn, extra)
        namespaces = [owner] if isinstance(owner, type) else modules
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, attr, wrapped)
    return absent


def main() -> int:
    src, out, op_id, cli_args = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    sys.path.insert(0, src)
    import incgeo  # noqa: F401  (loads every module so all bindings exist)
    import incgeo.cli

    tracer = Tracer([t[2] for t in TARGETS])
    absent = install(tracer)
    code = 1
    try:
        code = incgeo.cli.main(cli_args)
    except SystemExit as exc:  # argparse exits for --help and usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(op_id, absent), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
