"""incgeo benchmark: seeded CLI workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; paths are taken from this file.  Every
op is one or two real `incgeo` CLI calls, each in a fresh interpreter (so
the module-level memo caches start cold, as they do for a user), made one
at a time by a single client in a closed loop over the workload's op set.
It checks every output, prints a summary line and, last, one JSON object.

The loop runs whole passes over the op set and stops at the pass boundary
nearest to S seconds.

--trace 0 runs reference.py before the first op and after every op, and
divides each op's latency by the mean of the two reference runs around it.
It reports the end-to-end metrics: setup_s (median of at least three
generations of the input files, repeated for at least 3 s), op_p50_ref
(median op latency, measured outside the child, over its reference time),
ops_per_ref (ops per reference time of op latency) and peak_rss_mb (largest
child max-RSS, from wait4).  A second summary line gives the raw op_p50_s,
ops_per_s and median reference time in seconds.
--trace 1 runs every op once plainly and once under shim.py, and reports
per-layer counts and times for one pass plus one traced set-up, the tracing
overhead per pass and the CLI start-up time; the spans go to
.perfbench_work/traces/.

Without incgeo sources in the checkout it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
from shim import TARGETS
from workloads import WORKLOADS, Op, SetupError, ops_for_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIM = HERE / "shim.py"
REFERENCE = HERE / "reference.py"
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench_work"
CLI_MAIN = "import sys; from incgeo.cli import main; sys.exit(main())"

# a plain run sets up at least SETUP_REPEATS times and for SETUP_MIN_S,
# so that a set-up of a fraction of a second still has a steady median
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
STARTUP_SAMPLES = 5
# A run must end within 180 s: no new pass starts once the next one could
# end past PASS_BUDGET_S, and a call still running at CALL_BUDGET_S is
# killed and its op counted as failed.
PASS_BUDGET_S = 140.0
CALL_BUDGET_S = 170.0

# name: (numerator metric, field), (denominator metric, field), report 1 - ratio
RATIOS = {
    "incidence.hit_ratio": (("linespace.incidence_point_line", "true"),
                            ("linespace.incidence_point_line", "calls"), False),
    "surfaces.line_search.reuse_ratio": (("surfaces.find_lines_through_point", "distinct"),
                                         ("surfaces.find_lines_through_point", "calls"), True),
    "linespace.coplanar_ratio": (("linespace.coplanar_triple", "true"),
                                 ("linespace.coplanar_triple", "calls"), False),
}


class TimeUp(RuntimeError):
    """The run's time budget is spent."""


@dataclass
class Call:
    wall_s: float
    code: int
    stdout: bytes
    maxrss_kb: int


@dataclass
class OpResult:
    op: Op
    latency_s: float
    maxrss_kb: int
    errors: list
    reports: dict
    ref_s: float = 0.0  # mean of the reference runs just before and after


@dataclass
class TraceFile:
    scope: str  # "setup" or "ops"
    op: Op
    command: str
    path: Path


class Runner:
    """Runs `incgeo` CLI calls as child processes, one at a time."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.traces: list[TraceFile] = []

    def call(self, cli_args: list, trace: tuple | None = None) -> Call:
        """Run `incgeo <cli_args>`; with trace=(scope, op) run it under the shim."""
        if trace is None:
            argv = [sys.executable, "-c", CLI_MAIN, *cli_args]
        else:
            scope, op = trace
            out = self.work / f"trace-{len(self.traces)}.json"
            self.traces.append(TraceFile(scope, op, cli_args[0], out))
            argv = [sys.executable, str(SHIM), str(SRC), str(out), f"{scope}:{op.key}:{cli_args[0]}", *cli_args]
        timeout = CALL_BUDGET_S - (perf_counter() - self.started)
        if timeout <= 0:
            raise TimeUp("no time left for another call")
        with open(self.work / "stderr.txt", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                proc.stdout.close()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return Call(wall, proc.returncode, stdout, usage.ru_maxrss)

    def reference(self) -> float:
        """Wall time of one reference.py run; raises SetupError if it misbehaves."""
        start = perf_counter()
        proc = subprocess.run([sys.executable, str(REFERENCE)], capture_output=True, cwd=ROOT,
                              timeout=max(CALL_BUDGET_S - (start - self.started), 1.0))
        wall = perf_counter() - start
        if proc.returncode != 0 or proc.stdout.decode().strip() != reference.CHECKSUM:
            raise SetupError(f"reference run failed: exit {proc.returncode}, output {proc.stdout[:80]!r}")
        return wall

    def stderr_tail(self) -> str:
        return (self.work / "stderr.txt").read_text(errors="replace").strip()[-400:]


def setup(workload, ops: list, dest: Path, runner: Runner, trace: bool) -> dict:
    """Generate one input file per distinct op; return {op.key: path}."""
    dest.mkdir(parents=True)
    paths = {}
    for op in ops:
        if op.key in paths:
            continue
        paths[op.key] = dest / f"{op.spec}-v{op.variant}.json"

        def run_cli(args: list, op: Op = op) -> int:
            return runner.call(args, ("setup", op) if trace else None).code

        workload.make(op, paths[op.key], run_cli)
    return paths


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_op(workload, op: Op, path: Path, expected: dict, runner: Runner,
           recorded: dict | None, trace: bool = False) -> OpResult:
    """One op: its CLI calls in order, then every output check."""
    errors, reports, calls = [], {}, []
    for args in workload.commands(op, path, runner.work):
        call = runner.call(args, ("ops", op) if trace else None)
        calls.append(call)
        if call.code != 0:
            errors.append(f"{args[0]}: exit {call.code}: {runner.stderr_tail()}")
            break
        try:
            reports[args[0]] = json.loads(call.stdout)
        except ValueError:
            errors.append(f"{args[0]}: report is not JSON")
            break
    if not errors:
        errors += workload.check(op, reports, expected, runner.work)
        if recorded is not None:
            got = [digest(c.stdout) for c in calls]
            if recorded.get(op.key) != got:
                errors.append(f"report digests {got} differ from recorded {recorded.get(op.key)}")
    return OpResult(op, sum(c.wall_s for c in calls), max(c.maxrss_kb for c in calls), errors, reports)


def measure(workload, ops, paths, expected, runner, recorded, seconds: float, trace: bool):
    """Whole passes over the op set, ending at the pass boundary nearest `seconds`.

    Every run thus measures the same mix of ops.  Untraced, a reference run
    comes before the first op and after every op, and each op's ref_s is
    the mean of the two around it: the host's speed drifts over seconds,
    so only the reference runs next to an op tell how fast the host was
    while it ran.  Traced, every op runs once plainly and once under the
    shim.  Only whole passes are returned.
    """
    plain, traced, passes = [], [], 0
    ref = None if trace else runner.reference()
    loop_start = perf_counter()
    while True:
        pass_start = perf_counter()
        try:
            for op in ops:
                result = run_op(workload, op, paths[op.key], expected[op.key], runner, recorded)
                if trace:
                    traced.append(run_op(workload, op, paths[op.key], expected[op.key], runner, recorded, True))
                else:
                    after = runner.reference()
                    result.ref_s, ref = (ref + after) / 2, after
                plain.append(result)
        except (TimeUp, subprocess.TimeoutExpired):
            if not passes:
                raise TimeUp("not one whole pass within the time budget")
            whole = passes * len(ops)
            return plain[:whole], traced[:whole], passes
        passes += 1
        now = perf_counter()
        pass_s = now - pass_start
        if now - loop_start + pass_s / 2 >= seconds or now - runner.started + pass_s > PASS_BUDGET_S:
            return plain, traced, passes


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def throughput(latencies: list, n_ops: int) -> float:
    """Ops per unit of latency, from each op position's median over the passes,
    so that one stalled call does not dominate."""
    return n_ops / sum(statistics.median(latencies[k::n_ops]) for k in range(n_ops))


def timings(results: list, n_ops: int) -> dict:
    """Op timings in seconds (raw) and in units of each op's reference time."""
    raw = [r.latency_s for r in results]
    rel = [r.latency_s / r.ref_s for r in results]
    return {"op_p50_s": statistics.median(raw), "ops_per_s": throughput(raw, n_ops),
            "ref_s": statistics.median(r.ref_s for r in results),
            "op_p50_ref": statistics.median(rel), "ops_per_ref": throughput(rel, n_ops)}


def end_to_end(setup_times: list, results: list, times: dict) -> dict:
    return {
        "ops_per_ref": _metric(times["ops_per_ref"], "1/ref"),
        "op_p50_ref": _metric(times["op_p50_ref"], "ref"),
        "peak_rss_mb": _metric(max(r.maxrss_kb for r in results) / 1024, "MB"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
    }


def per_layer(workload, runner: Runner, plain: list, traced: list, passes: int,
              startup: list, trace_out: Path) -> tuple[dict, list]:
    """Per-layer metrics for one pass plus one set-up; writes the spans to trace_out."""
    totals: dict = {}
    share_name, share_fn, share_cmd = workload.share
    share_num = share_den = 0.0
    absent: set = set()
    spans, dropped = [], 0
    for tf in runner.traces:
        data = json.loads(tf.path.read_text(encoding="utf-8"))
        absent.update(data["absent"])
        scale = 1.0 if tf.scope == "setup" else 1.0 / passes
        for name, entry in data["functions"].items():
            acc = totals.setdefault(name, {})
            for key, value in entry.items():
                acc[key] = acc.get(key, 0) + value * scale
        funcs = data["functions"]
        if tf.scope == "ops" and tf.command == share_cmd and workload.in_share(tf.op) and "cli.main" in funcs:
            share_num += funcs.get(share_fn, {}).get("busy_s", 0.0)
            share_den += funcs["cli.main"]["busy_s"]
        spans.extend([data["op"]] + s for s in data["spans"])
        dropped += data["spans_dropped"]
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.write_text(json.dumps({"fields": ["op", "name", "start_s", "end_s", "parent", "id"],
                                     "spans": spans, "spans_dropped": dropped}), encoding="utf-8")

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    metrics, layer_self = {}, {}
    for module, _, name, extra in TARGETS:
        metrics[f"{name}.calls"] = _metric(get(name, "calls"), "count")
        metrics[f"{name}.busy_s"] = _metric(get(name, "busy_s"), "s")
        if extra:
            metrics[f"{name}.{extra}"] = _metric(get(name, extra), "count")
        layer_self[module] = layer_self.get(module, 0.0) + get(name, "self_s")
    for module, value in layer_self.items():
        metrics[f"{module}.self_s"] = _metric(value, "s")
    metrics["cli.startup_s"] = _metric(statistics.median(startup), "s")
    for name, ((num, num_key), (den, den_key), complement) in RATIOS.items():
        ratio = get(num, num_key) / get(den, den_key) if get(den, den_key) else 0.0
        metrics[name] = _metric(1.0 - ratio if complement and ratio else ratio, "ratio")
    steps = sum(r.reports["project"]["dim_before"] - r.reports["project"]["dim_after"]
                for r in traced if "project" in r.reports) / passes
    generic = get("projection.is_generic", "calls")
    metrics["projection.accept_ratio"] = _metric(steps / generic if generic else 0.0, "ratio")
    for name, _, _ in (w.share for w in WORKLOADS.values()):
        metrics[name] = _metric(share_num / share_den if name == share_name and share_den else 0.0, "ratio")
    metrics["trace.absent"] = _metric(len(absent), "count")
    overhead = sum(r.latency_s for r in traced) - sum(r.latency_s for r in plain)
    metrics["tracing_overhead_s"] = _metric(overhead / passes, "s")
    return metrics, sorted(absent)


def run(args: argparse.Namespace, work: Path, started: float) -> dict:
    workload = WORKLOADS[args.workload]
    runner = Runner(work, started)
    ops = ops_for_seed(workload, args.seed)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload.name, {})

    # untimed warm-up: the first call compiles incgeo's bytecode
    startup = [runner.call(["--help"]).wall_s for _ in range(STARTUP_SAMPLES if args.trace else 1)]

    setup_times, generated = [], []
    while not setup_times or (not args.trace and (len(setup_times) < SETUP_REPEATS
                                                   or sum(setup_times) < SETUP_MIN_S)):
        start = perf_counter()
        paths = setup(workload, ops, work / f"setup{len(setup_times)}", runner, bool(args.trace))
        setup_times.append(perf_counter() - start)
        generated.append({k: p.read_bytes() for k, p in paths.items()})
    setup_errors = [] if all(g == generated[0] for g in generated) else ["set-up is not deterministic"]
    expected = {op.key: workload.expect(op, paths[op.key]) for op in ops}

    plain, traced, passes = measure(workload, ops, paths, expected, runner, recorded,
                                          args.seconds, bool(args.trace))
    results = plain + traced
    failed = [r for r in results if r.errors]
    for r in failed:
        print(f"FAILED {r.op.key}: {'; '.join(r.errors)}", file=sys.stderr)
    for e in setup_errors:
        print(f"FAILED set-up: {e}", file=sys.stderr)

    sizes = ", ".join(f"{op.key} {workload.size(expected[op.key])}" for op in ops)
    print(f"{workload.name} seed={args.seed} passes={passes} ops={len(results)} "
          f"failed_ops_frac={len(failed) / len(results):.4f} op_p50 over {len(plain)} ops; "
          f"inputs: {sizes}")
    if not args.trace:
        times = timings(plain, len(ops))
        print(f"raw: op_p50_s={times['op_p50_s']:.4f} ops_per_s={times['ops_per_s']:.4f} "
              f"reference ref_s={times['ref_s']:.4f} over {len(plain) + 1} runs")
        metrics = end_to_end(setup_times, plain, times)
    else:
        trace_out = WORK / "traces" / f"{workload.name}-seed{args.seed}.json"
        metrics, absent = per_layer(workload, runner, plain, traced, passes, startup, trace_out)
        if absent:
            print(f"absent from the program (reported as 0): {', '.join(absent)}")
        print(f"spans written to {trace_out.relative_to(ROOT)}")
    return {
        "correct": not failed and not setup_errors,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "incgeo" / "cli.py").is_file():
        print(f"no incgeo sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    started = perf_counter()
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work, started)
    except (SetupError, TimeUp) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
