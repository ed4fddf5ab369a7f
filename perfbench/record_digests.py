"""Record the report digests that every benchmark op is checked against.

    python3 perfbench/record_digests.py [WORKLOAD ...]

For every workload, op spec and seeded variant this generates the input,
runs the op's CLI calls, applies the benchmark's own output checks and
stores the SHA-256 prefix of each call's --json-out report in
digests.json.  Run it only at a commit whose reports are known good: the
file pins the byte-identical report contract for later commits.
"""

from __future__ import annotations

import json
import shutil
import sys
from time import perf_counter

import run
from workloads import VARIANTS, WORKLOADS, Op


def record(workload, runner: run.Runner) -> dict:
    out = {}
    for spec in dict.fromkeys(workload.op_set):
        for variant in range(VARIANTS):
            op = Op(spec, variant)
            dest = runner.work / op.key.replace("/", "-")
            paths = run.setup(workload, [op], dest, runner, trace=False)
            expected = workload.expect(op, paths[op.key])
            calls = []
            for args in workload.commands(op, paths[op.key], runner.work):
                call = runner.call(args)
                if call.code != 0:
                    sys.exit(f"{workload.name} {op.key}: {args[0]} exited {call.code}: {runner.stderr_tail()}")
                calls.append(call)
            reports = {args[0]: json.loads(c.stdout)
                       for args, c in zip(workload.commands(op, paths[op.key], runner.work), calls)}
            errors = workload.check(op, reports, expected, runner.work)
            if errors:
                sys.exit(f"{workload.name} {op.key}: {'; '.join(errors)}")
            out[op.key] = [run.digest(c.stdout) for c in calls]
            print(f"{workload.name} {op.key} {sum(c.wall_s for c in calls):.2f}s", flush=True)
    return out


def main(names: list) -> int:
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.exists() else {}
    work = run.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # the per-call time budget of a benchmark run does not apply here
        runner = run.Runner(work, started=perf_counter() + 1e9)
        for name in names or sorted(WORKLOADS):
            digests[name] = record(WORKLOADS[name], runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
