"""Benchmark of the ``ucx`` command: one closed loop of in-process CLI calls.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``modulus-table``, ``slice-sweep`` and ``sharp-point``
(see README.md).  The run builds the workload's operations from the seed,
warms up once, then repeats whole rounds of operations, one after
another, until ``--seconds`` have passed, and checks every output.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs a third of the time untraced and the rest with every public ``ucx``
function wrapped, and prints the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# The CLI's own thread pool, at its default size, is the only parallelism:
# numerical libraries stay single-threaded.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("UCX_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import GAP_FLOOR, CheckFailure  # noqa: E402
from spans import Totals, Tracer, layer_metrics, span_records  # noqa: E402
from workloads import WARMUP, WORKLOADS, CallResult, Reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import ucx, ucx.cli; print(time.perf_counter() - t)"
)


@dataclass
class Tally:
    """What a phase of the run did: per-operation times, counts and gaps."""

    walls: list = field(default_factory=list)
    cpu: float = 0.0
    items: int = 0
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    gaps: dict = field(default_factory=dict)
    problems: Counter = field(default_factory=Counter)


def measure_setup() -> float:
    """Median time to import ``ucx`` and ``ucx.cli`` in a fresh interpreter."""
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first one also writes the bytecode cache
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            times.append(float(done.stdout))
    return statistics.median(times)


def call_cli(cli, argv) -> tuple:
    """One in-process CLI call: (CallResult, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # what the installed command would print as a traceback, exit 1
        code = 1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return CallResult(code, out.getvalue(), err.getvalue()), wall


def execute(cli, op, tally: Tally, tracer=None, totals=None, keep=None) -> None:
    results, wall = [], 0.0
    cpu0 = time.process_time()
    if tracer is not None:
        tracer.begin_operation(op.label)
    try:
        for argv in op.argvs:
            res, dt = call_cli(cli, argv)
            results.append(res)
            wall += dt
    finally:
        if tracer is not None:
            spans = tracer.end_operation()
            totals.add(spans)
            if keep is not None:
                keep.append({"op": op.label, "spans": spans})
    tally.cpu += time.process_time() - cpu0
    tally.walls.append(wall)
    tally.attempted += 1
    try:
        gaps = op.check(results)
    except CheckFailure as failure:
        if op.fault is not None:
            tally.failed += 1
            if op.fault_seen(results, failure):
                tally.problems[f"{op.label}: {op.fault} as expected"] += 1
            else:
                tally.correct = False
                tally.problems[f"{op.label}: not {op.fault} but {failure}"] += 1
        elif failure.kind == "exit":
            tally.failed += 1
            tally.problems[f"{op.label}: {failure}"] += 1
        else:
            tally.correct = False
            tally.problems[f"{op.label}: wrong output, {failure}"] += 1
        return
    tally.items += op.items
    for k, v in gaps.items():
        tally.gaps[k] = max(tally.gaps.get(k, v), v)


def run_rounds(cli, ops, seconds: float, tally: Tally, tracer=None, totals=None, keep=None) -> int:
    """Whole rounds of ``ops`` until ``seconds`` have passed; at least one.

    With a tracer, the spans of the first round are appended to ``keep``.
    """
    start, rounds = time.perf_counter(), 0
    while True:
        for op in ops:
            execute(cli, op, tally, tracer, totals, keep if rounds == 0 else None)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return rounds


def tail(values: list, q: float = 0.9) -> float:
    """Nearest-rank q-quantile when at least ten values lie beyond it, else the median.

    With fewer values the quantile would be one of a handful of slowest
    operations, not a tail, and would read as noise.
    """
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < 10:
        return statistics.median(ordered)
    return ordered[rank - 1]


def end_to_end(tally: Tally, setup_s: float) -> dict:
    n = len(tally.walls)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s.p50": {"value": statistics.median(tally.walls), "unit": "s"},
        "op_s.p90": {"value": tail(tally.walls), "unit": "s"},
        "items_per_s": {"value": tally.items / sum(tally.walls), "unit": "1/s"},
        "cpu_s_per_op": {"value": tally.cpu / n, "unit": "s"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                         "unit": "MiB"},
        "envelope_gap": {"value": tally.gaps.get("envelope_gap", GAP_FLOOR), "unit": "abs"},
        "search_gap": {"value": tally.gaps.get("search_gap", GAP_FLOOR), "unit": "abs"},
    }


def traced_run(cli, ops, seconds: float, tally: Tally, workload: str, seed: int) -> dict:
    """Untraced rounds for a third of the time, traced rounds for the rest."""
    plain, traced = Tally(), Tally()
    run_rounds(cli, ops, seconds / 3.0, plain)
    tracer, totals, keep = Tracer(), Totals(), []
    tracer.install()
    try:
        run_rounds(cli, ops, 2.0 * seconds / 3.0, traced, tracer, totals, keep)
    finally:
        tracer.uninstall()
    metrics, absent = layer_metrics(totals, tracer.traced)
    overhead = statistics.fmean(traced.walls) - statistics.fmean(plain.walls)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for part in (plain, traced):
        tally.walls += part.walls
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.correct = tally.correct and part.correct
        tally.problems.update(part.problems)
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    dump = {
        "workload": workload, "seed": seed, "absent": absent, "metrics": metrics,
        "operations": [{"op": k["op"], "spans": span_records(k["spans"])} for k in keep],
    }
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(dump) + "\n")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ucx" / "cli.py").is_file():
        print(f"run.py: no ucx sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ucx.cli as cli

    if args.seconds < 1:
        print("run.py: --seconds must be at least 1", file=sys.stderr)
        return 2

    setup_s = measure_setup() if args.trace == 0 else None
    ops = WORKLOADS[args.workload](args.seed, Reference())
    for argv in WARMUP:
        call_cli(cli, argv)

    tally = Tally()
    if args.trace:
        metrics = traced_run(cli, ops, args.seconds, tally, args.workload, args.seed)
    else:
        rounds = run_rounds(cli, ops, args.seconds, tally)
        metrics = end_to_end(tally, setup_s)
        print(f"{args.workload}: {rounds} rounds of {len(ops)} operations", file=sys.stderr)
    for problem, count in sorted(tally.problems.items()):
        print(f"{count}x {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
