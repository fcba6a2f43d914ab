"""The traced benchmark run (``benchmarks/run.py --trace 1``) keeps working.

Its tracer imports every module in ``spans.LAYERS`` and reads work counts
off the results of a few functions (``concavify(...).active_weights``,
``len(sample_boundary(...))``, ``brute_force_bellman(...).residual``); a
module that stops importing or a field that goes away makes the traced run
crash.  One cheap command per subcommand runs here under the tracer.
"""

import importlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ucx import cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

COMMANDS = (
    ["table", "--p", "1.5", "--eps", "0.5:1.5:3"],
    ["verify", "--p", "1.5", "--eps", "1", "--grid-n", "101"],
    ["envelope", "--p", "3", "--grid-n", "3", "--n-per-face", "4", "--restarts", "1",
     "--local-steps", "10"],
    ["bruteforce", "--p", "3", "--x", "1,1,1", "--restarts", "2", "--local-steps", "10"],
)


def test_traced_commands_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spans = importlib.import_module("spans")
    tracer, totals = spans.Tracer(), spans.Totals()
    tracer.install()
    try:
        for argv in COMMANDS:
            tracer.begin_operation(argv[0])
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            totals.add(tracer.end_operation())
            assert code == 0, (argv, err.getvalue())
    finally:
        tracer.uninstall()
    metrics, _ = spans.layer_metrics(totals, tracer.traced)
    for name in ("envelope.concavify.active", "envelope.sample_boundary.points",
                 "bellman.brute_force_bellman.calls"):
        assert metrics[name]["value"] > 0.0, name
