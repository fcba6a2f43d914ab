"""Command-line front end.

Four subcommands: ``table`` (modulus values, each with the Newton step of
the implicit equation at it as a cross-check), ``verify`` (appendix scans,
the chord and the extremal pair as pass/fail report lines), ``envelope``
(slice reconstruction CSV with certificate and brute-force columns), and
``bruteforce`` (a single search probe).

Exit codes: 0 success, 1 a mathematical verification failed, 2 usage error.
Floats are printed with shortest round-trip repr, and nothing is random, so
identical command lines produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bellman, certificates, envelope
from .domain import LambdaPoint
from .errors import UcxError
from .moduli import delta, implicit_correction


#: how far ``envelope``'s search may exceed the envelope before a row breaks the sandwich
SANDWICH_TOL = 2.5e-2


class UsageError(UcxError):
    """A command line the CLI itself cannot act on."""


def _parse_eps_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise UsageError(f"eps grid must be 'lo:hi:n' or a single value, got {text!r}")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise UsageError(f"malformed eps grid {text!r}: {e}") from e
    if n < 1:
        raise UsageError(f"eps grid needs at least one point, got n={n}")
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _check_args(args) -> None:
    """Every float option must be finite; the library checks the rest of its inputs."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value!r}")


def _write_output(path: str, text: str) -> None:
    """Write the finished output to stdout ("-") or to the file at ``path``."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
    except OSError as e:
        raise UsageError(f"cannot write --output {path!r}: {e.strerror}") from e


def _emit_rows(rows: list[dict], fields: list[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows) + "\n"
    lines = [",".join(fields)] + [
        ",".join(repr(row[f]) if isinstance(row[f], float) else str(row[f]) for f in fields) for row in rows
    ]
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    p = args.p
    rows = []
    for e in _parse_eps_grid(args.eps):
        d = delta(p, e)
        # the p < 2 route keeps its printed label "s_star": benchmarks/checks.py checks it
        route = "closed_form" if p >= 2.0 else "s_star"
        # the implicit equation holds for p <= 2 only; past 2 there is nothing to cross-check
        residual = 0.0 if p > 2.0 else implicit_correction(p, e, d)
        rows.append(
            {"p": p, "eps": e, "delta": d, "route": route, "cross_check_residual": residual}
        )
    fields = ["p", "eps", "delta", "route", "cross_check_residual"]
    _write_output(args.output, _emit_rows(rows, fields, args.format))
    return 0


def cmd_verify(args) -> int:
    reports = certificates.verify_appendix(args.p, args.eps, args.grid_n)
    reports.append(certificates.sharpness_check(args.p, args.eps))
    if args.eps is not None:
        reports.append(certificates.midpoint_contraction(args.p, args.eps))
    _write_output(args.output, "".join(r.line() + "\n" for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_envelope(args) -> int:
    p = args.p
    cert = certificates.certificate(p, args.eps)
    if args.grid_n < 2:
        raise UsageError(f"grid-n must be at least 2, got {args.grid_n}")
    try:
        top = 2.0**p
    except OverflowError:  # past p = 1024 every row but the first overflows
        top = math.inf
    points = [LambdaPoint(1.0, 1.0, i * top / (args.grid_n - 1)) for i in range(args.grid_n)]
    # near p = 1023, i * 2**p overflows before the division; the order
    # 2**p * (i / (n - 1)) would move x3 by an ulp in many finite rows
    over = [i for i, point in enumerate(points) if math.isinf(point.x3)]
    if over:
        raise UsageError(f"x3 = i 2**p / (grid-n - 1) overflows at p={p!r} for the slice rows i >= {over[0]}")
    grid = envelope.sample_boundary(p, args.n_per_face)
    rows = [
        {"x3": point.x3, "envelope": envelope.concavify(grid, point).result, "certificate": cert.value(point)}
        for point in points
    ]
    for row, found in zip(rows, bellman.brute_force_batch(points, p)):
        row["brute_force"] = found.value
    # the envelope and the search are both lower bounds up to rounding, so both
    # meet the certificate with a 1e-9 slack; SANDWICH_TOL is for the envelope's
    # shortfall below the search only
    violations = [
        r for r in rows
        if not (r["brute_force"] - SANDWICH_TOL <= r["envelope"]
                and max(r["envelope"], r["brute_force"]) <= r["certificate"] + 1e-9)
    ]
    _write_output(args.output, _emit_rows(rows, ["x3", "envelope", "certificate", "brute_force"], "csv"))
    for r in violations:
        print(f"ucx: sandwich violation at x3={r['x3']!r}: "
              f"brute_force={r['brute_force']!r} envelope={r['envelope']!r} "
              f"certificate={r['certificate']!r}", file=sys.stderr)
    return 1 if violations else 0


def cmd_bruteforce(args) -> int:
    parts = args.x.split(",")
    if len(parts) != 3:
        raise UsageError(f"--x wants 'x1,x2,x3', got {args.x!r}")
    try:
        coords = [float(v) for v in parts]
    except ValueError as e:
        raise UsageError(f"malformed point {args.x!r}") from e
    x = LambdaPoint(*coords)
    result = bellman.brute_force_bellman(x, args.p)
    _write_output(args.output, bellman.format_witness(x, args.p, result) + "\n")
    return 0


#: help of the options parsed only so that old command lines still run
_NO_EFFECT = "no effect: nothing here draws random trials or has a seed, restarts or step budget"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Report a malformed command line in one line, as every other usage error."""
        self.exit(2, f"ucx: {message} (see {self.prog} --help)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ucx",
        description="Sharp modulus of uniform convexity of L^p with numerical certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="modulus values over an eps grid")
    t.add_argument("--p", type=float, required=True)
    t.add_argument("--eps", type=str, required=True, help="single value or lo:hi:n grid")
    t.add_argument("--format", choices=["csv", "json"], default="csv")
    t.add_argument("--output", default="-")
    t.set_defaults(fn=cmd_table)

    v = sub.add_parser("verify", help="appendix scans, chord sharpness and the extremal pair")
    v.add_argument("--p", type=float, required=True)
    v.add_argument("--eps", type=float, default=None)
    v.add_argument("--grid-n", type=int, default=10001, dest="grid_n")
    v.add_argument("--trials", type=int, help=_NO_EFFECT)
    v.add_argument("--seed", type=int, help=_NO_EFFECT)
    v.add_argument("--output", default="-")
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("envelope", help="slice reconstruction with sandwich check")
    e.add_argument("--p", type=float, required=True)
    e.add_argument("--eps", type=float, default=None)
    e.add_argument("--grid-n", type=int, default=50, dest="grid_n")
    e.add_argument("--n-per-face", type=int, default=24, dest="n_per_face",
                   help="samples per face, tau = 1/2 shared, 2n - 1 in all")
    e.add_argument("--radius", type=float, default=None,
                   help="no effect: the envelope samples one compact section of the cone")
    e.add_argument("--restarts", type=int, help=_NO_EFFECT)
    e.add_argument("--local-steps", type=int, help=_NO_EFFECT)
    e.add_argument("--seed", type=int, help=_NO_EFFECT)
    e.add_argument("--output", default="-")
    e.set_defaults(fn=cmd_envelope)

    b = sub.add_parser("bruteforce", help="search probe at one moment point")
    b.add_argument("--p", type=float, required=True)
    b.add_argument("--x", type=str, required=True, help="x1,x2,x3")
    b.add_argument("--seed", type=int, help=_NO_EFFECT)
    b.add_argument("--restarts", type=int, help=_NO_EFFECT)
    b.add_argument("--local-steps", type=int, help=_NO_EFFECT)
    b.add_argument("--output", default="-")
    b.set_defaults(fn=cmd_bruteforce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse already printed the diagnostic
        return int(e.code or 0)
    try:
        _check_args(args)
        return args.fn(args)
    except UcxError as e:
        print(f"ucx: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
