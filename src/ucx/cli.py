"""Command-line front end.

Four subcommands: ``table`` (modulus values with cross-check residuals),
``verify`` (appendix, sharpness, and witness scans as pass/fail report
lines), ``envelope`` (slice reconstruction CSV with certificate and
brute-force columns), and ``bruteforce`` (a single search probe).

Exit codes: 0 success, 1 a mathematical verification failed, 2 usage error.
Floats are printed with shortest round-trip repr, so identical command
lines (including seeds) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import IO

from . import bellman, certificates, envelope
from .domain import BoundaryFace, LambdaPoint, contains
from .errors import UcxError
from .moduli import delta, delta_implicit


class UsageError(Exception):
    pass


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
    """Checks every subcommand shares: finite float options, a nonnegative seed."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value!r}")
    if getattr(args, "seed", 0) < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")


def _check_common(p: float, eps_values: list[float]) -> None:
    if not p > 1.0:
        raise UsageError(f"p must exceed 1, got {p}")
    for e in eps_values:
        if not (0.0 <= e <= 2.0):
            raise UsageError(f"eps must lie in [0, 2], got {e}")


def _check_scale(p: float, eps: float | None) -> None:
    """The slice rows and scans need 2**p and eps**(-p) as finite floats."""
    try:
        2.0**p, (1.0 if eps is None else eps ** (-p))
    except OverflowError:
        raise UsageError(f"p={p!r} is too large: 2**p or eps**(-p) overflows") from None


def _open_output(path: str):
    if path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", encoding="utf-8"), True
    except OSError as e:
        raise UsageError(f"cannot write --output {path!r}: {e.strerror}") from e


def _emit_rows(rows: list[dict], fields: list[str], fmt: str, out: IO[str]) -> None:
    if fmt == "json":
        out.write(json.dumps(rows) + "\n")
        return
    out.write(",".join(fields) + "\n")
    for row in rows:
        out.write(",".join(repr(row[f]) if isinstance(row[f], float) else str(row[f]) for f in fields) + "\n")


def cmd_table(args) -> int:
    eps_values = _parse_eps_grid(args.eps)
    _check_common(args.p, eps_values)
    p = args.p
    rows = []
    for e in eps_values:
        d = delta(p, e)
        if p > 2.0:
            route, residual = "closed_form", 0.0
        elif p == 2.0:
            route, residual = "closed_form", abs(d - delta_implicit(p, e))
        else:
            route = "s_star"
            residual = abs(d - delta_implicit(p, e))
        rows.append(
            {"p": p, "eps": e, "delta": d, "route": route, "cross_check_residual": residual}
        )
    out, close = _open_output(args.output)
    try:
        _emit_rows(rows, ["p", "eps", "delta", "route", "cross_check_residual"], args.format, out)
    finally:
        if close:
            out.close()
    return 0


def cmd_verify(args) -> int:
    eps = args.eps
    if args.p < 2.0 and eps is None:
        raise UsageError("epsilon required for p<2")
    _check_common(args.p, [] if eps is None else [eps])
    if eps is not None and eps == 0.0:
        raise UsageError("eps must be positive for verification scans")
    _check_scale(args.p, eps)
    reports = certificates.verify_appendix(args.p, eps, args.grid_n)
    reports.append(certificates.sharpness_check(args.p, eps, args.n_chord))
    if args.trials > 0 and eps is not None:
        reports.append(bellman.witness_test(args.p, eps, args.trials, args.seed))
    out, close = _open_output(args.output)
    try:
        for r in reports:
            out.write(r.line() + "\n")
    finally:
        if close:
            out.close()
    return 0 if all(r.passed for r in reports) else 1


def cmd_envelope(args) -> int:
    _check_common(args.p, [] if args.eps is None else [args.eps])
    p = args.p
    if p < 2.0:
        if args.eps is None:
            raise UsageError("epsilon required for p<2")
        if args.eps == 0.0:
            raise UsageError("eps must be positive for the p<2 certificate")
        _check_scale(p, args.eps)
        cert = certificates.certificate_lt2(p, args.eps)
    else:
        _check_scale(p, None)
        cert = certificates.certificate_ge2(p)
    if args.grid_n < 2:
        raise UsageError(f"grid-n must be at least 2, got {args.grid_n}")
    grid = envelope.sample_boundary(p, 0.5, args.n_per_face)
    budget = bellman.SearchBudget(args.restarts, args.local_steps, args.seed)
    rows = []
    for i in range(args.grid_n):
        point = LambdaPoint(1.0, 1.0, i * (2.0**p) / (args.grid_n - 1))
        rows.append({
            "x3": point.x3,
            "envelope": envelope.concavify(grid, point).result,
            "certificate": cert.value(point),
            "brute_force": bellman.brute_force_bellman(point, p, 0.5, budget).value,
        })
    violations = [
        r for r in rows
        if not (r["brute_force"] - args.sandwich_tol <= r["envelope"] <= r["certificate"] + 1e-9)
    ]
    out, close = _open_output(args.output)
    try:
        _emit_rows(rows, ["x3", "envelope", "certificate", "brute_force"], args.format, out)
    finally:
        if close:
            out.close()
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
    if not all(math.isfinite(v) for v in coords):
        raise UsageError(f"moment coordinates must be finite, got {args.x!r}")
    if min(coords) < 0.0:
        raise UsageError(f"moment coordinates must be nonnegative, got {args.x!r}")
    if not args.p > 1.0:
        raise UsageError(f"p must exceed 1, got {args.p}")
    try:  # the search's largest moment is about (4 * max root)**p = 4**p * max(x)
        top = 4.0**args.p * max(coords)
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise UsageError(f"the search's largest moment 4**p * max(x) overflows at p={args.p!r}")
    x = LambdaPoint(*coords)
    if contains(x, args.p) is BoundaryFace.OUTSIDE:
        print(f"ucx: point {args.x} lies outside the cone", file=sys.stderr)
        return 1
    budget = bellman.SearchBudget(args.restarts, args.local_steps, args.seed)
    result = bellman.brute_force_bellman(x, args.p, args.theta, budget)
    out, close = _open_output(args.output)
    try:
        out.write(bellman.format_witness(x, args.p, args.theta, result) + "\n")
    finally:
        if close:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    v = sub.add_parser("verify", help="appendix, sharpness, and witness verification")
    v.add_argument("--p", type=float, required=True)
    v.add_argument("--eps", type=float, default=None)
    v.add_argument("--grid-n", type=int, default=10001, dest="grid_n")
    v.add_argument("--n-chord", type=int, default=1001, dest="n_chord")
    v.add_argument("--trials", type=int, default=0, help="witness trials (0 skips)")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--output", default="-")
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("envelope", help="slice reconstruction with sandwich check")
    e.add_argument("--p", type=float, required=True)
    e.add_argument("--eps", type=float, default=None)
    e.add_argument("--grid-n", type=int, default=50, dest="grid_n")
    e.add_argument("--n-per-face", type=int, default=24, dest="n_per_face")
    e.add_argument("--radius", type=float, default=None,
                   help="no effect: the envelope samples one compact section of the cone")
    e.add_argument("--restarts", type=int, default=24)
    e.add_argument("--local-steps", type=int, default=600, dest="local_steps")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--sandwich-tol", type=float, default=2.5e-2, dest="sandwich_tol")
    e.add_argument("--format", choices=["csv", "json"], default="csv")
    e.add_argument("--output", default="-")
    e.set_defaults(fn=cmd_envelope)

    b = sub.add_parser("bruteforce", help="search probe at one moment point")
    b.add_argument("--p", type=float, required=True)
    b.add_argument("--x", type=str, required=True, help="x1,x2,x3")
    b.add_argument("--theta", type=float, default=0.5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--restarts", type=int, default=200)
    b.add_argument("--local-steps", type=int, default=2000, dest="local_steps")
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
    except UsageError as e:
        print(f"ucx: {e}", file=sys.stderr)
        return 2
    except UcxError as e:
        print(f"ucx: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
