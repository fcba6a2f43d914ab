"""The three workloads: operations built from the workload seed, with their checks.

An operation is one or more ``ucx`` command lines run in-process through
``ucx.cli.main``; a round is the workload's fixed list of operations, and
a run repeats whole rounds.  The seed draws the inputs that may vary
without changing what is measured.  Search seeds handed to the program
stay fixed (``SEARCH_SEED``): the gaps the searches leave differ up to
tenfold between search seeds, and no bound could hold them steady.
README.md gives the make-up of every workload and why it was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import mpmath

import checks
from checks import CheckFailure
from oracle import delta_ref

#: ``--seed`` of every envelope and bruteforce call
SEARCH_SEED = 0


@dataclass(frozen=True)
class CallResult:
    code: int
    out: str
    err: str


@dataclass(frozen=True)
class Operation:
    """Command lines run back to back; ``check`` raises CheckFailure or returns gaps.

    ``fault`` names the known fault (F1-F3) a corner operation fails by, and
    ``fault_seen`` tells whether a given failure is that fault.
    """

    label: str
    argvs: tuple[tuple[str, ...], ...]
    items: int
    check: Callable[[list[CallResult]], dict]
    fault: str | None = None
    fault_seen: Callable[[list[CallResult], CheckFailure], bool] | None = None


class Reference:
    """Oracle values, computed once per (p, eps) in a run and kept in memory."""

    def __init__(self):
        self._memo: dict[tuple[float, float], mpmath.mpf] = {}

    def __call__(self, p: float, eps: float) -> mpmath.mpf:
        key = (p, eps)
        if key not in self._memo:
            self._memo[key] = delta_ref(p, eps)
        return self._memo[key]


def _exit_zero(results: list[CallResult]) -> None:
    for r in results:
        if r.code != 0:
            tail = r.err.strip().splitlines()[-1:] or [""]
            raise CheckFailure("exit", f"exit code {r.code}: {tail[0][:200]}")


# ---------------------------------------------------------------- modulus-table

#: (name, p range, output format); p is drawn uniformly from the range
REGIMES = (
    ("near-1", 1.02, 1.1, "csv"),
    ("below-2", 1.3, 1.9, "csv"),
    ("below-2-json", 1.3, 1.95, "json"),
    ("two", 2.0, 2.0, "csv"),
    ("above-2", 2.5, 5.0, "csv"),
    ("large", 8.0, 30.0, "csv"),
)
TABLE_ROWS = 41

#: single-eps tables that fail today, each by its fault (README.md, F1-F3)
CORNERS = (
    ("F1", 3.0, "1e-06"),
    ("F1", 10.0, "0.01"),
    ("F1", 100.0, "1.0"),
    ("F1", 2.0, "1e-06"),
    ("F2", 1.5, "1e-06"),
    ("F3", 1.5, "1e-08"),
    ("F3", 1.99, "1e-06"),
)


def eps_floor(p: float) -> float:
    """Smallest eps of a regular table at exponent p.

    For p >= 2 the closed form's rounding costs about p 2^-53 / (eps/2)^p
    relative; the floor keeps that below REL_TOL / 100.  Smaller eps is the
    ground of the F1 corner operations.
    """
    if p < 2.0:
        return 0.02
    return max(0.02, 2.0 * (1.1e-6 * p) ** (1.0 / p))


def _table_check(p, eps_expected, fmt, ref, results):
    _exit_zero(results)
    checks.check_table(checks.parse_table(results[0].out, fmt), p, eps_expected, ref)
    return {}


def _is_fault(fault: str):
    def seen(results: list[CallResult], failure: CheckFailure) -> bool:
        if fault == "F3":  # BracketFailureError, reported as a usage error
            return results[0].code == 2 and "no sign change up to" in results[0].err
        return results[0].code == 0 and failure.kind == "accuracy"

    return seen


def modulus_table(seed: int, ref: Reference) -> list[Operation]:
    rng = random.Random(seed)
    ops = []
    for name, lo, hi, fmt in REGIMES:
        p = round(rng.uniform(lo, hi), 3)
        floor = eps_floor(p)
        e_lo = round(rng.uniform(floor, floor + 0.1), 4)
        e_hi = round(rng.uniform(1.8, 2.0), 4)
        grid = checks.eps_grid(e_lo, e_hi, TABLE_ROWS)
        argv = ("table", "--p", repr(p), "--eps", f"{e_lo!r}:{e_hi!r}:{TABLE_ROWS}", "--format", fmt)
        ops.append(Operation(
            f"table-{name}", (argv,), TABLE_ROWS,
            lambda res, p=p, grid=grid, fmt=fmt: _table_check(p, grid, fmt, ref, res),
        ))
    for fault, p, eps in CORNERS:
        argv = ("table", "--p", repr(p), "--eps", eps)
        ops.append(Operation(
            f"corner-{fault}-p{p!r}-eps{eps}", (argv,), 1,
            lambda res, p=p, eps=float(eps): _table_check(p, [eps], "csv", ref, res),
            fault, _is_fault(fault),
        ))
    return ops


# ---------------------------------------------------------------- slice-sweep

SLICE_P = 4.0
SLICE_GRID_N = 25
SLICE_ARGV = (
    "envelope", "--p", "4", "--grid-n", str(SLICE_GRID_N), "--n-per-face", "60",
    "--radius", "128", "--restarts", "32", "--local-steps", "600", "--seed", str(SEARCH_SEED),
)


def _slice_check(results):
    _exit_zero(results)
    return checks.check_slice(checks.parse_envelope(results[0].out), SLICE_P, SLICE_GRID_N)


def slice_sweep(seed: int, ref: Reference) -> list[Operation]:
    return [Operation("envelope-slice", (SLICE_ARGV,), SLICE_GRID_N, _slice_check)]


# ---------------------------------------------------------------- sharp-point

#: (p, i): certify at eps^p = i 2^p / (SHARP_GRID_N - 1), row i of the envelope grid
PAIRS = ((1.5, 1), (1.75, 1), (1.75, 3), (3.0, 1), (4.0, 2))
SHARP_GRID_N = 5
TRIALS = 20000


def _sharp_check(p, eps, x3, index, ref, results):
    _exit_zero(results)
    d = ref(p, eps)
    value = float((1 - d) ** mpmath.mpf(p))
    checks.check_verify(checks.parse_verify(results[0].out), float(1 - d) + checks.LP_TOL)
    gaps = checks.check_sharp_envelope(
        checks.parse_envelope(results[1].out), p, SHARP_GRID_N, index, value)
    gaps.update(checks.check_bruteforce(
        checks.parse_bruteforce(results[2].out), p, (1.0, 1.0, x3), value))
    return gaps


def sharp_point(seed: int, ref: Reference) -> list[Operation]:
    rng = random.Random(seed)
    ops = []
    for p, i in PAIRS:
        frac = i / (SHARP_GRID_N - 1)
        x3 = frac * 2.0**p
        eps = 2.0 * frac ** (1.0 / p)
        trial_seed = rng.randrange(2**31)
        argvs = (
            ("verify", "--p", repr(p), "--eps", repr(eps), "--trials", str(TRIALS),
             "--seed", str(trial_seed)),
            ("envelope", "--p", repr(p), "--eps", repr(eps), "--grid-n", str(SHARP_GRID_N),
             "--seed", str(SEARCH_SEED)),
            ("bruteforce", "--p", repr(p), "--x", f"1.0,1.0,{x3!r}", "--seed", str(SEARCH_SEED)),
        )
        ops.append(Operation(
            f"sharp-p{p!r}-i{i}", argvs, 1,
            lambda res, p=p, eps=eps, x3=x3, i=i: _sharp_check(p, eps, x3, i, ref, res),
        ))
    return ops


WORKLOADS = {
    "modulus-table": modulus_table,
    "slice-sweep": slice_sweep,
    "sharp-point": sharp_point,
}

#: cheap calls into every subcommand, run once before timing starts
WARMUP = (
    ("table", "--p", "1.5", "--eps", "0.5:1.5:3"),
    ("verify", "--p", "3", "--grid-n", "101", "--n-chord", "11"),
    ("envelope", "--p", "3", "--grid-n", "2", "--n-per-face", "4", "--restarts", "1",
     "--local-steps", "10"),
    ("bruteforce", "--p", "3", "--x", "1,1,1", "--restarts", "2", "--local-steps", "10"),
)
