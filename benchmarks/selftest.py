"""Self-test of the benchmark's checks: each accepts a right answer and rejects a wrong one.

Run from the root of the repository:

    python3 benchmarks/selftest.py

Right answers are real ``ucx`` outputs; wrong answers are the same outputs
with one number moved past the check's bound.  The oracle is tested
against the known value delta_2(1) = 1 - sqrt(3)/2 and against itself,
since at p = 2 its closed form and its implicit root must agree.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

import mpmath

import checks
from checks import CheckFailure
from oracle import _implicit_root, delta_ref

SRC = Path(__file__).resolve().parent.parent / "src"


def _cli(*argv: str) -> str:
    import ucx.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ucx.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"ucx {' '.join(argv)} exited {code}")
    return out.getvalue()


def _rejects(kind: str, fn, *args) -> None:
    try:
        fn(*args)
    except CheckFailure as failure:
        if failure.kind != kind:
            raise AssertionError(f"rejected as {failure.kind}, expected {kind}: {failure}") from failure
        return
    raise AssertionError(f"{fn.__name__} accepted a wrong answer ({kind})")


def test_oracle_known_values():
    with mpmath.workdps(60):
        exact = 1 - mpmath.sqrt(3) / 2
        assert abs(delta_ref(2.0, 1.0) - exact) < mpmath.mpf(10) ** -48
        for eps in (1e-6, 0.3, 1.0, 1.9):
            closed = delta_ref(2.0, eps)
            implicit = _implicit_root(mpmath.mpf(2), mpmath.mpf(eps))
            assert abs(closed - implicit) <= closed * mpmath.mpf(10) ** -45


def test_table_rejects_delta_off_by_more_than_the_bound():
    p, lo, hi, n = 1.5, 0.1, 1.9, 7
    rows = checks.parse_table(_cli("table", "--p", repr(p), "--eps", f"{lo}:{hi}:{n}"), "csv")
    grid = checks.eps_grid(lo, hi, n)
    checks.check_table(rows, p, grid, delta_ref)
    rows[3]["delta"] *= 1.0 + 3.0 * checks.REL_TOL
    _rejects("accuracy", checks.check_table, rows, p, grid, delta_ref)


def test_table_rejects_residual_above_the_bound():
    p, grid = 4.0, checks.eps_grid(0.5, 1.5, 3)
    rows = checks.parse_table(_cli("table", "--p", "4", "--eps", "0.5:1.5:3", "--format", "json"), "json")
    checks.check_table(rows, p, grid, delta_ref)
    bad = [dict(r) for r in rows]
    bad[2]["cross_check_residual"] = 10 * checks.RESIDUAL_TOL
    _rejects("residual", checks.check_table, bad, p, grid, delta_ref)


def test_table_rejects_delta_decreasing_in_eps():
    # one ulp apart in eps, both deltas within the relative bound, in the wrong order
    p, grid = 4.0, [1.0, math.nextafter(1.0, 2.0)]
    d = float(delta_ref(p, 1.0))
    rows = [{"p": p, "eps": e, "delta": v, "route": "closed_form", "cross_check_residual": 0.0}
            for e, v in zip(grid, [d * (1.0 + 1e-9), d])]
    _rejects("monotone", checks.check_table, rows, p, grid, delta_ref)


def test_slice_rejects_envelope_and_search_above_the_value():
    p = 4.0
    text = _cli("envelope", "--p", "4", "--grid-n", "5", "--n-per-face", "16",
                "--restarts", "4", "--local-steps", "200")
    rows = checks.parse_envelope(text)
    checks.check_slice(rows, p, 5)
    v = 1.0 - rows[2]["x3"] * 2.0**-p
    high_env = [dict(r) for r in rows]
    high_env[2]["envelope"] = v + 10 * checks.LP_TOL
    _rejects("envelope", checks.check_slice, high_env, p, 5)
    high_bf = [dict(r) for r in rows]
    high_bf[2]["brute_force"] = v + 10 * checks.SLICE_SEARCH_TOL
    _rejects("search", checks.check_slice, high_bf, p, 5)


def test_sharp_point_rejects_envelope_and_search_above_the_value():
    p, i, n = 1.5, 1, 5
    x3 = i / (n - 1) * 2.0**p
    eps = 2.0 * (i / (n - 1)) ** (1.0 / p)
    value = float((1 - delta_ref(p, eps)) ** p)
    rows = checks.parse_envelope(_cli("envelope", "--p", repr(p), "--eps", repr(eps), "--grid-n", "5"))
    checks.check_sharp_envelope(rows, p, n, i, value)
    high = [dict(r) for r in rows]
    high[i]["envelope"] = value + 10 * checks.LP_TOL
    _rejects("envelope", checks.check_sharp_envelope, high, p, n, i, value)
    rising = [dict(r) for r in rows]
    rising[3]["envelope"] = rising[2]["envelope"] + 1e-6
    _rejects("envelope", checks.check_sharp_envelope, rising, p, n, i, value)

    result = checks.parse_bruteforce(_cli("bruteforce", "--p", repr(p), "--x", f"1.0,1.0,{x3!r}"))
    checks.check_bruteforce(result, p, (1.0, 1.0, x3), value)
    # a one-atom witness f = g = c has payoff c^p: make that exceed the value
    c = (value + 1e-4) ** (1.0 / p)
    above = dict(result, atoms=[(1.0, c, c)], value=c**p)
    _rejects("search", checks.check_bruteforce, above, p, (1.0, 1.0, x3), value)
    forged = dict(result, value=result["value"] + 1e-9)
    _rejects("witness", checks.check_bruteforce, forged, p, (1.0, 1.0, x3), value)


def test_verify_rejects_failed_claim_and_midpoint_above_the_bound():
    p, eps = 1.5, 1.0
    bound = float(1 - delta_ref(p, eps)) + checks.LP_TOL
    reports = checks.parse_verify(_cli("verify", "--p", "1.5", "--eps", "1.0", "--grid-n", "1001",
                                       "--trials", "2000"))
    checks.check_verify(reports, bound)
    failed = [dict(r) for r in reports]
    failed[0]["pass"] = "false"
    _rejects("verify", checks.check_verify, failed, bound)
    high = [dict(r, worst=repr(bound + 1e-6)) if r["claim"] == "midpoint-contraction" else r
            for r in reports]
    _rejects("verify", checks.check_verify, high, bound)


def main() -> int:
    sys.path.insert(0, str(SRC))
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    bad = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as e:  # report every case, then fail once at the end
            bad += 1
            print(f"FAIL {name}: {type(e).__name__}: {e}")
        else:
            print(f"ok   {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
