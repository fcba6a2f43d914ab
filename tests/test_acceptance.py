"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not recomputed; run with ``pytest -v -s`` to see
the per-criterion lines and timings.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from anchors import DELTA_P15_E1, S_STAR_P15_E1
from helpers import slice_point
from ucx.bellman import SearchBudget, StepFunction, brute_force_bellman, hanner_gap, witness_test
from ucx.certificates import certificate_ge2, certificate_lt2, sharpness_check, verify_appendix
from ucx.cli import main as cli_main
from ucx.domain import LambdaPoint, boundary_profile, slice_lower_bound
from ucx.envelope import concavify, sample_boundary
from ucx.moduli import delta_closed_form, delta_implicit, delta_via_s_star, solve_s_star


class Stopwatch:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, f"runtime {self.elapsed:.2f}s exceeds {self.limit}s"


def report(k, name, sw):
    print(f"ACCEPTANCE {k} ({name}): PASS [{sw.elapsed:.2f}s]")


def test_criterion_1_closed_form_ge2():
    with Stopwatch(1.0) as sw:
        eps_grid = np.linspace(0.0, 2.0, 50)
        for p in [2.0, 2.5, 3.0, 4.0, 8.0]:
            vals = [delta_closed_form(p, float(e)) for e in eps_grid]
            assert vals[0] == 0.0
            assert vals[-1] == 1.0
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        for e in eps_grid:
            assert abs(delta_closed_form(2.0, float(e)) - delta_implicit(2.0, float(e))) < 1e-10
    report(1, "closed-form modulus, p>=2", sw)


def test_criterion_2_route_agreement_lt2():
    with Stopwatch(1.0) as sw:
        for p in [1.1, 1.3, 1.5, 1.7, 1.9]:
            for eps in np.linspace(0.1, 1.9, 19):
                eps = float(eps)
                sol = solve_s_star(p, eps)
                assert sol.residual < 1e-10
                assert abs(delta_via_s_star(p, eps) - delta_implicit(p, eps)) < 1e-8
        # spot anchors at (p, eps) = (1.5, 1): two independent root solves agree
        sol = solve_s_star(1.5, 1.0)
        assert abs(sol.s_star - S_STAR_P15_E1) < 1e-10 and abs(sol.s_star - 1.715) < 1e-3
        d = delta_via_s_star(1.5, 1.0)
        assert abs(d - DELTA_P15_E1) < 1e-10 and abs(d - 0.0672) < 5e-4
    report(2, "route agreement, 1<p<2", sw)


def test_criterion_3_appendix_verification():
    ge2_claims = {
        "majorant-slice-gap",
        "w-nonneg",
        "w-concave",
        "w-endpoints",
        "x3-slope-nonpositive",
    }
    lt2_claims = {
        "majorant-slice-gap",
        "denominator-positive",
        "slope-ratio-decreasing",
        "gap-derivative-sign",
        "x3-slope-nonpositive",
    }
    with Stopwatch(10.0) as sw:
        for p in [2.0, 2.5, 3.0, 5.0]:
            reports = verify_appendix(p, grid_n=10001)
            assert {r.claim for r in reports} == ge2_claims
            assert all(r.passed for r in reports), [r.line() for r in reports if not r.passed]
        for p in [1.2, 1.5, 1.8]:
            for eps in [0.5, 1.0, 1.5]:
                reports = verify_appendix(p, eps, grid_n=10001)
                assert {r.claim for r in reports} == lt2_claims
                assert all(r.passed for r in reports), [r.line() for r in reports if not r.passed]
    report(3, "appendix verification", sw)


def test_criterion_4_sharpness():
    with Stopwatch(10.0) as sw:
        # 1 < p < 2: exact chord equality and the midpoint identity
        rep = sharpness_check(1.5, 1.0, n_chord=1001)
        assert rep.passed and rep.worst_value < 1e-10
        sol = solve_s_star(1.5, 1.0)
        mid = 0.5 * (sol.s_star + boundary_profile(sol.s_star, 1.5).g)
        assert abs(mid - 1.0) <= 1e-12  # (eps^-p, eps^-p, 1) sits on the chord

        # p >= 2: exact chord equality from the antipodal point to (1, 1, 0)
        for p in [2.0, 3.0, 8.0]:
            rep = sharpness_check(p, n_chord=1001)
            assert rep.passed and rep.worst_value <= 1e-10

        # both certificates touch their anchor points
        ge2 = certificate_ge2(3.0)
        assert abs(ge2.value(LambdaPoint(1.0, 1.0, 2.0**3))) <= 1e-10
        smin = slice_lower_bound(3.0)
        assert abs(ge2.value(LambdaPoint(smin, smin, 1.0))) <= 1e-10
        assert abs(ge2.value(LambdaPoint(1.0, 1.0, 0.0)) - 1.0) <= 1e-10
        lt2 = certificate_lt2(1.5, 1.0)
        level = boundary_profile(lt2.s_star, 1.5).f
        assert abs(lt2.value(slice_point(lt2.s_star, 1.5)) - level) <= 1e-10
        assert abs(lt2.value(slice_point(lt2.s_star, 1.5, swapped=True)) - level) <= 1e-10
    report(4, "sharpness of both certificates", sw)


def test_criterion_5_sandwich_reconstruction():
    with Stopwatch(60.0) as sw:
        # envelope vs certificate along the slice, p = 4
        cert4 = certificate_ge2(4.0)
        grid4 = sample_boundary(4.0, 0.5, 60)
        for x3 in np.linspace(0.0, 2.0**4, 25):
            x = LambdaPoint(1.0, 1.0, float(x3))
            env = concavify(grid4, x).result
            cv = cert4.value(x)
            assert cv - 5e-3 <= env <= cv + 1e-9, f"x3={x3}: env={env} cert={cv}"

        # envelope at the query point, p = 1.5
        cert15 = certificate_lt2(1.5, 1.0)
        grid15 = sample_boundary(1.5, 0.5, 60)
        x = LambdaPoint(1.0, 1.0, 1.0)
        env = concavify(grid15, x).result
        cv = cert15.value(x)
        assert cv - 5e-3 <= env <= cv + 1e-9

        # brute force reaches the certificates at (1, 1, eps^p)
        budget = SearchBudget(restarts=200, local_steps=2000, seed=7)
        for p, eps, cert in [(4.0, 1.0, cert4), (1.5, 1.0, cert15), (2.0, 1.0, certificate_ge2(2.0))]:
            x = LambdaPoint(1.0, 1.0, eps**p)
            res = brute_force_bellman(x, p, 0.5, budget)
            cv = cert.value(x)
            assert res.value >= cv - 1e-6, f"p={p}: bf={res.value} cert={cv}"
            assert res.value <= cv + 1e-6
    report(5, "sandwich reconstruction of the slice values", sw)


def test_criterion_6_hanner_property_suite():
    with Stopwatch(5.0) as sw:
        rng = np.random.default_rng(2718)
        for p in [1.0, 1.5, 2.0, 3.0, 4.0]:
            weights = rng.dirichlet(np.ones(4), size=10000)
            fvals = rng.uniform(-2.0, 2.0, (10000, 4))
            gvals = rng.uniform(-2.0, 2.0, (10000, 4))
            gaps = hanner_gap(
                StepFunction(tuple(zip(weights.T, fvals.T))),
                StepFunction(tuple(zip(weights.T, gvals.T))),
                p,
            )
            worst_low, worst_high = gaps.min(), gaps.max()
            if p <= 2.0:
                assert worst_low >= -1e-12, f"p={p}: {worst_low}"
            if p >= 2.0:
                assert worst_high <= 1e-12, f"p={p}: {worst_high}"
    report(6, "two-function inequality suite", sw)


def test_criterion_7_witness_suite():
    with Stopwatch(10.0) as sw:
        for p, eps in [(2.0, 1.0), (4.0, 1.0), (1.5, 1.0)]:
            rep = witness_test(p, eps, 10000, seed=911)
            assert rep.passed, rep.line()
    report(7, "midpoint-contraction witness suite", sw)


def _capture_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue().encode(), err.getvalue()


def test_criterion_8_determinism():
    commands = [
        # criterion-5 configurations driven through the CLI
        ["envelope", "--p", "4", "--grid-n", "25", "--n-per-face", "60",
         "--radius", "128", "--restarts", "32", "--local-steps", "600",
         "--seed", "7", "--sandwich-tol", "0.05"],
        ["envelope", "--p", "1.5", "--eps", "1", "--grid-n", "5", "--n-per-face", "60",
         "--restarts", "32", "--local-steps", "600", "--seed", "7",
         "--sandwich-tol", "0.05"],
        ["bruteforce", "--p", "4", "--x", "1,1,1", "--seed", "7"],
        ["bruteforce", "--p", "1.5", "--x", "1,1,1", "--seed", "7"],
        ["bruteforce", "--p", "2", "--x", "1,1,1", "--seed", "7"],
        # criterion-7 configurations
        ["verify", "--p", "2", "--eps", "1", "--grid-n", "2001", "--trials", "10000", "--seed", "911"],
        ["verify", "--p", "4", "--eps", "1", "--grid-n", "2001", "--trials", "10000", "--seed", "911"],
        ["verify", "--p", "1.5", "--eps", "1", "--grid-n", "2001", "--trials", "10000", "--seed", "911"],
    ]
    with Stopwatch(120.0) as sw:
        for argv in commands:
            code1, out1, err1 = _capture_cli(argv)
            code2, out2, err2 = _capture_cli(argv)
            assert code1 == code2 == 0, f"{argv}: exits {code1}/{code2} stderr={err1 or err2}"
            assert out1 == out2, f"non-deterministic output for {argv}"
            assert len(out1) > 0
    report(8, "byte-identical seeded reruns", sw)
