import math
import random
import re
import warnings

import mpmath
import numpy as np
import pytest

from anchors import DELTA_P15_E1, KAPPA_P15_E1, PAYOFF_P15_E1
from helpers import contract_points, delta_mpmath, slice_point
from ucx import certificates
from ucx.certificates import (
    Certificate,
    certificate,
    midpoint_contraction,
    sharpness_check,
    verify_appendix,
)
from ucx.domain import LambdaPoint, section_profile
from ucx.errors import DomainError
from ucx.moduli import delta


def section_gap(cert, tau, p):
    """Certificate minus boundary payoff at section points, as ``verify_appendix`` scans it."""
    x, f, _, _ = section_profile(tau, p)
    return cert.value(x) - f


def lt2_coefficients_mpmath(p, eps, d=None, dps=50):
    """(k, c3) of the p < 2 certificate at ``dps`` digits, by its defining formulas at s*.

    ``d`` is delta at that precision; by default the 50-digit bisection.
    """
    if d is None:
        d = delta_mpmath(p, eps)
    with mpmath.workdps(dps):
        p, eps, half = mpmath.mpf(p), mpmath.mpf(eps), mpmath.mpf(1) / 2
        u = (1 - d) / eps + half  # s*^(1/p)
        f_prime = ((u - half) / u) ** (p - 1)
        g_prime = -mpmath.sign(1 - u) * (abs(1 - u) / u) ** (p - 1)
        k = f_prime / (1 + g_prime)
        return k, (u - half) ** p - 2 * eps ** (-p) * k


class TestCertificateGe2:
    def test_unit_value(self):
        assert certificate(2.0).value(LambdaPoint(1.0, 1.0, 0.0)) == 1.0

    def test_touches_antipodal_point(self):
        assert certificate(3.0).value(LambdaPoint(1.0, 1.0, 8.0)) == pytest.approx(0.0, abs=1e-12)

    def test_query_point_p4(self):
        assert certificate(4.0).value(LambdaPoint(1.0, 1.0, 1.0)) == pytest.approx(
            15.0 / 16.0, abs=1e-15
        )

    def test_dispatch_ignores_eps(self):
        for eps in [None, 0.5, 2.0]:
            assert certificate(3.0, eps) == Certificate((0.5, 0.5, -(2.0**-3.0)))


class TestCertificateLt2:
    def test_degenerate_eps_two(self):
        # k = f'/(1 + g') grows without bound as eps -> 2: no affine certificate there
        assert certificate(1.5, 2.0 - 1e-6).c[0] > 26.0
        with pytest.raises(DomainError):
            certificate(1.5, 2.0)

    def test_anchor_values(self):
        cert = certificate(1.5, 1.0)
        assert cert.c[0] == pytest.approx(KAPPA_P15_E1, abs=1e-10)
        assert cert.value(LambdaPoint(1.0, 1.0, 1.0)) == pytest.approx(PAYOFF_P15_E1, abs=1e-10)
        # the certificate meets the boundary payoff at the touching point
        a = slice_point(cert.w**-1.5, 1.5)
        assert cert.value(a) == pytest.approx(PAYOFF_P15_E1, abs=1e-10)

    def test_dispatch_needs_eps_in_open_interval(self):
        with pytest.raises(DomainError, match="epsilon required for p<2"):
            certificate(1.5)
        for eps in [0.0, 2.0, 2.5]:
            with pytest.raises(DomainError):
                certificate(1.5, eps)

    @pytest.mark.parametrize("p, eps, c3", [(1.99, 1e-8, -0.205862), (1.3, 1e-8, -1.884e-7)])
    def test_small_eps_c3(self, p, eps, c3):
        # f(s*) - 2 eps^-p k subtracts two numbers of size s* ~ 2e16 here
        assert certificate(p, eps).c[2] == pytest.approx(c3, rel=1e-4)

    def test_coefficients_match_mpmath(self):
        rng = random.Random(20140219)
        points = [(1.99, 1e-8), (1.3, 1e-8), (1.5, 1.0)]
        for _ in range(60):
            eps = math.exp(rng.uniform(math.log(1e-8), math.log(1.2)))  # s* > 1
            points.append((rng.uniform(1.01, 1.99), eps))
        # eps > 2**(1/p) puts s* <= 1: the tangency point is on face 3 of the
        # section, where w = s***(-1/p) >= 1 and b - 1 = -1 - (w - 1)**(p-1)
        points += [(1.75, 1.697), (1.5, 1.7), (1.02, 1.99)]
        for _ in range(60):
            p = rng.uniform(1.01, 1.99)
            points.append((p, rng.uniform(2.0 ** (1.0 / p), 2.0 - 1e-3)))
        for p, eps in points:
            cert = certificate(p, eps)
            k, c3 = lt2_coefficients_mpmath(p, eps)
            with mpmath.workdps(50):
                assert abs(cert.c[0] - k) <= 1e-12 * abs(k), (p, eps)
                assert abs(cert.c[2] - c3) <= 1e-12 * abs(c3), (p, eps)

    @pytest.mark.parametrize("p, eps", [(1.5, 1e-300), (1.5, 5e-324), (1.999, 1e-310), (1.999, 5e-324)])
    def test_tiny_eps_matches_mpmath(self, p, eps):
        # at eps = 1e-300, delta ~ 6e-602 lies far below a 50-digit bisection, and
        # c3 ~ -1e-151 is the difference of two terms of size 2 eps^-p ~ 1e450;
        # at the subnormal eps = 5e-324, p = 1.999, the terms are ~ 1e646 and
        # c3 ~ -0.12: 700 digits cover both
        with mpmath.workdps(700):
            P, a = mpmath.mpf(p), mpmath.mpf(eps) / 2
            d = mpmath.findroot(lambda d: (1 - d + a) ** P + abs(1 - d - a) ** P - 2, (P - 1) * a**2 / 2)
        k, c3 = lt2_coefficients_mpmath(p, eps, d, dps=700)
        cert = certificate(p, eps)
        with mpmath.workdps(50):
            assert abs(cert.c[0] - k) <= 1e-12 * abs(k)
            assert abs(cert.c[2] - c3) <= 1e-12 * abs(c3)


class TestMajorizationGap:
    TAU = np.linspace(0.0, 1.0, 801)

    def test_ge2_left_endpoint(self):
        # the certificate touches the payoff at the antipodal point and at (1, 1, 0)
        gap = section_gap(certificate(3.0), np.array([0.0, 1.0]), 3.0)
        assert np.abs(gap).max() <= 1e-15

    def test_lt2_vanishes_at_s_star(self):
        for p, eps in [(1.5, 1.0), (1.5, 1e-8), (1.99, 1e-8), (1.2, 1.9)]:
            cert = certificate(p, eps)
            # the tangency point has roots (1, |1 - w|, w), on face 3 from w = 1 on
            tau_star = 1.0 - 0.5 * cert.w if cert.w <= 1.0 else 1.0 / cert.w - 0.5
            assert section_gap(cert, tau_star, p) == pytest.approx(0.0, abs=1e-14)

    def test_p2_identically_zero(self):
        assert np.abs(section_gap(certificate(2.0), self.TAU, 2.0)).max() <= 1e-15

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 5.0])
    def test_ge2_nonnegative_on_slice(self, p):
        assert section_gap(certificate(p), self.TAU, p).min() >= -1e-15

    @pytest.mark.parametrize("p,eps", [(1.2, 0.5), (1.5, 1.0), (1.8, 1.5)])
    def test_lt2_nonnegative_on_slice(self, p, eps):
        assert section_gap(certificate(p, eps), self.TAU, p).min() >= -1e-15


class TestMonotonicityWitness:
    def test_right_endpoint(self):
        assert certificates._monotonicity_witness(2.0, 3.0) == 0.0

    def test_left_endpoint_p3(self):
        assert certificates._monotonicity_witness(1.0, 3.0) == pytest.approx(0.5, abs=1e-15)

    def test_p2_identically_zero(self):
        for s in np.linspace(1.0, 2.0, 33):
            assert certificates._monotonicity_witness(float(s), 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_witness_nonnegative_p3(self):
        # grid scan anchored by the endpoint values 1 - 2^(2-p) and 0
        s = np.linspace(1.0, 2.0, 10001)
        w = certificates._monotonicity_witness(s, 3.0)
        assert w.shape == s.shape and w.min() >= -1e-12
        assert w[0] == pytest.approx(1.0 - 2.0 ** (2.0 - 3.0), abs=1e-12)
        assert w[-1] == pytest.approx(0.0, abs=1e-12)

    def test_array_matches_scalar(self):
        s = np.linspace(1.0, 2.0, 17)
        w = certificates._monotonicity_witness(s, 4.5)
        for si, wi in zip(s, w):
            assert wi == pytest.approx(certificates._monotonicity_witness(float(si), 4.5), abs=1e-15)


class TestVerifyAppendix:
    def test_ge2_all_pass(self):
        reports = verify_appendix(3.0, None, 2001)
        assert all(r.passed for r in reports), [r.line() for r in reports]
        claims = {r.claim for r in reports}
        assert claims == {
            "majorant-slice-gap",
            "w-nonneg",
            "w-concave",
            "w-endpoints",
            "x3-slope-nonpositive",
        }

    def test_lt2_all_pass(self):
        reports = verify_appendix(1.5, 1.0, 2001)
        assert all(r.passed for r in reports), [r.line() for r in reports]
        claims = {r.claim for r in reports}
        assert claims == {
            "majorant-slice-gap",
            "denominator-positive",
            "slope-ratio-decreasing",
            "gap-derivative-sign",
            "x3-slope-nonpositive",
        }

    def test_eps_required_below_two(self):
        with pytest.raises(DomainError):
            verify_appendix(1.5, None, 11)

    def test_large_p_all_pass(self):
        # 2**p overflows float64 at p = 2000; the section scans never form it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = verify_appendix(2000.0, None, 11)
            reports.append(sharpness_check(2000.0, None))
        assert all(r.passed for r in reports), [r.line() for r in reports]
        assert len(reports) == 6

    def test_section_scan_reports_tau(self):
        # 2 grid_n - 1 payoff roots tau in [0, 1], one fewer for the claims past tau = 0
        for r in verify_appendix(1.5, 1e-6, 101):
            assert r.grid in (200, 201) and 0.0 <= r.worst_arg <= 1.0 and r.passed, r.line()

    def test_hand_value_of_slope_claim(self):
        # at s = 1, p = 3/2: f*(1+g') - f'*(s+g) = (1/2)^1.5 - (1/2)^0.5 < 0
        reports = verify_appendix(1.5, 1.0, 501)
        slope = next(r for r in reports if r.claim == "x3-slope-nonpositive")
        assert slope.passed
        expected = 0.5**1.5 - 0.5**0.5
        assert expected < 0.0  # the hand-checked sample confirming the sign

    def test_report_line_format(self):
        line = verify_appendix(2.5, None, 501)[0].line()
        assert re.fullmatch(
            r"claim=[\w-]+ pass=(true|false) worst=[-+0-9.e]+ at=[-+0-9.e]+ grid=\d+", line
        )


class TestSharpness:
    def test_lt2_chord_equality(self):
        rep = sharpness_check(1.5, 1.0)
        assert rep.passed
        assert rep.worst_value < 1e-10
        # the gap is affine along the chord, so only its two ends are evaluated
        assert rep.grid == 2 and rep.worst_arg in (0.0, 1.0)

    @pytest.mark.parametrize("p", [1.2, 1.5])
    @pytest.mark.parametrize("eps", [1e-2, 3e-3, 1e-3])
    def test_lt2_chord_equality_small_eps(self, p, eps):
        # s* is near 2 eps^-p here; the chord's ends are the extremal pair's atoms
        assert sharpness_check(p, eps).passed

    def test_ge2_chord_equality(self):
        # the chord (2^-p, 2^-p, 1) -> (1, 1, 0) carries payoffs 0 -> 1, as the certificate does
        for p in [2.5, 3.0, 4.0, 8.0, 30.0]:
            rep = sharpness_check(p)
            assert rep.claim == "chord-equality" and rep.passed
            assert rep.worst_value <= 1e-10
            assert rep.grid == 2 and rep.worst_arg in (0.0, 1.0)

    def test_p2_equality_case(self):
        rep = sharpness_check(2.0, 1.0)
        assert rep.passed
        assert rep.worst_value <= 1e-10

    def test_lt2_requires_eps(self):
        with pytest.raises(DomainError):
            sharpness_check(1.5)


def chord_scan(cert, p, n=1001):
    """max |chord - cert| over ``n`` equispaced chord points: the dense reference scan."""
    if p < 2.0:
        w = cert.w
        x, f, _, _ = section_profile(1.0 - 0.5 * w if w <= 1.0 else 1.0 / w - 0.5, p)
        ends, payoffs = np.array([x, x[[1, 0, 2]]]), np.array([f, f])
    else:
        ends, payoffs, _, _ = section_profile(np.array([0.0, 1.0]), p)
    t = np.linspace(0.0, 1.0, n)
    pts = np.outer(1.0 - t, ends[0]) + np.outer(t, ends[1])
    return float(np.abs((1.0 - t) * payoffs[0] + t * payoffs[1] - cert.value(pts)).max())


class TestChordMutation:
    """The chord's gap to any linear c . x is affine, so its two ends decide the claim."""

    POINTS = [(1.1, 0.3), (1.1, 1.9), (1.5, 1.0), (1.5, 0.01), (1.9, 1.9), (1.99, 0.5),
              (2.0, 1.0), (2.5, 1.0), (3.0, None), (4.0, None), (8.0, None)]

    def test_ends_reject_what_the_scan_rejects(self, monkeypatch):
        rejected = {True: 0, False: 0}
        for p, eps in self.POINTS:
            base = certificate(p, eps)
            for j in range(3):  # c1, c2 or c3
                for sign in (1.0, -1.0):
                    c = list(base.c)
                    c[j] *= 1.0 + sign * 1e-9
                    cert = Certificate(tuple(c), base.w)
                    monkeypatch.setattr(certificates, "certificate", lambda *_, cert=cert: cert)
                    rep = sharpness_check(p, eps)
                    if chord_scan(cert, p) > 1e-10:
                        assert not rep.passed, (p, eps, j, sign, rep.line())
                        rejected[p < 2.0] += 1
        # the scan rejects some perturbations on both sides of p = 2
        assert rejected[True] >= 20 and rejected[False] >= 20, rejected


#: the (p, eps) of the benchmark's sharp points: row i of a 5-row slice, eps = 2 (i/4)^(1/p)
SHARP_POINTS = [(p, 2.0 * (i / 4) ** (1.0 / p)) for p, i in [(1.5, 1), (1.75, 1), (1.75, 3), (3.0, 1), (4.0, 2)]]
#: where a perturbed delta must be rejected: the sharp points, then both regimes from small to large eps
MUTATION_POINTS = SHARP_POINTS + [(1.5, 1.0), (1.25, 0.66), (1.1, 0.3), (1.75, 1.9), (3.0, 0.1), (1.5, 1e-4),
                                  (1.5, 1e-8)]


class TestMidpointContraction:
    """The extremal pair, scaled to unit norm, attains delta in its midpoint-contraction definition."""

    def test_p2_is_parallelogram_sharp(self):
        rep = midpoint_contraction(2.0, 1.0)
        assert rep.passed and rep.line().startswith("claim=midpoint-contraction pass=true")
        assert rep.worst_value == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
        assert rep.worst_arg == pytest.approx(1.0, rel=1e-15) and rep.grid == 2

    def test_p4_eps2_pair_is_antipodal(self):
        rep = midpoint_contraction(4.0, 2.0)
        assert rep.passed and rep.worst_value == 0.0 and rep.worst_arg == 2.0

    def test_p15(self):
        rep = midpoint_contraction(1.5, 1.0)
        assert rep.passed
        assert rep.worst_value == pytest.approx(1.0 - DELTA_P15_E1, rel=1e-15)

    def test_eps_validation(self):
        with pytest.raises(DomainError):
            midpoint_contraction(2.0, 0.0)

    @pytest.mark.parametrize("p, eps", SHARP_POINTS)
    def test_worst_is_one_minus_the_reference_delta(self, p, eps):
        # the benchmark bounds worst by 1 - delta_ref + 1e-9; the pair meets it to
        # rounding.  For p >= 2, 1 - delta is (1 - (eps/2)^p)^(1/p)
        with mpmath.workdps(50):
            ref = 1 - delta_mpmath(p, eps) if p < 2.0 else (1 - (mpmath.mpf(eps) / 2) ** p) ** (1 / mpmath.mpf(p))
        assert abs(midpoint_contraction(p, eps).worst_value - float(ref)) <= 1e-15

    @pytest.mark.parametrize("p, eps", MUTATION_POINTS)
    @pytest.mark.parametrize("r", [1e-9, -1e-9])
    def test_rejects_a_perturbed_delta(self, monkeypatch, p, eps, r):
        assert midpoint_contraction(p, eps).passed
        monkeypatch.setattr(certificates, "delta", lambda p, eps: delta(p, eps) * (1.0 + r))
        assert not midpoint_contraction(p, eps).passed

    @pytest.mark.parametrize("factor", [1.01, 0.5])
    def test_rejects_what_a_random_sample_passed(self, monkeypatch, factor):
        # a sample of 20,000 random 4-atom pairs at (1.5, 1) catches neither factor
        monkeypatch.setattr(certificates, "delta", lambda p, eps: delta(p, eps) * factor)
        assert not midpoint_contraction(1.5, 1.0).passed

    def test_separation_rejects_a_pair_off_the_unit_sphere(self, monkeypatch):
        # near eps = 2 delta exceeds u, and a norm 1.8e-11 above 1 moves the
        # modulus by only 6e-12 relative: the separation eps/||f|| rejects it
        monkeypatch.setattr(certificates, "delta", lambda p, eps: delta(p, eps) * (1.0 - 4e-10))
        rep = midpoint_contraction(3.0, 1.99)
        assert not rep.passed and 1.99 * (1.0 - 2e-11) < rep.worst_arg < 1.99 * (1.0 - 1e-11)

    def test_unequal_norms_rejected(self, monkeypatch):
        pair = certificates._extremal_pair
        monkeypatch.setattr(certificates, "_extremal_pair", lambda *args: (pair(*args)[0], 1.0001 * pair(*args)[1]))
        assert not midpoint_contraction(1.5, 1.0).passed

    def test_accepts_delta_at_the_accuracy_contract_points(self):
        failed = [(p, eps) for p, eps in contract_points() if not midpoint_contraction(p, eps).passed]
        assert failed == []

    @pytest.mark.parametrize("k", [41, 44, 52])
    @pytest.mark.parametrize("eps", [0.5, 1.0, 1.9, 1.9999, 2.0 - 2.0**-52])
    def test_p_near_one(self, k, eps):
        # the mean power's terms cancel to O(p - 1) here, as in delta's own root solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert midpoint_contraction(1.0 + 2.0**-k, eps).passed
