import math
import random
import re

import mpmath
import numpy as np
import pytest

from anchors import KAPPA_P15_E1, PAYOFF_P15_E1
from helpers import delta_mpmath, slice_point
from ucx.certificates import (
    certificate_ge2,
    certificate_lt2,
    monotonicity_witness,
    sharpness_check,
    verify_appendix,
)
from ucx.domain import LambdaPoint, section_parameter, section_profile
from ucx.errors import DomainError, OutOfRangeError, WrongRegimeError


def section_gap(cert, tau):
    """Certificate minus boundary payoff at section points, as ``verify_appendix`` scans it."""
    x, f, _, _ = section_profile(tau, cert.p)
    return cert.value(x) - f


def lt2_coefficients_mpmath(p, eps):
    """(k, c3) of the p < 2 certificate at 50 digits, by its defining formulas at s*."""
    d = delta_mpmath(p, eps)
    with mpmath.workdps(50):
        p, eps, half = mpmath.mpf(p), mpmath.mpf(eps), mpmath.mpf(1) / 2
        u = (1 - d) / eps + half  # s*^(1/p)
        f_prime = ((u - half) / u) ** (p - 1)
        g_prime = -mpmath.sign(1 - u) * (abs(1 - u) / u) ** (p - 1)
        k = f_prime / (1 + g_prime)
        return k, (u - half) ** p - 2 * eps ** (-p) * k


class TestCertificateGe2:
    def test_unit_value(self):
        assert certificate_ge2(2.0).value(LambdaPoint(1.0, 1.0, 0.0)) == 1.0

    def test_touches_antipodal_point(self):
        assert certificate_ge2(3.0).value(LambdaPoint(1.0, 1.0, 8.0)) == pytest.approx(0.0, abs=1e-12)

    def test_query_point_p4(self):
        assert certificate_ge2(4.0).value(LambdaPoint(1.0, 1.0, 1.0)) == pytest.approx(
            15.0 / 16.0, abs=1e-15
        )

    def test_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            certificate_ge2(1.5)


class TestCertificateLt2:
    def test_degenerate_eps_two(self):
        # k = f'/(1 + g') grows without bound as eps -> 2: no affine certificate there
        assert certificate_lt2(1.5, 2.0 - 1e-6).c[0] > 26.0
        with pytest.raises(DomainError):
            certificate_lt2(1.5, 2.0)

    def test_anchor_values(self):
        cert = certificate_lt2(1.5, 1.0)
        assert cert.c[0] == pytest.approx(KAPPA_P15_E1, abs=1e-10)
        assert cert.value(LambdaPoint(1.0, 1.0, 1.0)) == pytest.approx(PAYOFF_P15_E1, abs=1e-10)
        # the certificate meets the boundary payoff at the touching point
        a = slice_point(cert.s_star, 1.5)
        assert cert.value(a) == pytest.approx(PAYOFF_P15_E1, abs=1e-10)

    def test_wrong_regime_and_eps(self):
        with pytest.raises(WrongRegimeError):
            certificate_lt2(2.0, 1.0)
        with pytest.raises(DomainError):
            certificate_lt2(1.5, 0.0)

    @pytest.mark.parametrize("p, eps, c3", [(1.99, 1e-8, -0.205862), (1.3, 1e-8, -1.884e-7)])
    def test_small_eps_c3(self, p, eps, c3):
        # f(s*) - 2 eps^-p k subtracts two numbers of size s* ~ 2e16 here
        assert certificate_lt2(p, eps).c[2] == pytest.approx(c3, rel=1e-4)

    def test_coefficients_match_mpmath(self):
        rng = random.Random(20140219)
        points = [(1.99, 1e-8), (1.3, 1e-8), (1.5, 1.0)]
        for _ in range(60):
            eps = math.exp(rng.uniform(math.log(1e-8), math.log(1.2)))  # s* > 1
            points.append((rng.uniform(1.01, 1.99), eps))
        for p, eps in points:
            cert = certificate_lt2(p, eps)
            k, c3 = lt2_coefficients_mpmath(p, eps)
            with mpmath.workdps(50):
                assert abs(cert.c[0] - k) <= 1e-12 * abs(k), (p, eps)
                assert abs(cert.c[2] - c3) <= 1e-12 * abs(c3), (p, eps)


class TestMajorizationGap:
    TAU = np.linspace(0.0, 1.0, 801)

    def test_ge2_left_endpoint(self):
        # the certificate touches the payoff at the antipodal point and at (1, 1, 0)
        gap = section_gap(certificate_ge2(3.0), np.array([0.0, 1.0]))
        assert np.abs(gap).max() <= 1e-15

    def test_lt2_vanishes_at_s_star(self):
        for p, eps in [(1.5, 1.0), (1.5, 1e-8), (1.99, 1e-8), (1.2, 1.9)]:
            cert = certificate_lt2(p, eps)
            tau_star = section_parameter(cert.s_star, p)
            assert section_gap(cert, tau_star) == pytest.approx(0.0, abs=1e-14)

    def test_p2_identically_zero(self):
        assert np.abs(section_gap(certificate_ge2(2.0), self.TAU)).max() <= 1e-15

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 5.0])
    def test_ge2_nonnegative_on_slice(self, p):
        assert section_gap(certificate_ge2(p), self.TAU).min() >= -1e-15

    @pytest.mark.parametrize("p,eps", [(1.2, 0.5), (1.5, 1.0), (1.8, 1.5)])
    def test_lt2_nonnegative_on_slice(self, p, eps):
        assert section_gap(certificate_lt2(p, eps), self.TAU).min() >= -1e-15


class TestMonotonicityWitness:
    def test_right_endpoint(self):
        assert monotonicity_witness(2.0, 3.0) == 0.0

    def test_left_endpoint_p3(self):
        assert monotonicity_witness(1.0, 3.0) == pytest.approx(0.5, abs=1e-15)

    def test_p2_identically_zero(self):
        for s in np.linspace(1.0, 2.0, 33):
            assert monotonicity_witness(float(s), 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_witness_nonnegative_p3(self):
        # grid scan anchored by the endpoint values 1 - 2^(2-p) and 0
        s = np.linspace(1.0, 2.0, 10001)
        w = monotonicity_witness(s, 3.0)
        assert w.shape == s.shape and w.min() >= -1e-12
        assert w[0] == pytest.approx(1.0 - 2.0 ** (2.0 - 3.0), abs=1e-12)
        assert w[-1] == pytest.approx(0.0, abs=1e-12)

    def test_array_matches_scalar(self):
        s = np.linspace(1.0, 2.0, 17)
        w = monotonicity_witness(s, 4.5)
        for si, wi in zip(s, w):
            assert wi == pytest.approx(monotonicity_witness(float(si), 4.5), abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(OutOfRangeError):
            monotonicity_witness(0.5, 3.0)
        with pytest.raises(OutOfRangeError):
            monotonicity_witness(np.array([1.0, 2.5]), 3.0)
        with pytest.raises(WrongRegimeError):
            monotonicity_witness(1.5, 1.5)


class TestVerifyAppendix:
    def test_ge2_all_pass(self):
        reports = verify_appendix(3.0, grid_n=2001)
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
        reports = verify_appendix(1.5, 1.0, grid_n=2001)
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
            verify_appendix(1.5)

    def test_section_scan_reports_tau(self):
        # 2 grid_n - 1 payoff roots tau in [0, 1], one fewer for the claims past tau = 0
        for r in verify_appendix(1.5, 1e-6, grid_n=101):
            assert r.grid in (200, 201) and 0.0 <= r.worst_arg <= 1.0 and r.passed, r.line()

    def test_hand_value_of_slope_claim(self):
        # at s = 1, p = 3/2: f*(1+g') - f'*(s+g) = (1/2)^1.5 - (1/2)^0.5 < 0
        reports = verify_appendix(1.5, 1.0, grid_n=501)
        slope = next(r for r in reports if r.claim == "x3-slope-nonpositive")
        assert slope.passed
        expected = 0.5**1.5 - 0.5**0.5
        assert expected < 0.0  # the hand-checked sample confirming the sign

    def test_report_line_format(self):
        line = verify_appendix(2.5, grid_n=501)[0].line()
        assert re.fullmatch(
            r"claim=[\w-]+ pass=(true|false) worst=[-+0-9.e]+ at=[-+0-9.e]+ grid=\d+", line
        )


class TestSharpness:
    def test_lt2_chord_equality(self):
        rep = sharpness_check(1.5, 1.0, n_chord=1001)
        assert rep.passed
        assert rep.worst_value < 1e-10

    @pytest.mark.parametrize("p", [1.2, 1.5])
    @pytest.mark.parametrize("eps", [1e-2, 3e-3, 1e-3])
    def test_lt2_chord_equality_small_eps(self, p, eps):
        # s* is near 2 eps^-p here; its equation is checked to 1e-12 relative
        assert sharpness_check(p, eps, n_chord=101).passed

    def test_ge2_chord_equality(self):
        # the chord (2^-p, 2^-p, 1) -> (1, 1, 0) carries payoffs 0 -> 1, as the certificate does
        for p in [2.5, 3.0, 4.0, 8.0, 30.0]:
            rep = sharpness_check(p, n_chord=1001)
            assert rep.claim == "chord-equality" and rep.passed
            assert rep.worst_value <= 1e-10

    def test_p2_equality_case(self):
        rep = sharpness_check(2.0, 1.0)
        assert rep.passed
        assert rep.worst_value <= 1e-10

    def test_lt2_requires_eps(self):
        with pytest.raises(DomainError):
            sharpness_check(1.5)
