import re

import numpy as np
import pytest

from anchors import KAPPA_P15_E1, PAYOFF_P15_E1, U_P3_S1E3, U_P3_S1E6
from ucx.certificates import (
    certificate_ge2,
    certificate_lt2,
    majorization_gap,
    monotonicity_witness,
    sharpness_check,
    verify_appendix,
)
from ucx.domain import LambdaPoint, slice_lower_bound, slice_point
from ucx.errors import DomainError, OutOfRangeError, WrongRegimeError


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
        cert = certificate_lt2(1.5, 2.0)
        assert cert.c == (0.0, 0.0, 0.0)
        assert cert.value(LambdaPoint(1.0, 1.0, 2.0**1.5)) == 0.0

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


class TestMajorizationGap:
    def test_ge2_left_endpoint(self):
        cert = certificate_ge2(3.0)
        assert majorization_gap(slice_lower_bound(3.0), cert) == pytest.approx(0.0, abs=1e-12)

    def test_lt2_vanishes_at_s_star(self):
        cert = certificate_lt2(1.5, 1.0)
        assert majorization_gap(cert.s_star, cert) == pytest.approx(0.0, abs=1e-10)

    def test_p2_identically_zero(self):
        cert = certificate_ge2(2.0)
        for s in np.linspace(0.25, 60.0, 101):
            assert majorization_gap(float(s), cert) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_values_p3(self):
        cert = certificate_ge2(3.0)
        assert majorization_gap(1e3, cert) == pytest.approx(U_P3_S1E3, abs=1e-9)
        assert majorization_gap(1e6, cert) == pytest.approx(U_P3_S1E6, abs=1e-6)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 5.0])
    def test_ge2_nonnegative_on_slice(self, p):
        cert = certificate_ge2(p)
        grid = np.linspace(slice_lower_bound(p), 80.0, 400)
        assert min(majorization_gap(float(s), cert) for s in grid) >= -1e-12

    @pytest.mark.parametrize("p,eps", [(1.2, 0.5), (1.5, 1.0), (1.8, 1.5)])
    def test_lt2_nonnegative_on_slice(self, p, eps):
        cert = certificate_lt2(p, eps)
        grid = np.linspace(slice_lower_bound(p), 80.0, 400)
        assert min(majorization_gap(float(s), cert) for s in grid) >= -1e-12


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
            "majorant-slice-gap-tail",
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
            "majorant-slice-gap-tail",
            "denominator-positive",
            "slope-ratio-decreasing",
            "gap-derivative-sign",
            "x3-slope-nonpositive",
        }

    def test_eps_required_below_two(self):
        with pytest.raises(DomainError):
            verify_appendix(1.5)

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
        # s* is near 2 eps^-p here, and the midpoint identity is checked to
        # 1e-12 absolute: s* must solve its equation to the last ulp
        assert sharpness_check(p, eps, n_chord=101).passed

    def test_ge2_gap_shrinks_with_probe(self):
        near = sharpness_check(3.0, 1.0, s_probe=1e3)
        far = sharpness_check(3.0, 1.0, s_probe=1e6)
        assert near.passed and far.passed
        assert far.worst_value < near.worst_value

    def test_p2_equality_case(self):
        rep = sharpness_check(2.0, 1.0, s_probe=1e3)
        assert rep.passed
        assert rep.worst_value <= 1e-10

    def test_chord_gap_matches_slice_gap_prediction(self):
        # the gap grows affinely along the chord, so its max sits at the cap
        p, eps, s_probe = 3.0, 1.0, 1e3
        rep = sharpness_check(p, eps, s_probe=s_probe)
        smin = slice_lower_bound(p)
        t_cap = (eps ** (-p) - smin) / (s_probe - smin)
        assert rep.worst_value == pytest.approx(t_cap * U_P3_S1E3, rel=1e-6)
