import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchors import (
    DELTA_E1_P2,
    DELTA_E1_P4,
    DELTA_P15_E1,
    DELTA_SMALL_EPS_LT2,
    DELTA_TINY_CORNERS,
    S_STAR_P15_E1,
)
from helpers import contract_points, delta_implicit, delta_mpmath, implicit_residual
from ucx import moduli
from ucx.certificates import certificate
from ucx.errors import DomainError
from ucx.moduli import delta, implicit_correction


def slice_residual(p, eps, w):
    """|s + g(s) - 2 eps^-p| at the slice parameter s = w**-p of a tangency root w."""
    s = w**-p
    return abs(s + abs(1.0 - s ** (1.0 / p)) ** p - 2.0 * eps**-p)


class TestClosedForm:
    def test_endpoints_exact(self):
        assert delta(3.0, 0.0) == 0.0
        assert delta(3.0, 2.0) == 1.0

    def test_p2(self):
        assert delta(2.0, 1.0) == pytest.approx(DELTA_E1_P2, abs=1e-14)

    def test_p4(self):
        d = delta(4.0, 1.0)
        assert d == pytest.approx(DELTA_E1_P4, abs=1e-14)
        assert (1.0 - d) ** 4 == pytest.approx(15.0 / 16.0, abs=1e-14)

    @pytest.mark.parametrize("p, eps, expected", DELTA_TINY_CORNERS)
    def test_relative_accuracy_when_delta_is_tiny(self, p, eps, expected):
        assert abs(delta(p, eps) - expected) <= 1e-15 * expected

    def test_eps_validation(self):
        with pytest.raises(DomainError):
            delta(3.0, 2.5)


class TestSStar:
    """s* = w**-p, the slice parameter of the p < 2 certificate's tangency root w."""

    def test_eps_two_hits_left_endpoint(self):
        # s* falls to 2**-p like sqrt(2 - eps); at eps = 2 there is no certificate
        for p in [1.2, 1.5, 1.9]:
            gaps = [certificate(p, 2.0 - h).w ** -p - 2.0**-p for h in (1e-6, 1e-9, 1e-12)]
            assert 0.0 < gaps[2] < gaps[1] < gaps[0] and gaps[2] < 2e-6

    def test_frozen_anchor(self):
        w = certificate(1.5, 1.0).w
        assert w**-1.5 == pytest.approx(S_STAR_P15_E1, abs=1e-10)
        assert slice_residual(1.5, 1.0, w) < 1e-10

    def test_p2_hand_checkable(self):
        # s* = ((1 - delta)/eps + 1/2)**p; at eps = sqrt(2), s + (1 - sqrt(s))^2 = 1
        # has the root s = 1
        eps = math.sqrt(2.0)
        assert ((1.0 - delta(2.0, eps)) / eps + 0.5) ** 2 == pytest.approx(1.0, abs=1e-10)
        # at eps = 2 the root collapses to 2^(-p) = 1/4
        assert ((1.0 - delta(2.0, 2.0)) / 2.0 + 0.5) ** 2 == 0.25

    def test_eps_zero_rejected(self):
        with pytest.raises(DomainError):
            certificate(1.5, 0.0)

    @pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("eps", [0.25, 1.0, 1.75])
    def test_residual_small(self, p, eps):
        assert slice_residual(p, eps, certificate(p, eps).w) < 1e-10


class TestDeltaRoutes:
    def test_via_s_star_endpoint(self):
        assert delta(1.5, 2.0) == 1.0

    def test_via_s_star_anchor(self):
        assert delta(1.5, 1.0) == pytest.approx(DELTA_P15_E1, abs=1e-11)

    def test_via_s_star_degenerate_limit(self):
        assert delta(1.5, 1e-4) < 1e-4

    def test_dispatcher(self):
        for p in [1.3, 2.0, 5.0]:
            assert delta(p, 0.0) == 0.0
            assert delta(p, 2.0) == pytest.approx(1.0, abs=1e-12)
        assert delta(4.0, 1.0) == pytest.approx(DELTA_E1_P4, abs=1e-13)
        assert delta(1.5, 1.0) == pytest.approx(DELTA_P15_E1, abs=1e-11)


class TestImplicitTinyEps:
    # the residual at d = 0, about p (p-1) eps^2 / 4, rounds to <= 0 in float64 here
    POINTS = [(2.0, 3e-9), (1.0425836237757702, 1.537179516623108e-08)]

    @pytest.mark.parametrize("p, eps", POINTS)
    def test_root_below_rounding_is_zero(self, p, eps):
        assert implicit_residual(0.0, p, eps) <= 0.0
        assert 0.0 < delta(p, eps) < 1e-15


class TestImplicitCorrection:
    """The Newton step of the implicit equation at a given delta, ``table``'s cross-check column."""

    def test_zero_where_the_residual_is(self):
        assert implicit_correction(1.5, 0.0, 0.0) == 0.0
        assert implicit_correction(1.5, 2.0, 1.0) == 0.0
        assert implicit_correction(2.0, 2.0, 1.0) == 0.0

    def test_infinite_where_the_slope_vanishes(self):
        # the residual is even in u = 1 - d, so its slope is 0 at d = 1
        assert implicit_correction(1.5, 1.0, 1.0) == math.inf

    @pytest.mark.parametrize("p, eps, d", [
        (2.5, 1.0, 0.1), (1.5, 2.5, 0.1), (1.5, 1.0, -0.1), (1.5, 1.0, 1.5), (1.5, 1.0, math.nan),
    ])
    def test_bad_input_rejected(self, p, eps, d):
        with pytest.raises(DomainError):
            implicit_correction(p, eps, d)

    def test_rounding_level_at_the_contract_points(self):
        # delta is within 1e-12 relative of the root there; measured at most 3.9e-16
        worst = max((implicit_correction(p, eps, delta(p, eps)), p, eps) for p, eps in contract_points())
        assert worst[0] <= 1e-15, worst

    def test_reads_a_moved_delta(self):
        # delta moved by 1e-6 relative, each way that stays in [0, 1]: to first
        # order the step is the move; measured 0.51 to 1.09 times it
        ratios = []
        for p, eps in contract_points():
            d = delta(p, eps)
            if 1e-6 < d < 1.0:
                ratios += [implicit_correction(p, eps, moved) / abs(moved - d)
                           for moved in (d * (1.0 - 1e-6), d * (1.0 + 1e-6)) if moved <= 1.0]
        assert len(ratios) > 200 and 0.3 <= min(ratios) and max(ratios) <= 1.2, (min(ratios), max(ratios))


class TestEvaluationCount:
    """Counted, not timed: the mean residual evaluations per call over the
    accuracy contract's points, the solve and every check before it included."""

    @pytest.mark.parametrize("route, residual", [("delta", "_log_mean_power")])
    def test_mean_evaluations_per_call(self, monkeypatch, route, residual):
        calls = [0]
        inner = getattr(moduli, residual)

        def counted(*args):
            calls[0] += 1
            return inner(*args)

        monkeypatch.setattr(moduli, residual, counted)
        points = contract_points()
        for p, eps in points:
            getattr(moduli, route)(p, eps)
        assert calls[0] / len(points) <= 12.0, calls[0] / len(points)

    @pytest.mark.parametrize("p, eps", [(1.471, 1.8868), (1.9, 1.99)])
    def test_the_end_at_zero_is_crossed(self, monkeypatch, p, eps):
        # above eps = 2^(1/p) false position creeps up on the root from below, and
        # only the pace rule's bisections move the bracket end at L = 0; the
        # secant step from the converging end that follows each one crosses the
        # root.  27 evaluations at both points without it, 14 and 11 with it
        calls = [0]
        inner = moduli._log_mean_power

        def counted(*args):
            calls[0] += 1
            return inner(*args)

        monkeypatch.setattr(moduli, "_log_mean_power", counted)
        assert delta(p, eps) == pytest.approx(float(delta_mpmath(p, eps)), rel=1e-14)
        assert calls[0] <= 14, calls[0]


class TestInvariants:
    @pytest.mark.parametrize("p", [1.1, 1.3, 1.5, 1.7, 1.9])
    def test_route_agreement(self, p):
        for eps in np.linspace(0.1, 1.9, 19):
            a = delta(p, float(eps))
            b = delta_implicit(p, float(eps))
            assert abs(a - b) < 1e-8

    def test_p2_seam(self):
        for eps in np.linspace(0.0, 2.0, 41):
            a = delta(2.0, float(eps))
            b = delta_implicit(2.0, float(eps))
            assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("p", [1.2, 1.7, 2.0, 3.5])
    def test_monotone_in_eps(self, p):
        grid = np.linspace(0.0, 2.0, 200)
        vals = [delta(p, float(e)) for e in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [1.2, 1.9, 2.0, 6.0])
    def test_range(self, p):
        for eps in np.linspace(0.0, 2.0, 50):
            d = delta(p, float(eps))
            assert 0.0 <= d <= 1.0

    @given(
        st.floats(min_value=1.05, max_value=2.0),
        st.floats(min_value=0.05, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_substitution_identity(self, p, eps):
        # t = s*^(1/p) = (1 - delta)/eps + 1/2 turns the s* equation into the
        # implicit delta equation
        t = (1.0 - delta(p, eps)) / eps + 0.5
        resid = (eps * t) ** p + (eps * abs(t - 1.0)) ** p - 2.0
        assert abs(resid) < 1e-9


def _relative_error(value, ref):
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(value) - ref) / ref)


class TestAccuracyContract:
    """delta for 1.01 <= p < 2 is within 1e-12 relative of a 50-digit mpmath
    root, and for 1 < p < 1.01 within 2e-15 / (p - 1)."""

    @pytest.mark.parametrize("p, eps, expected", DELTA_SMALL_EPS_LT2)
    def test_small_eps_anchors(self, p, eps, expected):
        assert abs(delta(p, eps) - expected) <= 1e-12 * expected

    def test_seeded_sample_against_mpmath(self):
        points = contract_points()
        worst = max((_relative_error(delta(p, eps), delta_mpmath(p, eps)), p, eps) for p, eps in points)
        assert worst[0] <= 1e-12, worst

    @pytest.mark.parametrize("p", [1.0001, 1.001, 1.005, 1.008])
    def test_near_one_small_eps(self, p):
        # delta ~ (p - 1) eps^2 / 8 there, and the error grows like 1/(p - 1):
        # about 2.5e-16 / (p - 1) measured, 3.3e-13 at p = 1.001
        eps_values = [10.0 ** (-10 + k / 4) for k in range(9)] + [1e-6, 1e-3, 0.1, 1.0, 1.9]
        worst = max((_relative_error(delta(p, eps), delta_mpmath(p, eps)), eps) for eps in eps_values)
        assert worst[0] <= 2e-15 / (p - 1.0), worst
