import math
import random

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
from helpers import delta_mpmath
from ucx.errors import DomainError, WrongRegimeError
from ucx.moduli import (
    delta,
    delta_closed_form,
    delta_implicit,
    delta_via_s_star,
    solve_s_star,
)


class TestClosedForm:
    def test_endpoints_exact(self):
        assert delta_closed_form(3.0, 0.0) == 0.0
        assert delta_closed_form(3.0, 2.0) == 1.0

    def test_p2(self):
        assert delta_closed_form(2.0, 1.0) == pytest.approx(DELTA_E1_P2, abs=1e-14)

    def test_p4(self):
        d = delta_closed_form(4.0, 1.0)
        assert d == pytest.approx(DELTA_E1_P4, abs=1e-14)
        assert (1.0 - d) ** 4 == pytest.approx(15.0 / 16.0, abs=1e-14)

    @pytest.mark.parametrize("p, eps, expected", DELTA_TINY_CORNERS)
    def test_relative_accuracy_when_delta_is_tiny(self, p, eps, expected):
        assert abs(delta_closed_form(p, eps) - expected) <= 1e-15 * expected

    def test_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            delta_closed_form(1.5, 1.0)

    def test_eps_validation(self):
        with pytest.raises(DomainError):
            delta_closed_form(3.0, 2.5)


class TestSStar:
    def test_eps_two_hits_left_endpoint(self):
        for p in [1.2, 1.5, 1.9]:
            sol = solve_s_star(p, 2.0)
            assert sol.s_star == pytest.approx(2.0**-p, abs=1e-9)

    def test_frozen_anchor(self):
        sol = solve_s_star(1.5, 1.0)
        assert sol.s_star == pytest.approx(S_STAR_P15_E1, abs=1e-10)
        assert sol.residual < 1e-10

    def test_p2_hand_checkable(self):
        # at eps = sqrt(2): s + (1 - sqrt(s))^2 = 1 has the root s = 1
        assert solve_s_star(2.0, math.sqrt(2.0)).s_star == pytest.approx(1.0, abs=1e-10)
        # at eps = 2 the root collapses to 2^(-p) = 1/4
        assert solve_s_star(2.0, 2.0).s_star == pytest.approx(0.25, abs=1e-12)

    def test_eps_zero_rejected(self):
        with pytest.raises(DomainError):
            solve_s_star(1.5, 0.0)

    def test_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            solve_s_star(3.0, 1.0)

    @pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("eps", [0.25, 1.0, 1.75])
    def test_residual_small(self, p, eps):
        assert solve_s_star(p, eps).residual < 1e-10


class TestDeltaRoutes:
    def test_via_s_star_endpoint(self):
        assert delta_via_s_star(1.5, 2.0) == 1.0

    def test_via_s_star_anchor(self):
        assert delta_via_s_star(1.5, 1.0) == pytest.approx(DELTA_P15_E1, abs=1e-11)

    def test_via_s_star_degenerate_limit(self):
        assert delta_via_s_star(1.5, 1e-4) < 1e-4

    def test_via_s_star_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            delta_via_s_star(2.0, 1.0)

    def test_implicit_endpoints_exact(self):
        assert delta_implicit(1.5, 2.0) == 1.0
        assert delta_implicit(1.5, 0.0) == 0.0

    def test_implicit_agrees_with_s_star_route(self):
        assert delta_implicit(1.5, 1.0) == pytest.approx(delta_via_s_star(1.5, 1.0), abs=1e-9)

    def test_implicit_p2_matches_closed_form(self):
        assert delta_implicit(2.0, 1.0) == pytest.approx(DELTA_E1_P2, abs=1e-10)

    def test_dispatcher(self):
        for p in [1.3, 2.0, 5.0]:
            assert delta(p, 0.0) == 0.0
            assert delta(p, 2.0) == pytest.approx(1.0, abs=1e-12)
        assert delta(4.0, 1.0) == pytest.approx(DELTA_E1_P4, abs=1e-13)
        assert delta(1.5, 1.0) == pytest.approx(DELTA_P15_E1, abs=1e-11)


class TestInvariants:
    @pytest.mark.parametrize("p", [1.1, 1.3, 1.5, 1.7, 1.9])
    def test_route_agreement(self, p):
        for eps in np.linspace(0.1, 1.9, 19):
            a = delta_via_s_star(p, float(eps))
            b = delta_implicit(p, float(eps))
            assert abs(a - b) < 1e-8

    def test_p2_seam(self):
        for eps in np.linspace(0.0, 2.0, 41):
            a = delta_closed_form(2.0, float(eps))
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
        # t = s*^(1/p) turns the s* equation into the implicit delta equation
        t = solve_s_star(p, eps).s_star ** (1.0 / p)
        resid = (eps * t) ** p + (eps * abs(t - 1.0)) ** p - 2.0
        assert abs(resid) < 1e-9


def _relative_error(value, ref):
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(value) - ref) / ref)


class TestAccuracyContract:
    """delta for 1 < p < 2 is within 1e-12 relative of a 50-digit mpmath root."""

    @pytest.mark.parametrize("p, eps, expected", DELTA_SMALL_EPS_LT2)
    def test_small_eps_anchors(self, p, eps, expected):
        assert abs(delta(p, eps) - expected) <= 1e-12 * expected

    def test_seeded_sample_against_mpmath(self):
        rng = random.Random(20140219)
        points = []
        for _ in range(160):
            p = rng.uniform(1.01, 2.0)
            points.append((p, math.exp(rng.uniform(math.log(1e-8), math.log(2.0)))))
        for p in (1.01, 1.5, 1.99):
            points.append((p, 2.0 - 4e-16))
        for _ in range(20):
            # 1 - delta = eps/2 at eps = 2^(1/p), where the two powers trade places
            p = rng.uniform(1.01, 2.0)
            points += [(p, 2.0 ** (1.0 / p) * (1.0 + k)) for k in (0.0, 1e-12, -1e-9)]
        worst = max((_relative_error(delta(p, eps), delta_mpmath(p, eps)), p, eps) for p, eps in points)
        assert worst[0] <= 1e-12, worst
