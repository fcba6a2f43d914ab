import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import central_diff
from ucx.errors import DomainError, NonFiniteError
from ucx.numerics import bisect_root


class TestBisect:
    def test_linear_root(self):
        # the root is exact in float64, so the solve must land on it
        assert bisect_root(lambda t: t - 1.0, 0.0, 2.0) == 1.0

    def test_sqrt2_by_squaring(self):
        r = bisect_root(lambda t: t * t - 2.0, 1.0, 2.0)
        assert abs(r - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))

    def test_odd_cubic(self):
        # t**3 underflows to 0 within about 1e-108 of the root
        assert abs(bisect_root(lambda t: t**3, -1.0, 1.0)) <= 1e-100

    def test_no_sign_change(self):
        with pytest.raises(DomainError):
            bisect_root(lambda t: t * t + 1.0, -1.0, 1.0)

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            bisect_root(lambda t: float("nan"), 0.0, 1.0)

    def test_endpoint_root_returned_exactly(self):
        assert bisect_root(lambda t: t, 0.0, 1.0) == 0.0

    def test_bad_bracket_rejected(self):
        for lo, hi in [(1.0, 0.0), (1.0, 1.0), (math.nan, 1.0)]:
            with pytest.raises(DomainError):
                bisect_root(lambda t: t - 0.5, lo, hi)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_recovers_shifted_root(self, r):
        # the sign of t - r is exact, so the bracket can only close on r itself
        assert bisect_root(lambda t: t - r, -6.0, 6.0) == r


def plain_bisection_count(fn, lo, hi):
    """Evaluations plain bisection makes on [lo, hi] until no float64 midpoint is left.

    The reference for the count bound.
    """
    count = 2
    lo_neg = fn(lo) < 0.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        count += 1
        fm = fn(mid)
        if fm == 0.0:
            break
        if (fm < 0.0) == lo_neg:
            lo = mid
        else:
            hi = mid
    return count


HARD_ROOTS = {
    "step": lambda t: -1.0 if t < 1.0 / 3.0 else 1.0,
    "pow21": lambda t: (t - 0.3) ** 21,
    "atan": lambda t: math.atan(1e12 * (t - 0.7)),
    "exp50": lambda t: math.exp(50.0 * t) - 2.0,
}


class TestEvaluationCount:
    """Counted, not timed: false position never costs more than twice plain bisection."""

    @pytest.mark.parametrize("name", sorted(HARD_ROOTS))
    def test_at_most_twice_plain_bisection(self, name):
        fn = HARD_ROOTS[name]
        calls = []

        def counted(t):
            calls.append((t, fn(t)))
            return calls[-1][1]

        root = bisect_root(counted, 0.0, 1.0)
        n = plain_bisection_count(fn, 0.0, 1.0)
        assert len(calls) <= 2 * n, (len(calls), n)
        # the root lies in a final bracket of evaluated points that still
        # changes sign and has no float64 midpoint
        if fn(root) != 0.0:
            a = max(t for t, v in calls if t <= root and v < 0.0)
            b = min(t for t, v in calls if t >= root and v > 0.0)
            assert not (a < 0.5 * (a + b) < b)

    def test_smooth_root_superlinear(self):
        calls = []
        bisect_root(lambda t: calls.append(t) or math.cos(t) - t, 0.0, 1.0)
        assert len(calls) <= 10  # plain bisection takes 55


class TestCentralDiff:
    def test_quadratic(self):
        assert central_diff(lambda t: t * t, 3.0, 1e-5) == pytest.approx(6.0, abs=1e-9)

    def test_even_function_at_zero(self):
        assert central_diff(abs, 0.0, 1e-3) == 0.0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            central_diff(lambda t: t, 0.0, 0.0)

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_cubic_matches_analytic(self, a, b, c, s):
        # For a cubic the central quotient is exactly f'(s) + a h^2, so only
        # float64 rounding separates the two.  Each evaluation of fn is off by
        # at most 7 units of roundoff u of its term sizes (4 for the arithmetic,
        # 3 for rounding t = s +- h), and the quotient divides that by 2h.  The
        # second term covers rounding the quotient and the expected value, the
        # third underflow (at most one smallest subnormal per operation).
        h, u = 1e-5, 2.0**-53
        fn = lambda t: a * t**3 + b * t**2 + c * t
        size = lambda t: abs(a * t**3) + abs(b * t**2) + abs(c * t)
        expected = 3.0 * a * s**2 + 2.0 * b * s + c + a * h**2
        bound = (
            8.0 * u * (size(s + h) + size(s - h)) / (2.0 * h)
            + 8.0 * u * (3.0 * abs(a) * s**2 + 2.0 * abs(b * s) + abs(c))
            + 16.0 * math.ulp(0.0) / h
        )
        assert abs(central_diff(fn, s, h) - expected) <= bound
