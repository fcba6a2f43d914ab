import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import central_diff
from ucx.errors import InfeasibleError, NonFiniteError, NoSignChangeError
from ucx.numerics import Bracket, LpProblem, bisect_root, solve_lp


class TestBisect:
    def test_linear_root(self):
        assert bisect_root(lambda t: t - 1.0, Bracket(0.0, 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt2_by_squaring(self):
        r = bisect_root(lambda t: t * t - 2.0, Bracket(1.0, 2.0))
        assert r * r == pytest.approx(2.0, abs=1e-11)

    def test_odd_cubic(self):
        assert abs(bisect_root(lambda t: t**3, Bracket(-1.0, 1.0))) <= 1e-12

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            bisect_root(lambda t: t * t + 1.0, Bracket(-1.0, 1.0))

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            bisect_root(lambda t: float("nan"), Bracket(0.0, 1.0))

    def test_endpoint_root_returned_exactly(self):
        assert bisect_root(lambda t: t, Bracket(0.0, 1.0)) == 0.0

    def test_tolerance_stability(self):
        fn = lambda t: math.cos(t) - t
        loose = bisect_root(fn, Bracket(0.0, 1.0, tol=1e-8))
        tight = bisect_root(fn, Bracket(0.0, 1.0, tol=1e-12))
        assert abs(loose - tight) < 1e-7

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValueError):
            Bracket(1.0, 0.0)
        with pytest.raises(ValueError):
            Bracket(0.0, 1.0, tol=0.0)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_recovers_shifted_root(self, r):
        got = bisect_root(lambda t: t - r, Bracket(-6.0, 6.0))
        assert got == pytest.approx(r, abs=1e-11)


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


def _simplex_problem(objective, matrix, rhs):
    return LpProblem(np.asarray(objective, float), np.asarray(matrix, float), np.asarray(rhs, float))


class TestSolveLp:
    def test_pick_best_vertex(self):
        w, v = solve_lp(_simplex_problem([0.0, 1.0], [[1.0, 1.0]], [1.0]))
        assert v == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-12)

    def test_constant_objective_on_simplex(self):
        _, v = solve_lp(_simplex_problem([1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], [1.0]))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_two_point_hull_interpolation(self):
        # hull {0, 2} in 1D, query 1, values (0, 4): hand solution w = (1/2, 1/2)
        prob = _simplex_problem([0.0, 4.0], [[0.0, 2.0], [1.0, 1.0]], [1.0, 1.0])
        w, v = solve_lp(prob)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-10)
        assert v == pytest.approx(2.0, abs=1e-10)

    def test_infeasible_query_outside_hull(self):
        prob = _simplex_problem([0.0, 1.0], [[0.0, 2.0], [1.0, 1.0]], [3.0, 1.0])
        with pytest.raises(InfeasibleError):
            solve_lp(prob)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LpProblem(np.zeros(2), np.zeros((3, 2)), np.zeros(3))

    def test_vertex_support_and_feasibility(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            k = int(rng.integers(1, 4))
            a = np.vstack([rng.normal(size=(k, n)), np.ones((1, n))])
            w0 = rng.dirichlet(np.ones(n))
            b = a @ w0  # feasible by construction
            c = rng.normal(size=n)
            w, v = solve_lp(LpProblem(c, a, b))
            np.testing.assert_allclose(a @ w, b, atol=1e-9)
            assert w.min() >= -1e-12
            assert np.count_nonzero(w > 1e-9) <= k + 1
            assert v >= c @ w0 - 1e-9  # at least as good as the known point

    def test_matches_scipy_on_random_problems(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            k = int(rng.integers(1, 4))
            a = np.vstack([rng.normal(size=(k, n)), np.ones((1, n))])
            b = a @ rng.dirichlet(np.ones(n))
            c = rng.normal(size=n)
            _, v = solve_lp(LpProblem(c, a, b))
            ref = linprog(-c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
            assert ref.status == 0
            assert v == pytest.approx(-ref.fun, abs=1e-7)

    def test_deterministic(self):
        prob = _simplex_problem(
            [1.0, 2.0, 3.0, 2.0], [[1.0, 0.0, 2.0, 1.0], [1.0, 1.0, 1.0, 1.0]], [1.0, 1.0]
        )
        first = solve_lp(prob)
        second = solve_lp(prob)
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1] == second[1]
