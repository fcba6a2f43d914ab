import numpy as np
import pytest

from anchors import PAYOFF_P15_E1
from helpers import boundary_value, face_root_grid, mirrored
from ucx.bellman import brute_force_bellman
from ucx.certificates import certificate
from ucx.domain import LambdaPoint, contains
from ucx.envelope import ObstacleGrid, concavify, sample_boundary
from ucx.errors import DomainError, InfeasibleError


@pytest.fixture(scope="module")
def grid_p4():
    return sample_boundary(4.0, 24)


@pytest.fixture(scope="module")
def grid_p2():
    return sample_boundary(2.0, 24)


@pytest.fixture(scope="module")
def grid_p15():
    return sample_boundary(1.5, 40)


def slice_values(grid, x3s):
    return [concavify(grid, LambdaPoint(1.0, 1.0, float(x3))).result for x3 in x3s]


class TestSampleBoundary:
    def test_minimal_grid(self):
        # two samples on each of faces 3 and 1, which share tau = 1/2
        assert len(sample_boundary(2.0, 2)) == 3

    def test_all_points_on_boundary(self, grid_p4):
        for pt in grid_p4.points:
            assert contains(LambdaPoint(*pt), 4.0).on_boundary

    def test_points_on_compact_section(self, grid_p4):
        np.testing.assert_allclose((grid_p4.points ** 0.25).max(axis=1), 1.0, rtol=1e-15)

    def test_values_match_boundary_data(self, grid_p4):
        for pt, value in zip(grid_p4.points, grid_p4.values):
            expected = boundary_value(LambdaPoint(*pt), 4.0)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_antipodal_anchor_present_with_zero_value(self, grid_p4):
        # the ray of (1, 1, 2^p) meets the section at (2^-p, 2^-p, 1)
        target = np.array([1.0, 1.0, 2.0**4]) / 2.0**4
        dists = np.abs(grid_p4.points - target).max(axis=1)
        i = int(np.argmin(dists))
        assert dists[i] < 1e-15
        assert grid_p4.values[i] == pytest.approx(0.0, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            sample_boundary(2.0, 1)


class TestConcavify:
    def test_apex_value_zero(self, grid_p2):
        assert concavify(grid_p2, LambdaPoint(0.0, 0.0, 0.0)).result == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_ray_sample_reproduced(self, grid_p2):
        # the obstacle is concave along the edge ray, so the envelope touches it
        q = concavify(grid_p2, LambdaPoint(1.0, 1.0, 0.0))
        assert q.result == pytest.approx(1.0, abs=1e-9)

    def test_ge2_query_point_exact(self, grid_p4):
        # extremal decomposition (f = g mass) + (f = -g mass) lies in the grid
        q = concavify(grid_p4, LambdaPoint(1.0, 1.0, 1.0))
        assert q.result == pytest.approx(15.0 / 16.0, abs=1e-9)

    def test_active_support_caratheodory(self, grid_p4):
        for x3 in [1.0, 2.5, 7.0]:
            q = concavify(grid_p4, LambdaPoint(1.0, 1.0, x3))
            assert 1 <= len(q.active_weights) <= 2
            # each sample enters averaged with its x1 <-> x2 mirror
            recon = sum(w * grid_p4.points[i] for i, w in q.active_weights)
            recon = [(recon[0] + recon[1]) / 2, (recon[0] + recon[1]) / 2, recon[2]]
            np.testing.assert_allclose(recon, [1.0, 1.0, x3], rtol=1e-14)
            value = sum(w * grid_p4.values[i] for i, w in q.active_weights)
            assert value == pytest.approx(q.result, rel=1e-14)

    def test_lt2_chord_midpoint(self, grid_p15):
        q = concavify(grid_p15, LambdaPoint(1.0, 1.0, 1.0))
        assert PAYOFF_P15_E1 - 5e-3 <= q.result <= PAYOFF_P15_E1 + 1e-9

    def test_lt2_slice_midpoint_at_default_sampling(self):
        # eps^p = 2^p / 2: row 2 of a 5-point slice at the CLI's 24 samples per face
        p = 1.5
        eps = 2.0 * 0.5 ** (1.0 / p)
        x = LambdaPoint(1.0, 1.0, eps**p)
        cert = certificate(p, eps).value(x)
        env = concavify(sample_boundary(p, 24), x).result
        assert cert - 5e-3 <= env <= cert + 1e-9

    def test_outside_hull_infeasible(self):
        # without its tau = 0 sample a grid misses the antipodal ray, so the
        # end of the slice is in the cone but outside the sampled cone
        full = sample_boundary(2.0, 8)
        np.testing.assert_allclose(full.points[0], [0.25, 0.25, 1.0])
        grid = ObstacleGrid(full.points[1:], full.values[1:])
        assert concavify(grid, LambdaPoint(1.0, 1.0, 3.0)).result >= 0.25 - 1e-12
        with pytest.raises(InfeasibleError, match="sampled cone"):
            concavify(grid, LambdaPoint(1.0, 1.0, 3.99))

    def test_off_slice_query_rejected(self, grid_p2):
        for x in [LambdaPoint(1000.0, 1.0, 1.0), LambdaPoint(0.5, 1.0, 0.8)]:
            with pytest.raises(DomainError):
                concavify(grid_p2, x)

    def test_majorizes_obstacle_at_samples(self, grid_p2):
        # a sample averaged with its mirror lies on the slice, with the same
        # midpoint payoff
        idx = np.linspace(0, len(grid_p2) - 1, 29, dtype=int)
        for i in idx:
            a, b, c = grid_p2.points[i]
            q = concavify(grid_p2, LambdaPoint((a + b) / 2, (a + b) / 2, c))
            assert q.result >= grid_p2.values[i] - 1e-12

    def test_two_point_hull_interpolation(self):
        # samples (1, 1, 0) with payoff 1 and (1/4, 1/4, 1) with payoff 0 at
        # p = 2: the hand solution at (1, 1, 2) is half of each ray
        grid = ObstacleGrid(np.array([[1.0, 1.0, 0.0], [0.25, 0.25, 1.0]]), np.array([1.0, 0.0]))
        q = concavify(grid, LambdaPoint(1.0, 1.0, 2.0))
        assert q.result == 0.5
        assert q.active_weights == ((0, 0.5), (1, 2.0))

    def test_deterministic(self, grid_p15):
        x = LambdaPoint(1.0, 1.0, 1.7)
        assert concavify(grid_p15, x) == concavify(grid_p15, x)

    def test_concavity_between_queries(self, grid_p4):
        u, v = LambdaPoint(1.0, 1.0, 0.5), LambdaPoint(1.0, 1.0, 3.0)
        qu, qv = concavify(grid_p4, u).result, concavify(grid_p4, v).result
        for lam in [0.25, 0.5, 0.75]:
            mid = LambdaPoint(1.0, 1.0, lam * 0.5 + (1 - lam) * 3.0)
            assert concavify(grid_p4, mid).result >= lam * qu + (1 - lam) * qv - 1e-9

    def test_homogeneity(self, grid_p4, grid_p15):
        cases = [
            (grid_p4, LambdaPoint(1.0, 1.0, 1.0)),
            (grid_p15, LambdaPoint(1.0, 1.0, 1.0)),
            (grid_p15, LambdaPoint(0.5, 0.5, 0.8)),
            (grid_p15, LambdaPoint(2.0, 2.0, 1.5)),
        ]
        for grid, x in cases:
            base = concavify(grid, x).result
            for lam in [0.5, 2.0]:
                y = LambdaPoint(lam * x.x1, lam * x.x2, lam * x.x3)
                assert concavify(grid, y).result == pytest.approx(lam * base, rel=1e-12)

    def test_refinement_never_decreases(self, grid_p2):
        coarse = sample_boundary(2.0, 8)
        refined = ObstacleGrid(
            np.vstack([coarse.points, grid_p2.points]),
            np.concatenate([coarse.values, grid_p2.values]),
        )
        for x3 in [0.5, 1.5, 3.0]:
            x = LambdaPoint(1.0, 1.0, x3)
            assert concavify(refined, x).result >= concavify(coarse, x).result - 1e-9


class TestEnvelopeSlice:
    """Queries along the segment (1, 1, x3), x3 in [0, 2^p]."""

    def test_p2_linear_everywhere(self, grid_p2):
        x3s = np.linspace(0.0, 4.0, 17)
        for x3, val in zip(x3s, slice_values(grid_p2, x3s)):
            assert val == pytest.approx(1.0 - x3 / 4.0, abs=1e-9)

    def test_nonincreasing(self, grid_p4):
        vals = slice_values(grid_p4, np.linspace(0.0, 16.0, 15))
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_boundary_pin_at_right_end(self, grid_p4, grid_p15):
        assert slice_values(grid_p4, [2.0**4])[0] == pytest.approx(0.0, abs=1e-9)
        # the CLI's last row at p = 1.5 lands 2 units of rounding past the
        # ray of the sample (0.5**p, 0.5**p, 1), and is still answered
        x3 = 4 * 2.0**1.5 / 4
        assert x3 / 2 > 1 / (2 * 0.5**1.5)
        assert slice_values(grid_p15, [x3])[0] == 0.0

    def test_range_validation(self, grid_p2):
        # past x3 = 2^p the segment leaves the cone, so no conic combination hits it
        with pytest.raises(InfeasibleError):
            slice_values(grid_p2, [5.0])


class TestHighsOracle:
    """The slice hull against the full 3-row conic LP over the same samples and their mirrors."""

    def test_slice_matches_conic_lp(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for p in [1.02, 1.25, 1.5, 1.75, 2.0, 3.0, 4.0, 8.0]:
            for n_per_face in [24, 60]:
                grid = sample_boundary(p, n_per_face)
                points = np.vstack([grid.points, grid.points[:, [1, 0, 2]]])
                values = np.concatenate([grid.values, grid.values])
                for x3 in np.linspace(0.0, 2.0**p, 25):
                    x = LambdaPoint(1.0, 1.0, float(x3))
                    ref = linprog(-values, A_eq=points.T, b_eq=x.as_array(),
                                  bounds=(0, None), method="highs")
                    assert ref.status == 0, (p, n_per_face, x3, ref.message)
                    got = concavify(grid, x).result
                    assert got == pytest.approx(-ref.fun, abs=1e-9), (p, n_per_face, x3)


class TestFaceTwoMirror:
    """Face 2 and the other half of face 3 mirror the samples: adding them changes no slice query."""

    @pytest.mark.parametrize("p", [1.02, 1.25, 1.5, 2.0, 4.0, 8.0, 60.0])
    def test_three_face_grid_gives_the_same_hull(self, p):
        for n_per_face in [2, 7, 24, 61]:
            grid = sample_boundary(p, n_per_face)
            three_face = mirrored(grid)
            for i in range(26):
                x = LambdaPoint(1.0, 1.0, i * 2.0**p / 25)
                q, q3 = concavify(grid, x), concavify(three_face, x)
                assert (q.result, q.active_weights) == (q3.result, q3.active_weights)


class TestAboveFaceRootGrid:
    """The section grid holds every face-root sample up to its mirror, and more on face 3."""

    @pytest.mark.parametrize("p", [1.02, 1.25, 1.5, 2.0, 4.0, 8.0, 60.0])
    def test_at_or_above_face_root_grid(self, p):
        for n_per_face in [2, 3, 7, 24, 25, 60, 61]:
            grid, old = sample_boundary(p, n_per_face), face_root_grid(p, n_per_face)
            assert len(grid) == 2 * n_per_face - 1 and len(old) == 3 * n_per_face + 1
            for i in range(26):
                x = LambdaPoint(1.0, 1.0, i * 2.0**p / 25)
                new_v, old_v = concavify(grid, x).result, concavify(old, x).result
                assert new_v >= old_v - 1e-14 * abs(old_v), (n_per_face, i, new_v, old_v)


class TestSandwich:
    def test_three_routes_agree_at_query_point(self, grid_p4):
        x = LambdaPoint(1.0, 1.0, 1.0)
        cert = certificate(4.0).value(x)
        env = concavify(grid_p4, x).result
        bf = brute_force_bellman(x, 4.0).value
        assert bf - 2e-2 <= env <= cert + 1e-9
        assert bf <= cert + 1e-9
