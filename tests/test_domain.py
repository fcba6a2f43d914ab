import numpy as np
import pytest

from anchors import FPRIME_4_P15, FPRIME_4_P2, GPRIME_4_P15, GPRIME_4_P2
from helpers import NotOnBoundaryError, boundary_value, central_diff, slice_point
from ucx.domain import (
    BoundaryFace,
    LambdaPoint,
    boundary_profile,
    contains,
    face_value,
    profile_arrays,
    section_parameter,
    section_profile,
    slice_lower_bound,
)
from ucx.errors import (
    DomainError,
    NegativeCoordinateError,
    OutOfRangeError,
)

P_GRID = [1.1, 1.5, 2.0, 3.0, 4.0]


class TestContains:
    def test_antipodal_face(self):
        assert contains(LambdaPoint(1.0, 1.0, 2.0**3), 3.0) is BoundaryFace.FACE3

    def test_interior(self):
        assert contains(LambdaPoint(1.0, 1.0, 1.0), 2.0) is BoundaryFace.INTERIOR

    def test_outside(self):
        assert contains(LambdaPoint(1.0, 1.0, 9.0), 1.0001) is BoundaryFace.OUTSIDE

    def test_apex_is_boundary(self):
        assert contains(LambdaPoint(0.0, 0.0, 0.0), 2.0).on_boundary

    def test_negative_coordinate(self):
        with pytest.raises(NegativeCoordinateError):
            contains(LambdaPoint(-1.0, 1.0, 1.0), 2.0)

    def test_exponent_validation(self):
        with pytest.raises(DomainError):
            contains(LambdaPoint(1.0, 1.0, 1.0), 1.0)

    def test_tolerance_rescues_near_boundary(self):
        x = LambdaPoint(1.0, 1.0, (2.0 + 1e-12) ** 2)
        assert contains(x, 2.0) is BoundaryFace.FACE3


class TestBoundaryValue:
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_antipodal_point_vanishes(self, p):
        assert boundary_value(LambdaPoint(1.0, 1.0, 2.0**p), p) == pytest.approx(0.0, abs=1e-12)

    def test_slice_point_value_is_payoff(self):
        # (s, g(s), 1) at s=4, p=2 carries the boundary payoff f(4) = 2.25
        assert boundary_value(LambdaPoint(4.0, 1.0, 1.0), 2.0) == pytest.approx(2.25, abs=1e-12)

    def test_third_case_by_substitution(self):
        assert boundary_value(LambdaPoint(1.0, 2.0**2, 1.0), 2.0) == pytest.approx(2.25, abs=1e-12)

    def test_interior_rejected(self):
        with pytest.raises(NotOnBoundaryError):
            boundary_value(LambdaPoint(1.0, 1.0, 1.0), 2.0)

    def test_outside_rejected(self):
        with pytest.raises(NotOnBoundaryError):
            boundary_value(LambdaPoint(1.0, 1.0, 100.0), 2.0)

    def test_apex(self):
        assert boundary_value(LambdaPoint(0.0, 0.0, 0.0), 2.0) == 0.0

    def test_diagonal_edge_agrees_across_faces(self):
        # (a, a, 0) satisfies two face equalities; both formulas give a
        assert boundary_value(LambdaPoint(0.7, 0.7, 0.0), 3.0) == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_symmetry_in_first_two_coordinates(self, p):
        for s in [slice_lower_bound(p), 0.9, 1.0, 2.7, 17.0]:
            x = slice_point(s, p)
            y = slice_point(s, p, swapped=True)
            assert boundary_value(x, p) == pytest.approx(boundary_value(y, p), abs=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_degree_one_homogeneity(self, p):
        for s in [0.8, 1.0, 3.0, 40.0]:
            if s < slice_lower_bound(p):
                continue
            x = slice_point(s, p)
            base = boundary_value(x, p)
            for lam in [0.25, 2.0, 117.0]:
                y = LambdaPoint(lam * x.x1, lam * x.x2, lam * x.x3)
                assert boundary_value(y, p) == pytest.approx(
                    lam * base, rel=1e-12, abs=1e-12
                )

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0])
    @pytest.mark.parametrize("theta", [0.25, 0.5])
    def test_face_formulas_agree_on_edges(self, p, theta):
        # each edge meets two faces; given by p-th roots, scaled off the unit
        edges = [
            ((0.7, 0.0, 0.7), (BoundaryFace.FACE3, BoundaryFace.FACE1)),
            ((0.0, 0.7, 0.7), (BoundaryFace.FACE3, BoundaryFace.FACE2)),
            ((0.7, 0.7, 0.0), (BoundaryFace.FACE1, BoundaryFace.FACE2)),
        ]
        for u, faces in edges:
            first, second = (face_value(face, u, p, theta) for face in faces)
            assert first == pytest.approx(second, rel=1e-14)
            x = LambdaPoint(*(r**p for r in u))
            assert boundary_value(x, p, theta) == pytest.approx(first, rel=1e-14)

    def test_near_edge_point_within_face_tolerance(self):
        # roots (1, 5e-10, 1) sit within FACE_TOL of the edge (1, 0, 1): FACE3
        # and FACE1 both match, and their formulas differ by O(1e-9) there
        x = LambdaPoint(1.0, 5e-10**3, 1.0)
        assert contains(x, 3.0) is BoundaryFace.FACE3
        assert boundary_value(x, 3.0) == pytest.approx(0.125 * (1.0 - 5e-10) ** 3, rel=1e-15)

    def test_general_theta_supported(self):
        # first face case with theta != 1/2: |t*u1 - (1-t)*u2|^p
        v = boundary_value(LambdaPoint(1.0, 1.0, 2.0**2), 2.0, theta=0.25)
        assert v == pytest.approx((0.25 - 0.75) ** 2, abs=1e-12)


class TestBoundaryProfile:
    def test_left_endpoint(self):
        p = 1.5
        prof = boundary_profile(slice_lower_bound(p), p)
        assert prof.g == pytest.approx(2.0**-p, abs=1e-15)
        assert prof.f == pytest.approx(0.0, abs=1e-15)
        assert prof.f_prime == pytest.approx(0.0, abs=1e-15)

    def test_s_equal_one(self):
        prof = boundary_profile(1.0, 1.5)
        assert prof.g == 0.0
        assert prof.g_prime == 0.0  # exact: 0^(p-1) with p > 1
        assert prof.f == pytest.approx(0.5**1.5, abs=1e-15)
        assert prof.f_prime == pytest.approx(0.5**0.5, abs=1e-15)

    def test_s_four_p_two(self):
        prof = boundary_profile(4.0, 2.0)
        assert prof.g == pytest.approx(1.0, abs=1e-15)
        assert prof.f == pytest.approx(2.25, abs=1e-15)
        # frozen from the central-difference oracle (see anchors.py)
        assert prof.g_prime == pytest.approx(GPRIME_4_P2, abs=1e-12)
        assert prof.f_prime == pytest.approx(FPRIME_4_P2, abs=1e-12)

    def test_s_four_p_three_halves(self):
        prof = boundary_profile(4.0, 1.5)
        assert prof.g_prime == pytest.approx(GPRIME_4_P15, abs=1e-13)
        assert prof.f_prime == pytest.approx(FPRIME_4_P15, abs=1e-13)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            boundary_profile(0.2, 1.5)

    def test_tiny_rounding_below_endpoint_clamped(self):
        smin = slice_lower_bound(1.5)
        prof = boundary_profile(smin * (1.0 - 1e-14), 1.5)
        assert prof.s == smin

    @pytest.mark.parametrize("p", P_GRID)
    def test_derivatives_match_central_differences(self, p):
        grid = np.linspace(slice_lower_bound(p) + 0.01, 50.0, 60)
        for s in grid:
            if p < 2.0 and abs(s - 1.0) < 1e-3:
                continue  # g' kinks at s = 1 below p = 2
            prof = boundary_profile(float(s), p)
            fd_f = central_diff(lambda t: boundary_profile(t, p).f, float(s), 1e-6)
            fd_g = central_diff(lambda t: boundary_profile(t, p).g, float(s), 1e-6)
            assert abs(prof.f_prime - fd_f) <= 1e-6 * max(1.0, abs(fd_f))
            assert abs(prof.g_prime - fd_g) <= 1e-6 * max(1.0, abs(fd_g))

    @pytest.mark.parametrize("p", P_GRID)
    def test_denominator_positive_past_endpoint(self, p):
        smin = slice_lower_bound(p)
        # vanishes exactly at the endpoint ...
        assert abs(1.0 + boundary_profile(smin, p).g_prime) <= 1e-9
        # ... and is strictly positive on any scanned grid beyond it
        s = np.linspace(smin, 50.0, 5001)[1:]
        _, _, _, gp = profile_arrays(s, p)
        assert (1.0 + gp).min() > 0.0


class TestSlicePoint:
    def test_left_anchor(self):
        p = 1.5
        pt = slice_point(slice_lower_bound(p), p)
        assert pt.x1 == pytest.approx(2.0**-p, abs=1e-15)
        assert pt.x2 == pytest.approx(2.0**-p, abs=1e-15)
        assert pt.x3 == 1.0

    def test_s_one_on_boundary(self):
        assert contains(slice_point(1.0, 2.0), 2.0).on_boundary

    def test_s_four_face(self):
        assert contains(slice_point(4.0, 2.0), 2.0) is BoundaryFace.FACE1
        assert contains(slice_point(4.0, 2.0, swapped=True), 2.0) is BoundaryFace.FACE2

    @pytest.mark.parametrize("p", P_GRID)
    def test_always_on_boundary(self, p):
        smin = slice_lower_bound(p)
        for s in np.concatenate([np.linspace(smin, 2.0, 23), np.geomspace(2.0, 1e5, 17)]):
            assert contains(slice_point(float(s), p), p).on_boundary
            assert contains(slice_point(float(s), p, swapped=True), p).on_boundary


class TestSectionProfile:
    @pytest.mark.parametrize("p", P_GRID)
    def test_anchor_points(self, p):
        x, f, fp, gp = section_profile(np.array([0.0, 0.5, 1.0]), p)
        anchors = [[2.0**-p, 2.0**-p, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        assert np.allclose(x, anchors, rtol=0, atol=1e-15)
        assert f[0] == 0.0 and f[1] == pytest.approx(0.5**p, rel=1e-15) and f[2] == 1.0
        assert fp[1] == pytest.approx(0.5 ** (p - 1.0), rel=1e-15) and fp[2] == 1.0
        assert 1.0 + gp[0] == 0.0 and gp[2] == 1.0

    @pytest.mark.parametrize("p", P_GRID)
    def test_scaled_slice_with_same_data(self, p):
        # every section point below tau = 1 is the slice point (s, g(s), 1) at
        # s = x1/x3 scaled by x3; f scales with it, f' and g' do not
        tau = np.linspace(0.0, 1.0, 41)[:-1]
        x, f, fp, gp = section_profile(tau, p)
        s = x[:, 0] / x[:, 2]
        f_s, g_s, fp_s, gp_s = profile_arrays(s, p)
        assert np.allclose(x[:, 1] / x[:, 2], g_s, rtol=1e-12, atol=1e-15)
        assert np.allclose(f / x[:, 2], f_s, rtol=1e-12, atol=1e-15)
        assert np.allclose(fp, fp_s, rtol=1e-12, atol=1e-15)
        assert np.allclose(gp, gp_s, rtol=1e-12, atol=1e-15)
        for si, ti in zip(s, tau):
            assert section_parameter(float(si), p) == pytest.approx(ti, abs=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_on_boundary_with_payoff(self, p):
        x, f, _, _ = section_profile(np.linspace(0.0, 1.0, 33), p)
        for xi, fi in zip(x, f):
            assert boundary_value(LambdaPoint(*xi), p) == pytest.approx(fi, abs=1e-12)

    def test_far_slice_stays_on_section(self):
        # s = 1e30 is far beyond any x3 = 1 grid; on the section it sits next to tau = 1
        tau = section_parameter(1e30, 1.5)
        assert 1.0 - tau == pytest.approx(0.5e-20, rel=1e-12)
        x, _, _, _ = section_profile(tau, 1.5)
        assert x[0] == 1.0 and x[2] <= 1e-29
