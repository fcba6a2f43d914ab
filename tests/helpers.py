"""Numerical helpers that only the tests use."""

import mpmath

from ucx.domain import FACE_TOL, LambdaPoint, boundary_profile, check_theta, contains, face_value
from ucx.errors import UcxError


class NotOnBoundaryError(UcxError):
    """Boundary data requested at a point not on the cone boundary."""


def central_diff(fn, s: float, h: float) -> float:
    """Symmetric difference quotient (fn(s+h) - fn(s-h)) / 2h."""
    if not (h > 0.0):
        raise ValueError(f"step must be positive, got {h}")
    return (float(fn(s + h)) - float(fn(s - h))) / (2.0 * h)


def boundary_value(x: LambdaPoint, p: float, theta: float = 0.5, tol: float = FACE_TOL) -> float:
    """Collinear-pair payoff at a boundary point, by the face ``contains`` reports.

    On an edge several face formulas apply; they agree there (the data is
    continuous across edges), and the first face in the order of
    ``contains`` is used.
    """
    theta = check_theta(theta)
    face = contains(x, p, tol)
    if not face.on_boundary:
        raise NotOnBoundaryError(f"{x} is {face.value}, not on the cone boundary")
    return face_value(face, [c ** (1.0 / p) for c in (x.x1, x.x2, x.x3)], p, theta)


def slice_point(s: float, p: float, swapped: bool = False) -> LambdaPoint:
    """The boundary point (s, g(s), 1), or its x1<->x2 mirror when swapped."""
    prof = boundary_profile(s, p)
    if swapped:
        return LambdaPoint(prof.g, prof.s, 1.0)
    return LambdaPoint(prof.s, prof.g, 1.0)


def delta_mpmath(p, eps):
    """delta_p(eps) at 50 digits: bisection of (1-d+e/2)^p + |1-d-e/2|^p = 2 in d."""
    with mpmath.workdps(50):
        p, a = mpmath.mpf(p), mpmath.mpf(eps) / 2
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(140):  # width 2^-140, far below any root's last digit
            mid = (lo + hi) / 2
            if (1 - mid + a) ** p + abs(1 - mid - a) ** p > 2:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2
