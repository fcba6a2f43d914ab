"""Numerical helpers that only the tests use."""

from ucx.domain import FACE_TOL, LambdaPoint, check_theta, contains, face_value
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
