"""Geometry of the moment cone and its boundary data.

A point x = (x1, x2, x3) collects the averaged p-th moments
(|f|^p, |g|^p, |f-g|^p) of a function pair.  The reachable set is the
convex cone cut out by the three p-th-root triangle inequalities; on its
boundary the pair is forced to be collinear, which pins the payoff down
to explicit formulas.  The theta=1/2 boundary slice at x3 = 1 is carried
by the one-parameter profile (s, g(s), 1) with boundary payoff f(s); on the
compact section of the cone (largest p-th root 1) the whole slice, s -> oo
included, is parametrized by its payoff root tau in [0, 1].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NegativeCoordinateError, OutOfRangeError

#: relative tolerance for boundary-face classification
FACE_TOL = 1e-9


def check_exponent(p: float) -> float:
    """Validate p > 1 (the working range of the cone geometry)."""
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"exponent must satisfy p > 1, got {p!r}")
    return float(p)


def check_theta(theta: float) -> float:
    if not (math.isfinite(theta) and 0.0 <= theta <= 1.0):
        raise DomainError(f"theta must lie in [0, 1], got {theta!r}")
    return float(theta)


def slice_lower_bound(p: float) -> float:
    """Smallest admissible slice parameter, 2**(-p)."""
    return 2.0 ** (-p)


class BoundaryFace(enum.Enum):
    """Classification of a point against the three triangle inequalities.

    FACE3 means x1^(1/p) + x2^(1/p) = x3^(1/p) holds with equality, and
    cyclically for FACE1 / FACE2.  Points on an edge or at the apex match
    several equalities; classification reports the first in the fixed
    order FACE3, FACE1, FACE2.
    """

    FACE3 = "face3"
    FACE1 = "face1"
    FACE2 = "face2"
    INTERIOR = "interior"
    OUTSIDE = "outside"

    @property
    def on_boundary(self) -> bool:
        return self in (BoundaryFace.FACE3, BoundaryFace.FACE1, BoundaryFace.FACE2)


@dataclass(frozen=True)
class LambdaPoint:
    """A moment point; membership in the cone is checked, not assumed."""

    x1: float
    x2: float
    x3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3], dtype=float)


@dataclass(frozen=True)
class BoundaryProfile:
    """Slice-parametrized boundary data at theta = 1/2.

    ``g`` is the partner coordinate of the boundary curve (s, g(s), 1) and
    ``f`` the boundary payoff along it; both come with analytic derivatives.
    1 + g_prime vanishes exactly at s = 2**(-p) and is positive beyond it.
    """

    s: float
    g: float
    f: float
    g_prime: float
    f_prime: float


def _roots(x: LambdaPoint, p: float) -> tuple[float, float, float]:
    if min(x.x1, x.x2, x.x3) < 0.0:
        raise NegativeCoordinateError(f"negative moment coordinate in {x}")
    inv = 1.0 / p
    return (x.x1**inv, x.x2**inv, x.x3**inv)


def contains(x: LambdaPoint, p: float, tol: float = FACE_TOL) -> BoundaryFace:
    """Classify x against the cone: a face tag, INTERIOR, or OUTSIDE.

    The test works on the p-th roots with tolerance ``tol`` relative to the
    largest root, so points generated from the boundary parametrization are
    never misreported as OUTSIDE by rounding.  The apex x = 0 satisfies all
    equalities and reports a face tag.
    """
    p = check_exponent(p)
    u1, u2, u3 = _roots(x, p)
    tol_abs = tol * max(u1, u2, u3)
    d3 = u1 + u2 - u3
    d1 = u2 + u3 - u1
    d2 = u3 + u1 - u2
    if d3 < -tol_abs or d1 < -tol_abs or d2 < -tol_abs:
        return BoundaryFace.OUTSIDE
    if d3 <= tol_abs:
        return BoundaryFace.FACE3
    if d1 <= tol_abs:
        return BoundaryFace.FACE1
    if d2 <= tol_abs:
        return BoundaryFace.FACE2
    return BoundaryFace.INTERIOR


def face_value(face: BoundaryFace, u, p: float, theta: float):
    """Collinear-pair payoff on one face, from the p-th roots u = (u1, u2, u3).

    The roots may be floats or equal-shape arrays; the result has the same
    shape.  No face test is made: the caller supplies the face.
    """
    u1, u2, u3 = u
    if face is BoundaryFace.FACE3:
        return abs(theta * u1 - (1.0 - theta) * u2) ** p
    if face is BoundaryFace.FACE1:
        return (theta * u3 + u2) ** p
    return (u1 + (1.0 - theta) * u3) ** p


def profile_arrays(s, p: float):
    """Vectorized slice profile: returns (f, g, f', g') over an array of s.

    Valid for s >= 2**(-p).  The payoff base s**(1/p) - 1/2 is clamped at 0
    so rounding at the left endpoint cannot leak a negative base into a
    fractional power.  g' is exactly 0 at s = 1 because 0**(p-1) == 0.
    """
    s = np.asarray(s, dtype=float)
    inv = 1.0 / p
    u = s**inv
    du = s ** (inv - 1.0)  # p * d(s**(1/p))/ds; the 1/p cancels against the outer power
    fbase = np.maximum(u - 0.5, 0.0)
    gbase = np.abs(1.0 - u)
    f = fbase**p
    g = gbase**p
    f_prime = fbase ** (p - 1.0) * du
    g_prime = -np.sign(1.0 - u) * gbase ** (p - 1.0) * du
    return f, g, f_prime, g_prime


def boundary_profile(s: float, p: float) -> BoundaryProfile:
    """Boundary data (g(s), f(s)) and derivatives on the theta=1/2 slice."""
    p = check_exponent(p)
    smin = slice_lower_bound(p)
    if s < smin:
        if s < smin - 1e-12 * (1.0 + smin):
            raise OutOfRangeError(f"slice parameter {s!r} below 2**(-p) = {smin!r}")
        s = smin
    f, g, fp_, gp_ = profile_arrays(s, p)
    return BoundaryProfile(float(s), float(g), float(f), float(gp_), float(fp_))


def section_profile(tau, p: float):
    """The theta=1/2 slice on the compact section of the cone, by its payoff root tau.

    The slice points (s, g(s), 1), s >= 2**(-p), scaled to largest p-th root
    1, have roots (tau + 1/2, 1/2 - tau, 1) for tau <= 1/2 (face 3) and
    (1, 2 tau - 1, 2 - 2 tau) beyond (face 1), and payoff tau**p.  tau = 0 is
    the antipodal point (2**-p, 2**-p, 1), tau = 1/2 is s = 1 and tau = 1 is
    the limit s -> oo, the point (1, 1, 0).  The derivatives f' = df/ds and
    g' = dg/ds are degree 0, so they take their slice values here:
    f' = (tau/r1)**(p-1), and g' = (r2/r1)**(p-1) with a minus sign below
    tau = 1/2.  Returns (x, f, f', g') with x an (N, 3) array.
    """
    tau = np.asarray(tau, dtype=float)
    low = tau <= 0.5
    r1 = np.where(low, tau + 0.5, 1.0)
    r2 = np.where(low, 0.5 - tau, 2.0 * tau - 1.0)
    r3 = np.where(low, 1.0, 2.0 - 2.0 * tau)
    x = np.stack([r1, r2, r3], axis=-1) ** p
    f_prime = (tau / r1) ** (p - 1.0)
    g_prime = np.where(low, -1.0, 1.0) * (r2 / r1) ** (p - 1.0)
    return x, tau**p, f_prime, g_prime


def section_parameter(s: float, p: float) -> float:
    """The payoff root tau of the slice point (s, g(s), 1) on the compact section."""
    u = s ** (1.0 / p)
    return max(u - 0.5, 0.0) / max(u, 1.0)
