"""Geometry of the moment cone and its boundary data.

A point x = (x1, x2, x3) collects the averaged p-th moments
(|f|^p, |g|^p, |f-g|^p) of a function pair.  The reachable set is the
convex cone cut out by the three p-th-root triangle inequalities; on its
boundary the pair is forced to be collinear, which pins the payoff, the
midpoint's |(f+g)/2|^p, down to explicit formulas.  The boundary slice at
x3 = 1 is the curve (s, g(s), 1), s >= 2**(-p), with boundary payoff f(s).
It is carried on the compact section of the cone (largest p-th root 1),
where the whole slice, s -> oo included, is parametrized by its payoff
root tau in [0, 1] (``section_profile``).  Boundary data and value function
are degree-1 homogeneous and symmetric under x1 <-> x2, so this one curve
holds all the boundary data there is.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: relative tolerance for boundary-face classification
FACE_TOL = 1e-9


def check_exponent(p: float) -> float:
    """Validate p > 1 (the working range of the cone geometry)."""
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"exponent must satisfy p > 1, got {p!r}")
    return float(p)


def check_eps(eps: float | None, allow_zero: bool = True) -> float:
    """Validate eps in [0, 2], or in (0, 2] without ``allow_zero``."""
    lo_ok = eps is not None and (eps >= 0.0 if allow_zero else eps > 0.0)
    if not (lo_ok and math.isfinite(eps) and eps <= 2.0):
        raise DomainError(f"eps must lie in {'[0, 2]' if allow_zero else '(0, 2]'}, got {eps!r}")
    return float(eps)


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
    """A moment point; ``contains`` checks it against the cone, construction does not."""

    x1: float
    x2: float
    x3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3], dtype=float)


def _roots(x: LambdaPoint, p: float) -> tuple[float, float, float]:
    if not all(math.isfinite(c) and c >= 0.0 for c in (x.x1, x.x2, x.x3)):
        raise DomainError(f"moment coordinates must be finite and nonnegative, got {x}")
    inv = 1.0 / p
    return (x.x1**inv, x.x2**inv, x.x3**inv)


def contains(x: LambdaPoint, p: float) -> BoundaryFace:
    """Classify x against the cone: a face tag, INTERIOR, or OUTSIDE.

    The test works on the p-th roots with tolerance ``FACE_TOL`` relative to
    the largest root, so points generated from the boundary parametrization
    are never misreported as OUTSIDE by rounding.  The apex x = 0 satisfies
    all equalities and reports a face tag.
    """
    p = check_exponent(p)
    u1, u2, u3 = _roots(x, p)
    tol_abs = FACE_TOL * max(u1, u2, u3)
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


def section_profile(tau, p: float):
    """The boundary on the compact section of the cone, by its payoff root tau.

    The slice points (s, g(s), 1), s >= 2**(-p), scaled to largest p-th root
    1, have roots (tau + 1/2, 1/2 - tau, 1) for tau <= 1/2 (face 3) and
    (1, 2 tau - 1, 2 - 2 tau) beyond (face 1), and payoff tau**p.  tau = 0 is
    the antipodal point (2**-p, 2**-p, 1), tau = 1/2 is s = 1 and tau = 1 is
    the limit s -> oo, the point (1, 1, 0).  Every boundary point is a
    nonnegative multiple of one of these or of its x1 <-> x2 mirror, with the
    same payoff.  The derivatives f' = df/ds and g' = dg/ds are degree 0, so
    they take their slice values here: f' = (tau/r1)**(p-1), and
    g' = (r2/r1)**(p-1) with a minus sign below tau = 1/2.  There 1 + g' is
    -expm1((p-1) log(r2/r1)), free of cancellation as p -> 1; it is +0.0 at
    tau = 0 and 1 at tau = 1/2, where r2 = 0.  Returns (x, f, f', 1 + g')
    with x an (N, 3) array.
    """
    tau = np.asarray(tau, dtype=float)
    low = tau <= 0.5
    r1 = np.where(low, tau + 0.5, 1.0)
    r2 = np.where(low, 0.5 - tau, 2.0 * tau - 1.0)
    r3 = np.where(low, 1.0, 2.0 - 2.0 * tau)
    x = np.stack([r1, r2, r3], axis=-1) ** p
    f_prime = (tau / r1) ** (p - 1.0)
    # log(0) = -inf at r2 = 0, and (p - 1) log(r2/r1) overflowing to -inf at p
    # near the largest float, both give 1 + g' = 1
    with np.errstate(divide="ignore", over="ignore"):
        low_den = 0.0 - np.expm1((p - 1.0) * np.log(r2 / r1))  # 0.0 - 0.0 is +0.0
    den = np.where(low, low_den, 1.0 + (r2 / r1) ** (p - 1.0))
    return x, tau**p, f_prime, den
