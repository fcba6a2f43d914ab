"""Numerical helpers that only the tests use."""

import math
import random
from dataclasses import dataclass

import mpmath
import numpy as np

from ucx.bellman import WEIGHT_TOL
from ucx.domain import BoundaryFace, LambdaPoint, check_exponent, contains
from ucx.envelope import ObstacleGrid
from ucx.errors import DomainError, UcxError
from ucx.numerics import bisect_root


class NotOnBoundaryError(UcxError):
    """Boundary data requested at a point not on the cone boundary."""


class PartitionMismatchError(UcxError):
    """Two step functions do not share the same atom weights."""


def central_diff(fn, s: float, h: float) -> float:
    """Symmetric difference quotient (fn(s+h) - fn(s-h)) / 2h."""
    if not (h > 0.0):
        raise ValueError(f"step must be positive, got {h}")
    return (float(fn(s + h)) - float(fn(s - h))) / (2.0 * h)


def face_value(face: BoundaryFace, u, p: float):
    """Collinear-pair midpoint payoff on one face, from the p-th roots u = (u1, u2, u3).

    Face 3 carries the pair (u1, -u2) and face 1 the pair (u2 + u3, u2),
    with payoff roots |u1 - u2|/2 and u2 + u3/2; face 2 is the x1 <-> x2
    mirror of face 1.  The roots may be floats or equal-shape arrays; the
    result has the same shape.  No face test is made: the caller supplies
    the face.  The reference for ``ucx.domain.section_profile``'s payoff.
    """
    u1, u2, u3 = u
    if face is BoundaryFace.FACE3:
        return abs(0.5 * u1 - 0.5 * u2) ** p
    return (0.5 * u3 + (u2 if face is BoundaryFace.FACE1 else u1)) ** p


def boundary_value(x: LambdaPoint, p: float) -> float:
    """Collinear-pair midpoint payoff at a boundary point, by the face ``contains`` reports.

    On an edge several face formulas apply; they agree there (the data is
    continuous across edges), and the first face in the order of
    ``contains`` is used.
    """
    face = contains(x, p)
    if not face.on_boundary:
        raise NotOnBoundaryError(f"{x} is {face.value}, not on the cone boundary")
    return face_value(face, [c ** (1.0 / p) for c in (x.x1, x.x2, x.x3)], p)


def face_root_grid(p: float, n_per_face: int) -> ObstacleGrid:
    """All three faces sampled at ``n_per_face`` equispaced p-th roots t each.

    Face 3 has the roots (t, 1-t, 1) plus its midpoint t = 1/2, face 1
    (1, t, 1-t) and face 2 (t, 1, 1-t), with the face formulas' payoffs:
    3 n + 1 points, the boundary sampling ``ucx.envelope.sample_boundary``
    refines.  Half of face 3 and all of face 2 mirror the rest under
    x1 <-> x2.
    """
    t = np.linspace(0.0, 1.0, n_per_face)
    t3, one = np.append(t, 0.5), np.ones_like(t)
    faces = (
        (BoundaryFace.FACE3, (t3, 1.0 - t3, np.ones_like(t3))),
        (BoundaryFace.FACE1, (one, t, 1.0 - t)),
        (BoundaryFace.FACE2, (t, one, 1.0 - t)),
    )
    return ObstacleGrid(np.concatenate([np.column_stack(u) ** p for _, u in faces]),
                        np.concatenate([face_value(face, u, p) for face, u in faces]))


def mirrored(grid: ObstacleGrid) -> ObstacleGrid:
    """``grid`` with the x1 <-> x2 mirror of every sample appended, at the same payoff."""
    return ObstacleGrid(np.vstack([grid.points, grid.points[:, [1, 0, 2]]]),
                        np.concatenate([grid.values, grid.values]))


def slice_lower_bound(p: float) -> float:
    """Smallest admissible slice parameter, 2**(-p)."""
    return 2.0 ** (-p)


@dataclass(frozen=True)
class BoundaryProfile:
    """Slice-parametrized boundary data.

    ``g`` is the partner coordinate of the boundary curve (s, g(s), 1) and
    ``f`` the boundary payoff along it; both come with analytic derivatives.
    1 + g_prime vanishes exactly at s = 2**(-p) and is positive beyond it.
    """

    s: float
    g: float
    f: float
    g_prime: float
    f_prime: float


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
    """Boundary data (g(s), f(s)) and derivatives on the slice.

    The slice form of the curve that ``ucx.domain.section_profile`` carries
    on the compact section; the tests compare the two.
    """
    p = check_exponent(p)
    smin = slice_lower_bound(p)
    if s < smin:
        if s < smin - 1e-12 * (1.0 + smin):
            raise DomainError(f"slice parameter {s!r} below 2**(-p) = {smin!r}")
        s = smin
    f, g, fp_, gp_ = profile_arrays(s, p)
    return BoundaryProfile(float(s), float(g), float(f), float(gp_), float(fp_))


def slice_point(s: float, p: float, swapped: bool = False) -> LambdaPoint:
    """The boundary point (s, g(s), 1), or its x1<->x2 mirror when swapped."""
    prof = boundary_profile(s, p)
    if swapped:
        return LambdaPoint(prof.g, prof.s, 1.0)
    return LambdaPoint(prof.s, prof.g, 1.0)


def contract_points():
    """The seeded (p, eps) sample of the accuracy contract, all with 1.01 <= p < 2."""
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
    return points


def implicit_residual(d, p, eps):
    """(1-d+e/2)**p + |1-d-e/2|**p - 2, strictly decreasing in d on [0, 1]."""
    return (1.0 - d + eps / 2.0) ** p + abs(1.0 - d - eps / 2.0) ** p - 2.0


def delta_implicit(p, eps):
    """The unique delta in [0, 1] with (1-d+e/2)**p + |1-d-e/2|**p = 2, for 1 < p <= 2.

    A float solve in d: the tests' float reference for ``ucx.moduli.delta``,
    which solves the same equation in log(1 - delta).  The endpoints delta(0) = 0 and
    delta(2) = 1 are returned exactly.  At d = 0 the residual is about
    p (p-1) eps**2 / 4, and for eps below about 1e-7 float64 can round it to
    0 or below; the true root is then below 1e-15 and 0.0 is returned.
    """
    if eps == 0.0:
        return 0.0
    if eps == 2.0:
        return 1.0
    if implicit_residual(0.0, p, eps) <= 0.0:
        return 0.0
    return bisect_root(lambda d: implicit_residual(d, p, eps), 0.0, 1.0)


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


def hanner_value(x, p):
    """The value function at an interior point x, at 50 digits: Hanner's (1956) inequality solved for it.

    With u_i = x_i^(1/p): for p <= 2 it is m = y^p, y the root of
    (2 y + u3)^p + |2 y - u3|^p = 2^p (x1 + x2), whose left side grows in
    y >= 0 from 2 x3 and passes the right at y = (x1 + x2)^(1/p) at the
    latest; for p >= 2 it is ((u1 + u2)^p + |u1 - u2|^p - x3) / 2^p.  The
    root is taken at x / max(x), where the equation is O(1), to 1e-40, and
    scaled back by degree-1 homogeneity.  A reference for the tests only: no
    route computes from it.
    """
    with mpmath.workdps(50):
        p, scale = mpmath.mpf(p), mpmath.mpf(float(max(x)))
        x1, x2, x3 = (mpmath.mpf(float(c)) / scale for c in x)
        u1, u2, u3 = (c ** (1 / p) for c in (x1, x2, x3))
        if p >= 2:
            return scale * ((u1 + u2) ** p + abs(u1 - u2) ** p - x3) / 2**p
        y = mpmath.findroot(lambda y: (2 * y + u3) ** p + abs(2 * y - u3) ** p - 2**p * (x1 + x2),
                            (mpmath.mpf(0), (x1 + x2) ** (1 / p)), solver="illinois", tol=mpmath.mpf(10) ** -40)
        return scale * y**p


@dataclass(frozen=True)
class StepFunction:
    """One marginal of a step pair: atoms of (weight, value), floats or
    equal-shape arrays holding one function per element."""

    atoms: tuple[tuple[float, float], ...]

    @property
    def weights(self) -> np.ndarray:
        return np.array([a for a, _ in self.atoms])

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.atoms])


def hanner_gap(f_fn: StepFunction, g_fn: StepFunction, p: float):
    """Two-function inequality gap on a shared partition.

    Returns ||f+g||^p + ||f-g||^p - (||f||+||g||)^p - | ||f||-||g|| |^p,
    which is >= 0 for p in [1, 2] and <= 0 for p >= 2 (equality at p = 2 by
    the parallelogram law).  p = 1 is admitted here, unlike the rest of the
    cone geometry.  A float for float atoms; for array atoms, an array of
    the gaps of the pairs element by element.
    """
    if not p >= 1.0:
        raise DomainError(f"the inequality is stated for p >= 1, got {p!r}")
    aw, bw = f_fn.weights, g_fn.weights
    if aw.shape != bw.shape or np.abs(aw - bw).max() > WEIGHT_TOL:
        raise PartitionMismatchError("marginals do not share atom weights")
    fv, gv = f_fn.values, g_fn.values

    def norm(vals: np.ndarray) -> np.ndarray:
        return (aw * np.abs(vals) ** p).sum(axis=0) ** (1.0 / p)

    lhs = norm(fv + gv) ** p + norm(fv - gv) ** p
    nf, ng = norm(fv), norm(gv)
    gap = lhs - ((nf + ng) ** p + np.abs(nf - ng) ** p)
    return float(gap) if gap.ndim == 0 else gap
