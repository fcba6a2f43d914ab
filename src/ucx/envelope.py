"""Grid concavification: reconstruct the value function from boundary data alone.

The value function is the minimal concave majorant of the boundary payoff
on the moment cone.  Boundary data and value function are both degree-1
homogeneous, so at any query point the value is the best conic (nonnegative)
combination of boundary samples hitting that point, and samples from one
compact section of the cone suffice.  Restricting the combination to a
finite sample set turns this into a small LP and yields a certified
under-approximation that sharpens as the sampling density grows.  This
route is independent of the tangent-plane certificates and of the step-pair
search, which is what makes the three-way sandwich test meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoundaryFace, LambdaPoint, check_exponent, check_theta, face_value
from .errors import DomainError, InfeasibleError
from .numerics import LpProblem, solve_lp

#: active weights below this threshold are dropped from query reports
ACTIVE_TOL = 1e-11


@dataclass(frozen=True)
class ObstacleGrid:
    """Sampled boundary points with their payoff values.

    Points lie on the compact boundary section where the largest p-th root
    is 1; every boundary point is a nonnegative multiple of one of them.
    """

    points: np.ndarray
    values: np.ndarray
    p: float
    theta: float

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class EnvelopeQuery:
    """Concavification value at ``x`` with its active sample decomposition."""

    x: LambdaPoint
    result: float
    active_weights: tuple[tuple[int, float], ...]


def sample_boundary(p: float, theta: float, n_per_face: int) -> ObstacleGrid:
    """Sample each cone face once along its p-th-root parametrization.

    With ``t`` on ``n_per_face`` equispaced points of [0, 1], the roots
    (t, 1-t, 1), (1, t, 1-t) and (t, 1, 1-t) sweep faces 3, 1 and 2, and
    the points are their p-th powers.  The face-3 midpoint (2^-p, 2^-p, 1)
    is appended because an even ``n_per_face`` misses t = 1/2: it is the
    ray of the antipodal point (1, 1, 2^p), without which slice queries
    near x3 = 2^p leave the sampled cone.
    """
    p = check_exponent(p)
    theta = check_theta(theta)
    if n_per_face < 2:
        raise DomainError(f"n_per_face must be at least 2, got {n_per_face}")
    t = np.linspace(0.0, 1.0, n_per_face)
    t3 = np.append(t, 0.5)
    faces = (
        (BoundaryFace.FACE3, (t3, 1.0 - t3, np.ones_like(t3))),
        (BoundaryFace.FACE1, (np.ones_like(t), t, 1.0 - t)),
        (BoundaryFace.FACE2, (t, np.ones_like(t), 1.0 - t)),
    )
    points = np.concatenate([np.column_stack(u) ** p for _, u in faces])
    values = np.concatenate([face_value(face, u, p, theta) for face, u in faces])
    return ObstacleGrid(points, values, p, theta)


def concavify(grid: ObstacleGrid, x: LambdaPoint) -> EnvelopeQuery:
    """Best conic combination of boundary samples hitting ``x``.

    Maximizes sum(w_i * value_i) subject to sum(w_i * point_i) = x, w >= 0.
    The optimum is a vertex, so at most three samples carry weight
    (Caratheodory in the three moment coordinates).  Under-approximates the
    true concave majorant by grid resolution.
    """
    try:
        weights, value = solve_lp(LpProblem(grid.values, grid.points.T, x.as_array()))
    except InfeasibleError as e:
        raise InfeasibleError(
            f"query {x} is outside the sampled cone; densify the grid"
        ) from e
    active = tuple(
        (int(i), float(weights[i])) for i in np.nonzero(weights > ACTIVE_TOL)[0]
    )
    return EnvelopeQuery(x, value, active)
