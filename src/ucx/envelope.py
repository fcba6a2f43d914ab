"""Grid concavification: reconstruct the value function from boundary data alone.

The value function is the minimal concave majorant of the boundary payoff
on the moment cone.  Boundary data and value function are both degree-1
homogeneous, so at any query point the value is the best conic (nonnegative)
combination of boundary samples hitting that point, and samples from one
compact section of the cone suffice: ``domain.section_profile`` at
equispaced payoff roots.  The payoff is the midpoint's, |(f+g)/2|^p, so
both are also symmetric under x1 <-> x2: on the plane x1 = x2 a sample
counts through the average with its mirror, and the best
combination reduces to the upper concave hull of one variable, the
sample's x3 and payoff per unit of x1 + x2.  Restricting it to a finite
sample set yields a certified under-approximation that sharpens as the
sampling density grows.  This route is independent of the tangent-plane
certificates and of the step-pair search, which is what makes the
three-way sandwich test meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import LambdaPoint, check_exponent, section_profile
from .errors import DomainError, InfeasibleError

#: relative slack past the antipodal ray within which a query is still
#: answered: 2**p and 0.5**p each round on their own
RAY_RTOL = 16 * 2.0**-53


@dataclass(frozen=True)
class ObstacleGrid:
    """Sampled boundary points with their midpoint payoff values.

    Points lie on the compact boundary section where the largest p-th root
    is 1; every boundary point is a nonnegative multiple of one of them or
    of its x1 <-> x2 mirror.  Both arrays are stored read-only, a writable
    one passed in as a copy, so the upper hull that ``concavify`` reads is
    built once per grid, at its first query, and cannot go stale.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("points", "values"):
            a = np.asarray(getattr(self, name))
            if a.flags.writeable:
                a = a.copy()
                a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def _hull(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """x1 + x2, and (r, h) = (x3, value) / (x1 + x2) with the indices of their upper hull's vertices."""
        sums = self.points[:, 0] + self.points[:, 1]
        r, h = self.points[:, 2] / sums, self.values / sums
        return sums, r, h, _upper_hull(r, h)


@dataclass(frozen=True)
class EnvelopeQuery:
    """Concavification value at a query with its active sample decomposition."""

    result: float
    active_weights: tuple[tuple[int, float], ...]


def sample_boundary(p: float, n_per_face: int) -> ObstacleGrid:
    """Sample the compact section at 2 n - 1 equispaced payoff roots tau in [0, 1].

    The points and payoffs are ``section_profile``'s: ``n_per_face`` samples
    on each of face 3 (tau <= 1/2) and face 1 (tau >= 1/2), with tau = 1/2
    shared.  tau = 0 is the antipodal point (2^-p, 2^-p, 1), the ray of
    (1, 1, 2^p), without which slice queries near x3 = 2^p leave the
    sampled cone.  The rest of the boundary, face 2 and the other half of
    face 3, mirrors these samples under x1 <-> x2 with the same payoff, and
    ``concavify`` averages each sample with its mirror, so its samples would
    repeat these bit for bit.  The antipodal sample's x3 / (x1 + x2), 2^(p-1),
    overflows float64 from p = 1025 on, where ``DomainError`` is raised.
    """
    p = check_exponent(p)
    if n_per_face < 2:
        raise DomainError(f"n_per_face must be at least 2, got {n_per_face}")
    x, f, _, _ = section_profile(np.linspace(0.0, 1.0, 2 * n_per_face - 1), p)
    with np.errstate(divide="ignore", over="ignore"):
        finite = np.isfinite(x[:, 2] / (x[:, 0] + x[:, 1])).all()
    if not finite:
        raise DomainError(f"the antipodal sample's x3 / (x1 + x2) = 2**(p-1) overflows float64 at p={p!r}")
    return ObstacleGrid(x, f)


def _upper_hull(r: np.ndarray, h: np.ndarray) -> list[int]:
    """Indices of the vertices of the upper concave hull of (r, h), by increasing r.

    Monotone chain over the samples sorted by r; of samples with equal r
    only the highest can be a vertex.  Collinear middle points are dropped.
    """
    order = np.lexsort((-h, r))
    order = order[np.append(True, np.diff(r[order]) > 0.0)]
    hull: list[int] = []
    for i in order.tolist():
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            if (r[a] - r[o]) * (h[i] - h[o]) < (h[a] - h[o]) * (r[i] - r[o]):
                break
            hull.pop()
        hull.append(i)
    return hull


def concavify(grid: ObstacleGrid, x: LambdaPoint) -> EnvelopeQuery:
    """Best conic combination of boundary samples and their mirrors hitting ``x``.

    Only queries on the plane x1 = x2 are answered.  A sample (a, b, c) with
    payoff v enters through the average with its mirror (b, a, c), which
    lies on that plane, as the point (r, h) = (c, v) / (a + b); the value at
    (x1, x1, x3) is then 2 x1 hull(x3 / (2 x1)), with hull the upper
    concave hull of those points.  At most two samples carry weight, the
    hull vertices bracketing x3 / (2 x1); their weights hit x after each
    sample is averaged with its mirror.  Under-approximates the true
    concave majorant by grid resolution.  The hull is the grid's, built at
    its first query and shared by the rest.
    """
    if x.x1 != x.x2:
        raise DomainError(f"concavify answers queries with x1 == x2 only, got {x}")
    if x.x1 == x.x3 == 0.0:
        return EnvelopeQuery(0.0, ())
    if not x.x1 > 0.0:
        raise InfeasibleError(f"query {x} is outside the cone")
    sums, r, h, hull = grid._hull
    # the mass 2 x1 is never formed: it overflows from x1 = 2**1023 on
    rs, rq = r[hull], (0.5 * x.x3) / x.x1
    if not rs[0] <= rq <= rs[-1] * (1.0 + RAY_RTOL):
        raise InfeasibleError(f"query {x} is outside the sampled cone; densify the grid")
    k = min(int(np.searchsorted(rs, rq)), len(hull) - 1)
    if rq >= rs[k]:  # on a vertex, or within RAY_RTOL past the last one
        terms = ((hull[k], 1.0),)
    else:
        lo, hi = hull[k - 1], hull[k]
        mu = (rq - r[lo]) / (r[hi] - r[lo])
        terms = ((lo, 1.0 - mu), (hi, mu))
    value = x.x1 * (2.0 * sum(m * h[i] for i, m in terms))
    active = tuple((i, float(2.0 * (x.x1 * m / sums[i]))) for i, m in terms)
    return EnvelopeQuery(float(value), active)
