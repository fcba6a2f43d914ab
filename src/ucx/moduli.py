"""The sharp modulus of uniform convexity of L^p, and its implicit equation.

For p >= 2 there is a closed form.  For 1 < p < 2 the sharp constant comes
from one tangency on the boundary slice, and ``delta`` solves for its one
unknown, u = 1 - delta, through L = log(1 - delta), over the closed bracket
[log1p(-eps^2/4), 0] that delta_p <= delta_2 gives, in a form free of
cancellation; delta = -expm1(L) then keeps full relative accuracy as
eps -> 0.  The root comes from ``numerics.bisect_root`` (Anderson-Bjorck
false position, never more than twice the evaluations of plain bisection),
run until float64 has no midpoint left in the bracket.  Under u = 1 - delta
the tangency equation is the implicit two-term power equation in delta
itself, and ``implicit_correction`` measures a given delta against that
equation by one Newton step, with no second solve.
"""

from __future__ import annotations

import math
import sys

from .domain import check_eps, check_exponent
from .errors import DomainError
from .numerics import bisect_root

def _log_mean_power(L: float, a: float, p: float) -> float:
    """log(((u + a)**p + |u - a|**p) / 2) at u = e**L, for a > 0, free of cancellation.

    With M = max(u, a) and rho = min(u, a)/M <= 1 the mean is M**p h(rho),
    h(rho) = ((1 + rho)**p + (1 - rho)**p)/2.  For small rho, h is written as
    (1 - rho**2)**(p/2) cosh(p atanh(rho)) with cosh(x) - 1 = 2 sinh(x/2)**2,
    which keeps its O(rho**2) excess over 1 at full relative accuracy.  Near
    rho = 1 the rounding of rho**2 would swamp 1 - rho**2, and h is written
    as (1 + rho)**p (1 + t**p)/2 with t = (1 - rho)/(1 + rho), regular at
    rho = 1.  The switch at rho = 7/8 balances the two forms' errors.
    """
    u = math.exp(L)
    log_big = L if u >= a else math.log(a)
    rho = min(u, a) / max(u, a)
    if rho < 0.875:
        log_h = 0.5 * p * math.log1p(-rho * rho) + math.log1p(
            2.0 * math.sinh(0.5 * p * math.atanh(rho)) ** 2
        )
    else:
        t = (1.0 - rho) / (1.0 + rho)
        log_h = p * math.log1p(rho) + math.log1p(t**p) - math.log(2.0)
    return p * log_big + log_h


def _log_u(p: float, eps: float) -> float:
    """L = log(1 - delta) for 1 < p <= 2 and 0 < eps <= 2.

    With u = 1 - delta and a = eps/2, the tangency equation of the slice,
    2 eps^(-p) = s* + g(s*) under s* = (u/eps + 1/2)**p, reads
    ((u + a)**p + |u - a|**p)/2 = 1, whose left side increases in u.
    Hilbert space is the most uniformly convex, so delta_p <= delta_2 =
    1 - sqrt(1 - a**2) and L lies in the closed bracket [log1p(-a**2), 0].
    The residual at L = 0, >= 0 by convexity, is clamped to >= 0: near p = 1
    it can round below 0.  eps = 2 gives L = -oo (delta = 1).  Where a**2 is below
    the smallest normal float, so is delta, and L = 0 is returned.
    """
    if eps == 2.0:
        return -math.inf
    a = 0.5 * eps
    if a * a < sys.float_info.min:
        return 0.0
    return bisect_root(lambda L: _log_mean_power(L, a, p) if L else max(_log_mean_power(L, a, p), 0.0),
                       math.log1p(-a * a), 0.0)


def implicit_correction(p: float, eps: float, d: float) -> float:
    """|R(d) / R'(d)|, the Newton step of the implicit equation R = 0 at d, for 1 < p <= 2.

    R(d) = (1-d+a)**p + |1-d-a|**p - 2 with a = eps/2 is strictly decreasing
    in d on [0, 1] and vanishes at delta_p(eps), so to first order the step
    is the distance from d to that root.  -R'/p = x**(p-1) + sign(y) |y|**(p-1)
    with x = 1-d+a and y = 1-d-a; for y < 0 it is taken as
    -x**(p-1) expm1((p-1) log(-y/x)), which keeps its digits as p -> 1.
    Where R rounds to 0 (at eps = 0, and at eps = 2 with d = 1) the step is
    0.0; where R' vanishes (d = 1 at eps < 2) it is inf.
    """
    p = check_exponent(p)
    eps = check_eps(eps)
    if p > 2.0:
        raise DomainError(f"implicit equation requires 1 < p <= 2, got p={p}")
    if not 0.0 <= d <= 1.0:
        raise DomainError(f"d must lie in [0, 1], got {d!r}")
    x, y = 1.0 - d + 0.5 * eps, 1.0 - d - 0.5 * eps
    r = x**p + abs(y) ** p - 2.0
    if r == 0.0:
        return 0.0
    if y >= 0.0:
        slope = p * (x ** (p - 1.0) + y ** (p - 1.0))
    else:
        slope = -p * x ** (p - 1.0) * math.expm1((p - 1.0) * math.log(-y / x))
    return abs(r) / slope if slope else math.inf


def delta(p: float, eps: float) -> float:
    """delta_p(eps) for p > 1 and eps in [0, 2].

    p >= 2: the closed form 1 - (1 - (eps/2)**p)**(1/p), evaluated as
    -expm1(log1p(-(eps/2)**p) / p), which keeps full relative accuracy when
    (eps/2)**p is below the float64 epsilon; eps = 2 is exact.
    1 < p < 2: -expm1(L) with L = log(1 - delta) from the tangency equation
    (``_log_u``).  eps = 0 short-circuits to 0 in both regimes.
    """
    p = check_exponent(p)
    eps = check_eps(eps)
    if eps == 0.0:
        return 0.0
    if p >= 2.0:
        if eps == 2.0:
            return 1.0
        return -math.expm1(math.log1p(-((eps / 2.0) ** p)) / p)
    return 0.0 - math.expm1(_log_u(p, eps))  # 0.0 - 0.0 is +0.0
