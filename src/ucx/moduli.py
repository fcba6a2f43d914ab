"""The sharp modulus of uniform convexity of L^p, by three routes.

For p >= 2 there is a closed form.  For 1 < p < 2 the sharp constant comes
from a slice parameter s* solving 2 eps^(-p) = s* + g(s*); independently,
delta is the root of an implicit two-term power equation.  The two routes
agree identically (substituting t = s*^(1/p) into the implicit equation
collapses it to the s* equation), which is the main cross-check exploited
by the tests.

The s* route is solved once, for L = log(1 - delta), over the closed
bracket [log1p(-eps^2/4), 0] that delta_p <= delta_2 gives, in a form free
of cancellation; delta = -expm1(L) then keeps full relative accuracy as
eps -> 0, and s* = (e^L/eps + 1/2)^p follows in closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .domain import check_eps, check_exponent
from .errors import DomainError, WrongRegimeError
from .numerics import Bracket, bisect_root


@dataclass(frozen=True)
class SStar:
    """Solution of 2 eps^(-p) = s + g(s) together with its residual."""

    s_star: float
    residual: float


def delta_closed_form(p: float, eps: float) -> float:
    """delta(eps) = 1 - (1 - (eps/2)**p)**(1/p), valid for p >= 2.

    Evaluated as -expm1(log1p(-(eps/2)**p) / p), which keeps full relative
    accuracy when (eps/2)**p is below the float64 epsilon; eps = 2 is exact.
    """
    p = check_exponent(p)
    eps = check_eps(eps)
    if p < 2.0:
        raise WrongRegimeError(f"closed form requires p >= 2, got p={p}")
    if eps == 2.0:
        return 1.0
    return -math.expm1(math.log1p(-((eps / 2.0) ** p)) / p)


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

    With u = 1 - delta and a = eps/2, the s* equation under
    s = (u/eps + 1/2)**p reads ((u + a)**p + |u - a|**p)/2 = 1, whose left
    side increases in u.  Hilbert space is the most uniformly convex, so
    delta_p <= delta_2 = 1 - sqrt(1 - a**2) and L lies in the closed bracket
    [log1p(-a**2), 0].  Bisection runs until float64 has no midpoint left.
    eps = 2 gives L = -oo (delta = 1).  Where a**2 is below the smallest
    normal float, so is delta, and L = 0 is returned.
    """
    if eps == 2.0:
        return -math.inf
    a = 0.5 * eps
    if a * a < sys.float_info.min:
        return 0.0
    bracket = Bracket(math.log1p(-a * a), 0.0, math.ulp(0.0))
    return bisect_root(lambda L: _log_mean_power(L, a, p), bracket)


def solve_s_star(p: float, eps: float) -> SStar:
    """The root of 2 eps^(-p) = s + g(s), g(s) = |1 - s**(1/p)|**p, on [2**(-p), oo).

    s* = ((1 - delta)/eps + 1/2)**p in closed form, clamped at 2**(-p), with
    log(1 - delta) from the root solve behind ``delta_via_s_star``; that is
    good to a few ulp of s.  Also usable at p = 2 for cross-checks.  An
    eps so small that 2 eps^(-p) overflows float64 has no s* to return.
    """
    p = check_exponent(p)
    eps = check_eps(eps, allow_zero=False)
    if p > 2.0:
        raise WrongRegimeError(f"s* path applies for 1 < p <= 2, got p={p}")
    try:
        target = 2.0 * eps ** (-p)
    except OverflowError:
        target = math.inf
    if not math.isfinite(target):
        raise DomainError(f"2 eps^(-p) overflows float64 at p={p!r}, eps={eps!r}")
    s = max((math.exp(_log_u(p, eps)) / eps + 0.5) ** p, 2.0**-p)
    g = abs(1.0 - s ** (1.0 / p)) ** p
    return SStar(s, abs(s + g - target))


def delta_via_s_star(p: float, eps: float) -> float:
    """delta(eps) = 1 - eps * (s***(1/p) - 1/2), the 1 < p < 2 route.

    Evaluated as -expm1(log(1 - delta)) from the same root solve that gives
    s*, so it keeps full relative accuracy as eps -> 0.
    """
    p = check_exponent(p)
    eps = check_eps(eps, allow_zero=False)
    if not (p < 2.0):
        raise WrongRegimeError(f"s* route requires 1 < p < 2, got p={p}")
    return 0.0 - math.expm1(_log_u(p, eps))  # 0.0 - 0.0 is +0.0


def delta_implicit(p: float, eps: float, tol: float = 1e-13) -> float:
    """The unique delta in [0, 1] with (1-d+e/2)**p + |1-d-e/2|**p = 2.

    The left side is strictly decreasing in delta, so bisection applies.
    Valid for 1 < p <= 2; the endpoints delta(0) = 0 and delta(2) = 1 are
    returned exactly.
    """
    p = check_exponent(p)
    eps = check_eps(eps)
    if p > 2.0:
        raise WrongRegimeError(f"implicit equation requires 1 < p <= 2, got p={p}")
    if eps == 0.0:
        return 0.0
    if eps == 2.0:
        return 1.0

    def resid(d: float) -> float:
        return (1.0 - d + eps / 2.0) ** p + abs(1.0 - d - eps / 2.0) ** p - 2.0

    return bisect_root(resid, Bracket(0.0, 1.0, tol))


def delta(p: float, eps: float) -> float:
    """Dispatcher: closed form for p >= 2, the s* route for 1 < p < 2.

    eps = 0 short-circuits to 0 (the s* equation degenerates there).
    """
    p = check_exponent(p)
    eps = check_eps(eps)
    if eps == 0.0:
        return 0.0
    if p >= 2.0:
        return delta_closed_form(p, eps)
    return delta_via_s_star(p, eps)
