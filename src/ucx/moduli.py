"""The sharp modulus of uniform convexity of L^p, by three routes.

For p >= 2 there is a closed form.  For 1 < p < 2 the sharp constant comes
from a slice parameter s* solving 2 eps^(-p) = s* + g(s*); independently,
delta is the root of an implicit two-term power equation.  The two routes
agree identically (substituting t = s*^(1/p) into the implicit equation
collapses it to the s* equation), which is the main cross-check exploited
by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import boundary_profile, check_exponent, slice_lower_bound
from .errors import BracketFailureError, DomainError, WrongRegimeError
from .numerics import Bracket, bisect_root

#: bracket growth cap for the s* search
S_MAX = 1e12


def _check_eps(eps: float, allow_zero: bool = True) -> float:
    lo_ok = eps >= 0.0 if allow_zero else eps > 0.0
    if not (math.isfinite(eps) and lo_ok and eps <= 2.0):
        raise DomainError(f"eps must lie in {'[0, 2]' if allow_zero else '(0, 2]'}, got {eps!r}")
    return float(eps)


@dataclass(frozen=True)
class SStar:
    """Solution of 2 eps^(-p) = s + g(s) together with its residual."""

    s_star: float
    eps: float
    p: float
    residual: float


def delta_closed_form(p: float, eps: float) -> float:
    """delta(eps) = 1 - (1 - (eps/2)**p)**(1/p), valid for p >= 2.

    Evaluated as -expm1(log1p(-(eps/2)**p) / p), which keeps full relative
    accuracy when (eps/2)**p is below the float64 epsilon; eps = 2 is exact.
    """
    p = check_exponent(p)
    eps = _check_eps(eps)
    if p < 2.0:
        raise WrongRegimeError(f"closed form requires p >= 2, got p={p}")
    if eps == 2.0:
        return 1.0
    return -math.expm1(math.log1p(-((eps / 2.0) ** p)) / p)


def solve_s_star(p: float, eps: float, tol: float = 1e-13) -> SStar:
    """Solve 2 eps^(-p) = s + g(s) on [2**(-p), oo) by bisection.

    s + g(s) is strictly increasing (1 + g' > 0 past the left endpoint), so
    the root is unique.  The right bracket end grows geometrically until the
    sign changes; growth past ``S_MAX`` means eps is too small to bracket.
    Also usable at p = 2 for cross-checks.
    """
    p = check_exponent(p)
    eps = _check_eps(eps, allow_zero=False)
    if p > 2.0:
        raise WrongRegimeError(f"s* path applies for 1 < p <= 2, got p={p}")
    target = 2.0 * eps ** (-p)
    smin = slice_lower_bound(p)

    def phi(s: float) -> float:
        return s + boundary_profile(s, p).g - target

    hi = max(1.0, 2.0 * smin)
    while phi(hi) < 0.0:
        hi *= 2.0
        if hi > S_MAX:
            raise BracketFailureError(
                f"no sign change up to {S_MAX:g}; eps={eps} too small to bracket"
            )
    if phi(smin) > 0.0:
        # can only happen by rounding at eps = 2 where the root is the endpoint
        root = smin
    else:
        root = bisect_root(phi, Bracket(smin, hi, tol))
    return SStar(root, eps, p, abs(phi(root)))


def delta_via_s_star(p: float, eps: float) -> float:
    """delta(eps) = 1 - eps * (s***(1/p) - 1/2), the 1 < p < 2 route."""
    p = check_exponent(p)
    eps = _check_eps(eps, allow_zero=False)
    if not (p < 2.0):
        raise WrongRegimeError(f"s* route requires 1 < p < 2, got p={p}")
    if eps == 2.0:
        return 1.0  # s* = 2**(-p) exactly, so the payoff factor vanishes
    s = solve_s_star(p, eps)
    d = 1.0 - eps * (s.s_star ** (1.0 / p) - 0.5)
    return min(1.0, max(0.0, d))


def delta_implicit(p: float, eps: float, tol: float = 1e-13) -> float:
    """The unique delta in [0, 1] with (1-d+e/2)**p + |1-d-e/2|**p = 2.

    The left side is strictly decreasing in delta, so bisection applies.
    Valid for 1 < p <= 2; the endpoints delta(0) = 0 and delta(2) = 1 are
    returned exactly.
    """
    p = check_exponent(p)
    eps = _check_eps(eps)
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

    eps = 0 short-circuits to 0 (the s* equation degenerates there).  At the
    regime seam p = 2 the two routes agree to 1e-10; asserted in debug mode.
    """
    p = check_exponent(p)
    eps = _check_eps(eps)
    if eps == 0.0:
        return 0.0
    if p >= 2.0:
        d = delta_closed_form(p, eps)
        if p == 2.0 and __debug__:
            assert abs(d - delta_implicit(p, eps)) < 1e-10
        return d
    return delta_via_s_star(p, eps)
