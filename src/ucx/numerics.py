"""Self-contained numerical kernels.

Bracketing bisection, a pure function of its inputs and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, NonFiniteError, NoSignChangeError

Func = Callable[[float], float]

#: default absolute tolerance on the root argument
ROOT_TOL = 1e-12


@dataclass(frozen=True)
class Bracket:
    """A sign-change interval [lo, hi] with an absolute argument tolerance."""

    lo: float
    hi: float
    tol: float = ROOT_TOL

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise DomainError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")
        if not (self.tol > 0.0):
            raise DomainError(f"bracket tolerance must be positive, got {self.tol}")


def _eval_checked(fn: Func, t: float) -> float:
    v = float(fn(t))
    if not math.isfinite(v):
        raise NonFiniteError(f"function returned non-finite value {v!r} at t={t!r}")
    return v


def bisect_root(fn: Func, bracket: Bracket) -> float:
    """Find a root of ``fn`` inside ``bracket`` by plain bisection.

    Requires fn(lo) * fn(hi) <= 0.  The bracket is halved every step until
    its width drops below ``bracket.tol`` (or floating point runs out of
    midpoints), so the result is deterministic and insensitive to further
    tolerance tightening beyond the requested one.
    """
    lo, hi = bracket.lo, bracket.hi
    flo = _eval_checked(fn, lo)
    if flo == 0.0:
        return lo
    fhi = _eval_checked(fn, hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChangeError(
            f"fn({lo!r})={flo!r} and fn({hi!r})={fhi!r} have the same sign"
        )
    lo_neg = flo < 0.0
    while hi - lo > bracket.tol:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):  # interval no longer splittable in float64
            break
        fm = _eval_checked(fn, mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == lo_neg:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
