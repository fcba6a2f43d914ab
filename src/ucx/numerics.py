"""Self-contained numerical kernels.

One bracketing root solve, ``bisect_root``: Anderson-Bjorck false position
with a bisection step whenever the bracket falls behind half the pace of
plain bisection, and a secant step from the converging end after a bisection
of the other, so it never takes more than twice the evaluations plain
bisection takes and on smooth roots converges superlinearly.  It runs until
float64 has no midpoint left in the bracket.  A pure function of its inputs
and deterministic.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import DomainError, NonFiniteError

Func = Callable[[float], float]

def _eval_checked(fn: Func, t: float) -> float:
    v = float(fn(t))
    if not math.isfinite(v):
        raise NonFiniteError(f"function returned non-finite value {v!r} at t={t!r}")
    return v


def bisect_root(fn: Func, lo: float, hi: float) -> float:
    """Find a root of ``fn`` in [lo, hi] by Anderson-Bjorck false position.

    Requires lo < hi and fn(lo) * fn(hi) <= 0; a root at an endpoint is
    returned exactly.  Each step evaluates ``fn`` at the false-position point
    of the current sign-change bracket and keeps the sub-bracket that still
    changes sign.
    When the same end moves twice in a row, the value kept at the other end
    is scaled by 1 - f(new)/f(old) (by 1/2 if that is not positive), so that
    end moves too and convergence on a simple root is superlinear.  A step
    bisects instead whenever the bracket is wider than plain bisection at
    half its pace would have left it, 2**(-k/2) of its first width after k
    steps.  So where plain bisection to the same bracket width takes n
    evaluations this takes at most 2 n, and on smooth roots far fewer.  Where
    false position creeps up on the root from one end, only those bisections
    move the other; the step after such a bisection follows the secant through
    the converging end's last two points instead, if that lies inside the
    bracket, and so crosses the root once that end converges; it takes no
    bisection's place, so the bound above holds.  Steps
    stop once the bracket has no float64 midpoint left, and its midpoint is
    returned; the result is deterministic.
    """
    if not (lo < hi):
        raise DomainError(f"bracket requires lo < hi, got [{lo}, {hi}]")
    flo = _eval_checked(fn, lo)
    if flo == 0.0:
        return lo
    fhi = _eval_checked(fn, hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise DomainError(
            f"fn({lo!r})={flo!r} and fn({hi!r})={fhi!r} have the same sign"
        )
    lo_neg = flo < 0.0
    moved_lo = None  # which end the last step moved; None before the first
    # the width plain bisection at half its pace would have left; finite, so
    # that a bracket wider than the largest float bisects first
    pace = min(hi - lo, sys.float_info.max)
    # the end the last step that did not bisect moved and where it was before;
    # whether a bisection then moved the other end
    fp_lo = q = fq = None
    crossing = False
    while lo < 0.5 * (lo + hi) < hi:  # until no float64 midpoint is left
        bisect = hi - lo > pace
        if bisect:
            t = 0.5 * (lo + hi)
        else:
            t = lo + (hi - lo) * (flo / (flo - fhi))
            if crossing:
                e, fe = (lo, flo) if fp_lo else (hi, fhi)
                s = e - fe * (e - q) / (fe - fq) if fe != fq else t
                t = s if lo < s < hi else t
            if t <= lo:  # rounded onto an end: step in by one float
                t = math.nextafter(lo, hi)
            elif t >= hi:
                t = math.nextafter(hi, lo)
        pace *= 0.5**0.5
        ft = _eval_checked(fn, t)
        if ft == 0.0:
            return t
        to_lo = (ft < 0.0) == lo_neg
        crossing = bisect and fp_lo is not to_lo and fp_lo is not None
        if to_lo:
            if moved_lo is True:
                m = 1.0 - ft / flo
                fhi *= m if m > 0.0 else 0.5
            if not bisect:
                fp_lo, q, fq = True, lo, flo
            lo, flo = t, ft
        else:
            if moved_lo is False:
                m = 1.0 - ft / fhi
                flo *= m if m > 0.0 else 0.5
            if not bisect:
                fp_lo, q, fq = False, hi, fhi
            hi, fhi = t, ft
        moved_lo = to_lo
    return 0.5 * (lo + hi)
