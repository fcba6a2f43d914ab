"""High-precision reference values of the sharp modulus delta_p(eps).

Computed with mpmath at 50 significant digits, independently of the
package: the closed form 1 - (1 - (eps/2)^p)^(1/p) for p >= 2, written with
expm1/log1p so that nothing cancels, and the root d in [0, 1] of
(1 - d + eps/2)^p + |1 - d - eps/2|^p = 2 for 1 < p < 2.  Inputs are the
exact binary values of the floats the program printed, so the reference
and the program answer the same question.  Nothing is cached on disk.
"""

from __future__ import annotations

import mpmath

DIGITS = 50


def delta_ref(p: float, eps: float) -> mpmath.mpf:
    """delta_p(eps) to about 50 significant digits, as an mpf."""
    with mpmath.workdps(DIGITS + 10):
        p_, e = mpmath.mpf(p), mpmath.mpf(eps)
        if e == 0:
            return mpmath.mpf(0)
        if p_ >= 2:
            x = (e / 2) ** p_
            return -mpmath.expm1(mpmath.log1p(-x) / p_)
        return _implicit_root(p_, e)


def _implicit_root(p: mpmath.mpf, e: mpmath.mpf) -> mpmath.mpf:
    """Root of (1-d+e/2)^p + |1-d-e/2|^p - 2, strictly decreasing in d on [0, 1].

    Bisection on d brackets the root; Newton steps then finish it.  The
    ten guard digits absorb the cancellation in a^p + b^p - 2, so roots
    as small as d ~ 1e-40 keep their 50 significant digits.
    """
    half = e / 2

    def resid(d):
        a, b = 1 - d + half, abs(1 - d - half)
        return a**p + b**p - 2

    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    if resid(hi) >= 0:  # eps = 2: the root is the endpoint d = 1
        return hi
    for _ in range(60):  # shrink the bracket to 2^-60 before Newton
        mid = (lo + hi) / 2
        if resid(mid) > 0:
            lo = mid
        else:
            hi = mid
    d = (lo + hi) / 2
    for _ in range(40):
        a, b = 1 - d + half, 1 - d - half
        f = resid(d)
        df = -p * (a ** (p - 1) + mpmath.sign(b) * abs(b) ** (p - 1))
        step = f / df
        d -= step
        if abs(step) <= abs(d) * mpmath.mpf(10) ** (-DIGITS - 5):
            break
    if not (0 <= d <= 1):
        raise ArithmeticError(f"oracle root {d} left [0, 1] at p={p}, eps={e}")
    return d
