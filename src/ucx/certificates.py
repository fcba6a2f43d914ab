"""Linear tangent-plane certificates and the verification scans behind them.

A certificate is a linear function c . x that majorizes the boundary
payoff on the whole cone boundary, hence (being concave) majorizes the
extremal value function everywhere; evaluating it at the query point
(1, 1, eps^p) yields the sharp modulus.  ``verify_appendix`` re-derives
every inequality the majorization rests on by direct grid scans of the
compact section of the cone (largest p-th root 1, ``section_profile``),
where every quantity is O(1) at every eps.  ``sharpness_check`` verifies
the chord argument showing the certificates are tight at the query point;
the chord's gap to the certificate is affine, so it checks the two ends.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .domain import LambdaPoint, check_eps, check_exponent, section_profile
from .errors import DomainError
from .moduli import delta


@dataclass(frozen=True)
class Certificate:
    """Majorant c . x of the boundary data, linear by degree-1 homogeneity.

    p >= 2: c = (1/2, 1/2, -2**(-p)).
    1 < p < 2, eps < 2: the plane tangent to the boundary payoff at the
    section point with roots (1, |1 - w|, w), whose slice parameter is
    s* = w**(-p); c = (k, k, f(s*) - 2 eps^(-p) k) with
    k = f'(s*) / (1 + g'(s*)), and ``w`` is that tangency root, in (0, 2).
    As eps -> 2, w -> 2, where 1 + g' vanishes and k grows without bound,
    so no affine certificate exists at eps = 2.
    """

    c: tuple[float, float, float]
    w: float | None = None

    def value(self, x):
        """Evaluate at a LambdaPoint, a length-3 vector, or an (N, 3) array."""
        arr = x.as_array() if isinstance(x, LambdaPoint) else np.asarray(x, dtype=float)
        v = arr @ np.asarray(self.c, dtype=float)
        return float(v) if np.ndim(v) == 0 else v


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one scanned claim; ``worst_value`` is the binding sample."""

    claim: str
    grid: int
    worst_value: float
    worst_arg: float
    passed: bool

    def line(self) -> str:
        flag = "true" if self.passed else "false"
        return (
            f"claim={self.claim} pass={flag} worst={self.worst_value!r} "
            f"at={self.worst_arg!r} grid={self.grid}"
        )


def certificate(p: float, eps: float | None = None) -> Certificate:
    """The certificate of the query (1, 1, eps^p), for the regime of p.

    p >= 2: the plane (x1 + x2)/2 - x3/2^p, whatever the eps.  1 < p < 2:
    the tangent plane at the slice tangency, which needs eps in (0, 2).  A
    given eps must lie in (0, 2] in both regimes.
    """
    p = check_exponent(p)
    if eps is not None:
        eps = check_eps(eps, allow_zero=False)
    if p >= 2.0:
        return Certificate((0.5, 0.5, -(2.0 ** (-p))))
    if eps is None:
        raise DomainError("epsilon required for p<2")
    if eps == 2.0:
        raise DomainError(f"the p < 2 certificate needs eps in (0, 2), got {eps!r}")
    return _tangent_certificate(p, eps)


def _tangent_certificate(p: float, eps: float) -> Certificate:
    """The 1 < p < 2 certificate, tangent to the boundary payoff on the slice.

    The tangency point on the compact section, scaled to first root 1, has
    roots (1, |1 - w|, w) with w = eps / (1 - delta + eps/2) in (0, 2), in
    closed form from u = 1 - delta; its slice parameter is s* = w**(-p).
    There f' = a = (1 - w/2)**(p-1) and g' = b = sign(1 - w) |1 - w|**(p-1),
    so k = a/(1 + b), and c3 = f(s*) - k (s* + g) reduces to
    k w**(1-p) (b - 1)/2, which has none of the cancellation between terms
    of size s*.  b - 1 is expm1((p-1) log1p(-w)) for w < 1 (s* > 1) and
    -1 - (w - 1)**(p-1) from w = 1 on.  A subnormal w (eps below the
    smallest normal float) can overflow w**(1-p); there b - 1 is
    -(p-1) w to all digits, and c3 = -(p-1) k w**(2-p)/2.
    """
    w = eps / (1.0 - delta(p, eps) + 0.5 * eps)
    if w < 1.0:
        b_minus_1 = math.expm1((p - 1.0) * math.log1p(-w))
    else:
        b_minus_1 = -1.0 - (w - 1.0) ** (p - 1.0)
    kappa = (1.0 - 0.5 * w) ** (p - 1.0) / (2.0 + b_minus_1)
    if w < sys.float_info.min:
        c3 = -0.5 * kappa * (p - 1.0) * w ** (2.0 - p)
    else:
        c3 = 0.5 * kappa * w ** (1.0 - p) * b_minus_1
    return Certificate((kappa, kappa, c3), w)


def _section_root(w: float) -> float:
    """The payoff root tau* of the section point with roots (1, |1 - w|, w)."""
    return 1.0 - 0.5 * w if w <= 1.0 else 1.0 / w - 0.5


def _monotonicity_witness(s: np.ndarray, p: float) -> np.ndarray:
    """One-variable witness for the p >= 2 majorization: 1 - (s-1)^(p-1) - 2(1-s/2)^(p-1).

    Concave on [1, 2] and nonnegative at the endpoints, which forces the
    slice gap to grow monotonically away from its zero.  Identically 0 at
    p = 2, the equality case.
    """
    return 1.0 - (s - 1.0) ** (p - 1.0) - 2.0 * (1.0 - s / 2.0) ** (p - 1.0)


def _report_min(claim: str, s: np.ndarray, vals: np.ndarray, tol: float) -> VerificationReport:
    i = int(np.argmin(vals))
    return VerificationReport(claim, len(s), float(vals[i]), float(s[i]), bool(vals[i] >= -tol))


def _report_max(claim: str, s: np.ndarray, vals: np.ndarray, tol: float) -> VerificationReport:
    i = int(np.argmax(vals))
    return VerificationReport(claim, len(s), float(vals[i]), float(s[i]), bool(vals[i] <= tol))


def verify_appendix(p: float, eps: float | None, grid_n: int) -> list[VerificationReport]:
    """Scan every inequality the certificate majorization rests on.

    The slice s in [2**(-p), oo) is scanned whole on the compact section, at
    2 grid_n - 1 equally spaced payoff roots tau in [0, 1] (``section_profile``);
    every claim below is degree 1 or 0, so its sign there is its sign on the
    slice, and each report's ``at`` is a tau.

    Common to both regimes (U is the slice majorization gap):
      * ``majorant-slice-gap``       U = c . x - tau**p >= 0
      * ``x3-slope-nonpositive``     f(1+g') - f'(x1+x2) <= 0 (the route to a
        nonincreasing value along the x3 direction)

    p >= 2 only:
      * ``w-nonneg``, ``w-concave``, ``w-endpoints``  the one-variable
        witness is >= 0 on [1, 2], has nonpositive second differences, and
        matches its endpoint values 1 - 2^(2-p) and 0.

    1 < p < 2 only (requires eps):
      * ``denominator-positive``       1 + g' > 0 past the left endpoint
        (it vanishes exactly at tau = 0, so the endpoint is checked for
        equality instead of strict positivity)
      * ``slope-ratio-decreasing``     f'/(1+g') strictly decreasing
      * ``gap-derivative-sign``        k* - f'/(1+g') is negative before the
        tangency and positive after it, outside two grid steps of it;
        combined with the positive denominator this is the sign of U',
        forcing the single minimum U = 0 at the tangency tau*

    Failures never raise; each claim yields a report with its worst sample.
    """
    p = check_exponent(p)
    if grid_n < 3:
        raise DomainError(f"grid_n must be at least 3, got {grid_n}")
    ge2 = p >= 2.0
    cert = certificate(p, eps)

    tau = np.linspace(0.0, 1.0, 2 * grid_n - 1)
    x, f, fp, den = section_profile(tau, p)
    reports = [_report_min("majorant-slice-gap", tau, cert.value(x) - f, 1e-12)]

    if ge2:
        sw = np.linspace(1.0, 2.0, grid_n)
        wit = _monotonicity_witness(sw, p)
        reports.append(_report_min("w-nonneg", sw, wit, 1e-12))
        d2 = wit[2:] - 2.0 * wit[1:-1] + wit[:-2]
        tol_cc = 1e-9 * max(1.0, float(np.abs(wit).max()))
        reports.append(_report_max("w-concave", sw[1:-1], d2, tol_cc))
        end_devs = np.array([abs(wit[0] - (1.0 - 2.0 ** (2.0 - p))), abs(wit[-1])])
        reports.append(_report_max("w-endpoints", sw[[0, -1]], end_devs, 1e-12))
    else:
        j = int(np.argmin(den))
        # 1 + g' = 0 exactly at tau = 0; strict positivity applies beyond it
        den_ok = bool(den[1:].min() > 0.0 and abs(den[0]) <= 1e-9)
        reports.append(
            VerificationReport("denominator-positive", len(tau), float(den[j]), float(tau[j]), den_ok)
        )

        t_in = tau[1:]
        ratio = fp[1:] / den[1:]
        # each difference is reported at the left end of its step
        reports.append(_report_max("slope-ratio-decreasing", t_in, np.diff(ratio), 1e-12))

        tau_star = _section_root(cert.w)
        band = 2.0 * (tau[1] - tau[0])
        rhs = cert.c[0] - ratio
        # 0.0 - rhs, not -rhs: a root of rhs past the tangency reports +0.0
        viol = np.where(t_in < tau_star - band, rhs, np.where(t_in > tau_star + band, 0.0 - rhs, -np.inf))
        reports.append(_report_max("gap-derivative-sign", t_in, viol, 1e-12))

    slope = f * den - fp * (x[:, 0] + x[:, 1])
    reports.append(_report_max("x3-slope-nonpositive", tau, slope, 1e-12))
    return reports


def sharpness_check(p: float, eps: float | None = None) -> VerificationReport:
    """Verify the chord argument that makes the certificate sharp.

    The certificate equals the chord function (the linear interpolation of
    the boundary payoff) along a chord between two section points whose cone
    holds the query ray through (1, 1, eps^p); the value function lies
    between the two, so it equals the certificate there.  Both are affine
    along the chord, so their gap is too, and it is largest at an end: worst
    value is the larger |payoff - cert| of the two ends, at its chord
    parameter 0 or 1; pass requires it below 1e-10.

    1 < p < 2 (requires eps): the chord joins the tangency point, roots
    (1, |1 - w|, w) on the section, and its x1 <-> x2 mirror, where the
    chord function is constant.  Its midpoint lies on the ray of
    (1, 1, eps^p) exactly when (1 + |1 - w|**p)/2 (eps/w)**p = 1 (the slice
    form 2 eps^-p = s* + g(s*) at s* = w**-p), which must hold to 1e-12
    relative.

    p >= 2: the chord joins the antipodal point (2^-p, 2^-p, 1), payoff 0,
    to (1, 1, 0), payoff 1.  Its cone is all of the cone's plane x1 = x2, so
    the query ray meets it at every eps in (0, 2].
    """
    p = check_exponent(p)
    cert = certificate(p, eps)
    if p < 2.0:
        w = cert.w
        x, f, _, _ = section_profile(_section_root(w), p)
        ends, payoffs = np.array([x, x[[1, 0, 2]]]), np.array([f, f])
        on_ray = abs(0.5 * (1.0 + abs(1.0 - w) ** p) * (eps / w) ** p - 1.0) <= 1e-12
    else:
        ends, payoffs, _, _ = section_profile(np.array([0.0, 1.0]), p)
        on_ray = True
    gap = np.abs(payoffs - cert.value(ends))
    i = int(np.argmax(gap))
    passed = bool(gap[i] <= 1e-10 and on_ray)
    return VerificationReport("chord-equality", 2, float(gap[i]), float(i), passed)
