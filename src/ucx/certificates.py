"""Linear tangent-plane certificates and the verification scans behind them.

A certificate is a linear function c . x that majorizes the boundary
payoff on the whole cone boundary, hence (being concave) majorizes the
extremal value function everywhere; evaluating it at the query point
(1, 1, eps^p) yields the sharp modulus.  ``verify_appendix`` re-derives
every inequality the majorization rests on by direct grid scans of the
compact section of the cone (largest p-th root 1, ``section_profile``),
where every quantity is O(1) at every eps.  The modulus is attained by an
explicit two-atom pair (Hanner 1956 for p < 2, Clarkson 1936 for p >= 2):
``midpoint_contraction`` checks it against the definition of delta, and
``sharpness_check`` verifies the chord between its two atoms' moment
vectors, along which the certificates are tight at the query point; the
chord's gap to the certificate is affine, so it checks the two ends.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .domain import LambdaPoint, check_eps, check_exponent, section_profile
from .errors import DomainError
from .moduli import _log_mean_power, delta

#: relative tolerance of the extremal pair's unit modulus against delta and
#: of its unit separation against eps (``midpoint_contraction``); below
#: p = 1.0002 it is 2e-15 / (p - 1) instead, ``delta``'s accuracy there
PAIR_RTOL = 1e-11


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

        # the payoff root of the tangency point, roots (1, |1 - w|, w)
        tau_star = 1.0 - 0.5 * cert.w if cert.w <= 1.0 else 1.0 / cert.w - 0.5
        band = 2.0 * (tau[1] - tau[0])
        rhs = cert.c[0] - ratio
        # 0.0 - rhs, not -rhs: a root of rhs past the tangency reports +0.0
        viol = np.where(t_in < tau_star - band, rhs, np.where(t_in > tau_star + band, 0.0 - rhs, -np.inf))
        reports.append(_report_max("gap-derivative-sign", t_in, viol, 1e-12))

    slope = f * den - fp * (x[:, 0] + x[:, 1])
    reports.append(_report_max("x3-slope-nonpositive", tau, slope, 1e-12))
    return reports


def _extremal_pair(p: float, eps: float, d: float) -> tuple[np.ndarray, np.ndarray]:
    """f's and g's atom values, times 2, of the two-atom pair (weights 1/2) attaining delta_p(eps) = d.

    With u = 1 - d and a = eps/2: for 1 < p < 2 Hanner's (1956)
    f = (u + a, u - a), g = (u - a, u + a); for p >= 2 Clarkson's (1936)
    f = (s, t), g = (s, -t) with s = 2**(1/p) u and t = 2**(1/p) a.  Both
    have ||f - g|| = eps and ||(f + g)/2|| = u, and ||f||^p = ||g||^p = 1
    exactly when d is the sharp constant.  The values are doubled so that
    none underflows at eps = 5e-324.
    """
    u2 = 2.0 * (1.0 - d)
    if p < 2.0:
        return np.array([u2 + eps, u2 - eps]), np.array([u2 - eps, u2 + eps])
    scale = 2.0 ** (1.0 / p)
    return scale * np.array([u2, eps]), scale * np.array([u2, -eps])


def midpoint_contraction(p: float, eps: float) -> VerificationReport:
    """The extremal pair, scaled to unit norm, attains delta in its midpoint-contraction definition.

    delta_p(eps) is the least 1 - ||(f + g)/2|| over ||f|| = ||g|| = 1 with
    ||f - g|| >= eps.  The pair passes when f and g take the same values up
    to order and sign (so ||f|| == ||g||), when its unit separation
    eps/||f|| is at least eps, and when its unit modulus 1 - u/||f|| meets
    delta, both within ``PAIR_RTOL`` relative.  The modulus is
    -expm1(log u - log ||f||), free of cancellation as eps -> 0: for p < 2,
    p log ||f|| is the tangency equation's left side, clamped to >= p log u;
    for p >= 2, ||f||^p = u**p + a**p, whose log is taken as
    max(x, y) + log1p(exp(-|x - y|)) with x = p log u and y = p log a, since
    u**p itself would carry p times the rounding of u.  Worst value is the
    unit midpoint norm u/||f||, at the unit separation, over the 2 atoms.
    """
    p, eps = check_exponent(p), check_eps(eps, allow_zero=False)
    d = delta(p, eps)
    f, g = _extremal_pair(p, eps, d)
    log_u = -math.inf if d == 1.0 else math.log1p(-d)
    if p < 2.0:
        log_norm = max(_log_mean_power(log_u, 0.5 * eps, p) / p, log_u)
    else:
        x, y = p * log_u, (p * math.log(0.5 * eps) if 0.5 * eps > 0.0 else -math.inf)
        log_norm = (max(x, y) + math.log1p(math.exp(-abs(x - y)))) / p
    rtol, separation = max(PAIR_RTOL, 2e-15 / (p - 1.0)), eps * math.exp(-log_norm)
    passed = bool(
        np.array_equal(np.sort(np.abs(f)), np.sort(np.abs(g)))
        and separation >= eps * (1.0 - rtol)
        and abs(-math.expm1(log_u - log_norm) - d) <= max(rtol * d, sys.float_info.min)
    )
    return VerificationReport("midpoint-contraction", 2, math.exp(log_u - log_norm), separation, passed)


def sharpness_check(p: float, eps: float | None = None) -> VerificationReport:
    """Verify the chord argument that makes the certificate sharp.

    The certificate equals the chord function (the linear interpolation of
    the boundary payoff) along the chord between the moment vectors of the
    extremal pair's two atoms, each scaled to largest root 1, whose cone
    holds the query ray through (1, 1, eps^p) (the pair's moments lie on it
    when ||f|| = 1, which ``midpoint_contraction`` checks); the value
    function lies between the two, so it equals the certificate there.  Both
    are affine along the chord, so their gap is too, and it is largest at an
    end: worst value is the larger |payoff - cert| of the two ends, at its
    chord parameter 0 or 1; pass requires it below 1e-10.

    1 < p < 2 (requires eps): the ends are the tangency point, roots
    (1, |1 - w|, w), and its x1 <-> x2 mirror.  p >= 2: they are (1, 1, 0),
    payoff 1, and the antipodal (2^-p, 2^-p, 1), payoff 0, at every eps, so
    the pair is taken at eps = 1; their cone is the whole plane x1 = x2.
    """
    p = check_exponent(p)
    cert = certificate(p, eps)
    e = eps if p < 2.0 else 1.0
    f, g = _extremal_pair(p, e, delta(p, e))
    roots = np.abs([f, g, f - g, 0.5 * (f + g)])
    roots /= roots[:3].max(axis=0)
    gap = np.abs(roots[3] ** p - cert.value((roots[:3] ** p).T))
    i = int(np.argmax(gap))
    return VerificationReport("chord-equality", 2, float(gap[i]), float(i), bool(gap[i] <= 1e-10))
