"""Affine tangent-plane certificates and the verification scans behind them.

A certificate is an affine function c0 + c . x that majorizes the boundary
payoff on the whole cone boundary, hence (being concave) majorizes the
extremal value function everywhere; evaluating it at the query point
(1, 1, eps^p) yields the sharp modulus.  ``verify_appendix`` re-derives
every inequality the majorization rests on by direct grid scans, and
``sharpness_check`` verifies the chord argument showing the certificates
are tight at the query point.  Both scan the compact section of the cone
(largest p-th root 1), where every quantity is O(1) at every eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    LambdaPoint,
    boundary_profile,
    check_exponent,
    section_parameter,
    section_profile,
)
from .errors import DomainError, OutOfRangeError, WrongRegimeError
from .moduli import solve_s_star


@dataclass(frozen=True)
class Certificate:
    """Affine majorant of the boundary data, linear by degree-1 homogeneity.

    GE2 regime (p >= 2): c = (1/2, 1/2, -2**(-p)).
    LT2 regime (1 < p < 2, eps < 2): c = (k, k, f(s*) - 2 eps^(-p) k) with
    k = f'(s*) / (1 + g'(s*)).  As eps -> 2, s* -> 2**(-p), where 1 + g'
    vanishes and k grows without bound, so no affine certificate exists at
    eps = 2.
    """

    c0: float
    c: tuple[float, float, float]
    regime: str
    p: float
    eps: float | None = None
    s_star: float | None = None

    def value(self, x):
        """Evaluate at a LambdaPoint, a length-3 vector, or an (N, 3) array."""
        arr = x.as_array() if isinstance(x, LambdaPoint) else np.asarray(x, dtype=float)
        v = self.c0 + arr @ np.asarray(self.c, dtype=float)
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


def certificate_ge2(p: float) -> Certificate:
    """The p >= 2 certificate (x1 + x2)/2 - x3/2^p."""
    p = check_exponent(p)
    if p < 2.0:
        raise WrongRegimeError(f"GE2 certificate requires p >= 2, got p={p}")
    return Certificate(0.0, (0.5, 0.5, -(2.0 ** (-p))), "GE2", p)


def certificate_lt2(p: float, eps: float) -> Certificate:
    """The 1 < p < 2 certificate built from the slice parameter s*.

    For s* > 1 it is taken at the tangency point on the compact section,
    with roots (1, 1 - w, w), w = s***(-1/p): there f' = a = (1 - w/2)**(p-1)
    and g' = b = (1 - w)**(p-1), so k = a/(1 + b), and c3 = f(s*) - k (s* + g)
    reduces to k w**(1-p) (b - 1)/2 with b - 1 = expm1((p-1) log1p(-w)),
    which has none of the cancellation between terms of size s*.
    """
    p = check_exponent(p)
    if not (p < 2.0):
        raise WrongRegimeError(f"LT2 certificate requires 1 < p < 2, got p={p}")
    if not (0.0 < eps < 2.0):
        raise DomainError(f"the p < 2 certificate needs eps in (0, 2), got {eps!r}")
    s_star = solve_s_star(p, eps).s_star
    if s_star > 1.0:
        w = s_star ** (-1.0 / p)
        b_minus_1 = math.expm1((p - 1.0) * math.log1p(-w))
        kappa = (1.0 - 0.5 * w) ** (p - 1.0) / (2.0 + b_minus_1)
        c3 = 0.5 * kappa * w ** (1.0 - p) * b_minus_1
    else:
        prof = boundary_profile(s_star, p)
        kappa = prof.f_prime / (1.0 + prof.g_prime)
        c3 = prof.f - 2.0 * eps ** (-p) * kappa
    return Certificate(0.0, (kappa, kappa, c3), "LT2", p, eps, s_star)


def monotonicity_witness(s, p: float):
    """One-variable witness for the p >= 2 majorization: 1 - (s-1)^(p-1) - 2(1-s/2)^(p-1).

    Concave on [1, 2] and nonnegative at the endpoints, which forces the
    slice gap to grow monotonically away from its zero.  Identically 0 at
    p = 2, the equality case.  ``s`` may be a float or an array; the result
    has its shape.
    """
    p = check_exponent(p)
    if p < 2.0:
        raise WrongRegimeError(f"witness applies for p >= 2, got p={p}")
    s = np.asarray(s, dtype=float)
    if not np.all((1.0 <= s) & (s <= 2.0)):
        raise OutOfRangeError(f"witness domain is [1, 2], got s={s!r}")
    w = 1.0 - (s - 1.0) ** (p - 1.0) - 2.0 * (1.0 - s / 2.0) ** (p - 1.0)
    return float(w) if w.ndim == 0 else w


def _report_min(claim: str, s: np.ndarray, vals: np.ndarray, tol: float) -> VerificationReport:
    i = int(np.argmin(vals))
    return VerificationReport(claim, len(s), float(vals[i]), float(s[i]), bool(vals[i] >= -tol))


def _report_max(claim: str, s: np.ndarray, vals: np.ndarray, tol: float) -> VerificationReport:
    i = int(np.argmax(vals))
    return VerificationReport(claim, len(s), float(vals[i]), float(s[i]), bool(vals[i] <= tol))


def verify_appendix(
    p: float,
    eps: float | None = None,
    grid_n: int = 10001,
) -> list[VerificationReport]:
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
        forcing the single minimum U = 0 at s*

    Failures never raise; each claim yields a report with its worst sample.
    """
    p = check_exponent(p)
    if grid_n < 3:
        raise DomainError(f"grid_n must be at least 3, got {grid_n}")
    ge2 = p >= 2.0
    if not ge2 and eps is None:
        raise DomainError("eps is required for 1 < p < 2")
    cert = certificate_ge2(p) if ge2 else certificate_lt2(p, float(eps))

    tau = np.linspace(0.0, 1.0, 2 * grid_n - 1)
    x, f, fp, gp = section_profile(tau, p)
    reports = [_report_min("majorant-slice-gap", tau, cert.value(x) - f, 1e-12)]

    if ge2:
        sw = np.linspace(1.0, 2.0, grid_n)
        wit = monotonicity_witness(sw, p)
        reports.append(_report_min("w-nonneg", sw, wit, 1e-12))
        d2 = wit[2:] - 2.0 * wit[1:-1] + wit[:-2]
        tol_cc = 1e-9 * max(1.0, float(np.abs(wit).max()))
        reports.append(_report_max("w-concave", sw[1:-1], d2, tol_cc))
        end_devs = np.array([abs(wit[0] - (1.0 - 2.0 ** (2.0 - p))), abs(wit[-1])])
        i = int(np.argmax(end_devs))
        reports.append(
            VerificationReport(
                "w-endpoints", 2, float(end_devs[i]), float(sw[0] if i == 0 else sw[-1]),
                bool(end_devs[i] <= 1e-12),
            )
        )
    else:
        den = 1.0 + gp
        j = int(np.argmin(den))
        # 1 + g' = 0 exactly at tau = 0; strict positivity applies beyond it
        den_ok = bool(den[1:].min() > 0.0 and abs(den[0]) <= 1e-9)
        reports.append(
            VerificationReport("denominator-positive", len(tau), float(den[j]), float(tau[j]), den_ok)
        )

        t_in = tau[1:]
        ratio = fp[1:] / den[1:]
        diffs = np.diff(ratio)
        i = int(np.argmax(diffs))
        reports.append(
            VerificationReport(
                "slope-ratio-decreasing", len(t_in), float(diffs[i]), float(t_in[i]),
                bool(diffs[i] < 1e-12),
            )
        )

        tau_star = section_parameter(float(cert.s_star), p)
        band = 2.0 * (tau[1] - tau[0])
        rhs = cert.c[0] - ratio
        viol = np.where(t_in < tau_star - band, rhs, np.where(t_in > tau_star + band, -rhs, -np.inf))
        i = int(np.argmax(viol))
        reports.append(
            VerificationReport(
                "gap-derivative-sign", len(t_in), float(viol[i]), float(t_in[i]),
                bool(viol[i] <= 1e-12),
            )
        )

    slope = f * (1.0 + gp) - fp * (x[:, 0] + x[:, 1])
    reports.append(_report_max("x3-slope-nonpositive", tau, slope, 1e-12))
    return reports


def sharpness_check(p: float, eps: float | None = None, n_chord: int = 1001) -> VerificationReport:
    """Verify the chord argument that makes the certificate sharp.

    The certificate equals the chord function (the linear interpolation of
    the boundary payoff) along a chord between two section points whose cone
    holds the query ray through (1, 1, eps^p); the value function lies
    between the two, so it equals the certificate there.  Worst value is the
    max |chord - cert| over ``n_chord`` chord points, at its chord parameter;
    pass requires it below 1e-10.

    1 < p < 2 (requires eps): the chord joins the tangency point of s* and
    its x1 <-> x2 mirror, where the chord function is constant.  Its midpoint
    lies on the query ray exactly when 2 eps^-p = s* + g(s*), which must
    hold to 1e-12 relative.

    p >= 2: the chord joins the antipodal point (2^-p, 2^-p, 1), payoff 0,
    to (1, 1, 0), payoff 1.  Its cone is all of the cone's plane x1 = x2, so
    the query ray meets it at every eps, and eps is not used.
    """
    p = check_exponent(p)
    if n_chord < 2:
        raise DomainError(f"n_chord must be at least 2, got {n_chord}")
    t = np.linspace(0.0, 1.0, n_chord)
    if p < 2.0:
        if eps is None:
            raise DomainError("eps is required for 1 < p < 2")
        cert = certificate_lt2(p, eps)
        x, f, _, _ = section_profile(section_parameter(cert.s_star, p), p)
        ends, payoffs = np.array([x, x[[1, 0, 2]]]), np.array([f, f])
        prof = boundary_profile(cert.s_star, p)
        target = 2.0 * eps ** (-p)
        on_ray = abs(prof.s + prof.g - target) <= 1e-12 * target
    else:
        cert = certificate_ge2(p)
        ends, payoffs, _, _ = section_profile(np.array([0.0, 1.0]), p)
        on_ray = True
    pts = np.outer(1.0 - t, ends[0]) + np.outer(t, ends[1])
    gap = np.abs((1.0 - t) * payoffs[0] + t * payoffs[1] - cert.value(pts))
    i = int(np.argmax(gap))
    passed = bool(gap[i] <= 1e-10 and on_ray)
    return VerificationReport("chord-equality", n_chord, float(gap[i]), float(t[i]), passed)
