"""Affine tangent-plane certificates and the verification scans behind them.

A certificate is an affine function c0 + c . x that majorizes the boundary
payoff on the whole cone boundary, hence (being concave) majorizes the
extremal value function everywhere; evaluating it at the query point
(1, 1, eps^p) yields the sharp modulus.  ``verify_appendix`` re-derives
every inequality the majorization rests on by direct grid scans, and
``sharpness_check`` verifies the chord arguments showing the certificates
are tight at the query point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    LambdaPoint,
    boundary_profile,
    check_exponent,
    profile_arrays,
    slice_lower_bound,
    slice_point,
)
from .errors import DomainError, OutOfRangeError, WrongRegimeError
from .moduli import solve_s_star


@dataclass(frozen=True)
class Certificate:
    """Affine majorant of the boundary data, linear by degree-1 homogeneity.

    GE2 regime (p >= 2): c = (1/2, 1/2, -2**(-p)).
    LT2 regime (1 < p < 2): c = (k, k, f(s*) - 2 eps^(-p) k) with
    k = f'(s*) / (1 + g'(s*)).  At eps = 2 exactly the ratio degenerates to
    0/0 (s* sits at the left endpoint of the slice) and the zero certificate
    is returned; it still gives the correct value 0 at (1, 1, 2^p).
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
    """The 1 < p < 2 certificate built from the slice parameter s*."""
    p = check_exponent(p)
    if not (p < 2.0):
        raise WrongRegimeError(f"LT2 certificate requires 1 < p < 2, got p={p}")
    if not (0.0 < eps <= 2.0):
        raise DomainError(f"eps must lie in (0, 2], got {eps!r}")
    if eps == 2.0:
        return Certificate(0.0, (0.0, 0.0, 0.0), "LT2", p, eps, slice_lower_bound(p))
    sol = solve_s_star(p, eps)
    prof = boundary_profile(sol.s_star, p)
    kappa = prof.f_prime / (1.0 + prof.g_prime)
    c3 = prof.f - 2.0 * eps ** (-p) * kappa
    return Certificate(0.0, (kappa, kappa, c3), "LT2", p, eps, sol.s_star)


def majorization_gap(s: float, cert: Certificate) -> float:
    """Certificate minus boundary payoff on the slice: value at (s, g(s), 1) - f(s)."""
    prof = boundary_profile(s, cert.p)
    return cert.value(LambdaPoint(prof.s, prof.g, 1.0)) - prof.f


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


def _slice_scan_grid(p: float, grid_n: int, s_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Main slice grid [2^-p, s_max] plus the 1/s-substituted tail beyond it."""
    smin = slice_lower_bound(p)
    s_main = np.linspace(smin, s_max, grid_n)
    u = np.linspace(1.0 / s_max, 1.0 / (s_max * grid_n), grid_n)
    s_tail = 1.0 / u[1:]  # drop the duplicate of s_max
    return s_main, s_tail


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
    s_max: float = 100.0,
) -> list[VerificationReport]:
    """Scan every inequality the certificate majorization rests on.

    Common to both regimes (U(s) is the slice majorization gap):
      * ``majorant-slice-gap``       U >= 0 on [2^-p, s_max]
      * ``majorant-slice-gap-tail``  U >= 0 under s -> 1/s beyond s_max
      * ``x3-slope-nonpositive``     f(1+g') - f'(s+g) <= 0 (the route to a
        nonincreasing value along the x3 direction)

    p >= 2 only:
      * ``w-nonneg``, ``w-concave``, ``w-endpoints``  the one-variable
        witness is >= 0 on [1, 2], has nonpositive second differences, and
        matches its endpoint values 1 - 2^(2-p) and 0.

    1 < p < 2 only (requires eps):
      * ``denominator-positive``       1 + g' > 0 past the left endpoint
        (it vanishes exactly at s = 2^-p, so the endpoint is checked for
        equality instead of strict positivity)
      * ``slope-ratio-decreasing``     f'/(1+g') strictly decreasing
      * ``gap-derivative-sign``        k* - f'/(1+g') is negative before s*
        and positive after it; combined with the positive denominator this
        is the sign of U', forcing the single minimum U(s*) = 0

    Failures never raise; each claim yields a report with its worst sample.
    """
    p = check_exponent(p)
    if grid_n < 3:
        raise DomainError(f"grid_n must be at least 3, got {grid_n}")
    if not s_max > 1.0:
        raise DomainError(f"s_max must exceed 1, got {s_max!r}")
    ge2 = p >= 2.0
    if not ge2 and eps is None:
        raise DomainError("eps is required for 1 < p < 2")
    cert = certificate_ge2(p) if ge2 else certificate_lt2(p, float(eps))
    if not ge2 and cert.s_star is not None:
        s_max = max(s_max, 4.0 * cert.s_star)

    s_main, s_tail = _slice_scan_grid(p, grid_n, s_max)
    reports: list[VerificationReport] = []
    coeffs = np.asarray(cert.c)

    f_m, g_m, fp_m, gp_m = profile_arrays(s_main, p)
    f_t, g_t, fp_t, gp_t = profile_arrays(s_tail, p)
    u_main = cert.c0 + np.column_stack([s_main, g_m, np.ones_like(s_main)]) @ coeffs - f_m
    reports.append(_report_min("majorant-slice-gap", s_main, u_main, 1e-12))

    # tail under s -> 1/s, evaluated at the ray-rescaled points (1, g/s, 1/s):
    # the gap is degree-1 homogeneous, and the normalized form avoids the
    # catastrophic cancellation of assembling U from O(s)-sized terms
    w = 1.0 / s_tail
    wu = w ** (1.0 / p)
    g_norm = (1.0 - wu) ** p
    f_norm = (1.0 - 0.5 * wu) ** p
    u_tail = cert.c0 * w + np.column_stack([np.ones_like(w), g_norm, w]) @ coeffs - f_norm
    reports.append(_report_min("majorant-slice-gap-tail", s_tail, u_tail, 1e-12))

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
        s_star = float(cert.s_star)
        kappa_star = float(cert.c[0])
        den = np.concatenate([1.0 + gp_m, 1.0 + gp_t])
        s_all = np.concatenate([s_main, s_tail])
        j = int(np.argmin(den))
        # 1 + g' = 0 exactly at s = 2^-p; strict positivity applies beyond it
        den_ok = bool(den[1:].min() > 0.0 and abs(den[0]) <= 1e-9)
        reports.append(
            VerificationReport("denominator-positive", len(s_all), float(den[j]), float(s_all[j]), den_ok)
        )

        s_in = s_all[1:]
        ratio = np.concatenate([fp_m, fp_t])[1:] / den[1:]
        diffs = np.diff(ratio)
        i = int(np.argmax(diffs))
        reports.append(
            VerificationReport(
                "slope-ratio-decreasing", len(s_in), float(diffs[i]), float(s_in[i]),
                bool(diffs[i] < 1e-12),
            )
        )

        band = 2.0 * (s_max - s_main[0]) / (grid_n - 1)
        rhs = kappa_star - ratio
        viol = np.where(s_in < s_star - band, rhs, np.where(s_in > s_star + band, -rhs, -np.inf))
        i = int(np.argmax(viol))
        reports.append(
            VerificationReport(
                "gap-derivative-sign", len(s_in), float(viol[i]), float(s_in[i]),
                bool(viol[i] <= 1e-12),
            )
        )

    slope = np.concatenate(
        [
            f_m * (1.0 + gp_m) - fp_m * (s_main + g_m),
            f_t * (1.0 + gp_t) - fp_t * (s_tail + g_t),
        ]
    )
    s_all = np.concatenate([s_main, s_tail])
    reports.append(_report_max("x3-slope-nonpositive", s_all, slope, 1e-12))
    return reports


def sharpness_check(
    p: float,
    eps: float,
    s_probe: float = 1e3,
    n_chord: int = 1001,
) -> VerificationReport:
    """Verify the chord argument that makes the certificate sharp.

    1 < p < 2: the certificate coincides with the affine chord function on
    the chord between (s*, g(s*), 1) and its mirror, and the diagonal query
    point sits at the chord midpoint.  Worst value is the max |L - cert|
    over ``n_chord`` chord points; pass requires it below 1e-10 and the
    midpoint to hit (eps^-p, eps^-p, 1) to 1e-12.

    p >= 2: equality holds only in the limit of long chords, so the gap is
    measured on the chord from (2^-p, 2^-p, 1) to (s_probe, g(s_probe), 1)
    capped at first coordinate eps^-p (the diagonal sweep target).  The gap
    grows affinely along the chord; pass requires the scanned maximum to
    match the predicted cap value and the certificate to touch its anchors.
    Rerun with a larger ``s_probe`` to watch the gap shrink.
    """
    p = check_exponent(p)
    if n_chord < 2:
        raise DomainError(f"n_chord must be at least 2, got {n_chord}")
    t = np.linspace(0.0, 1.0, n_chord)

    if p < 2.0:
        cert = certificate_lt2(p, eps)
        a = slice_point(cert.s_star, p).as_array()
        d = slice_point(cert.s_star, p, swapped=True).as_array()
        pts = np.outer(1.0 - t, a) + np.outer(t, d)
        level = boundary_profile(cert.s_star, p).f  # chord function is constant
        gap = np.abs(level - cert.value(pts))
        i = int(np.argmax(gap))
        mid_miss = abs(0.5 * (a[0] + d[0]) - eps ** (-p))
        passed = bool(gap[i] <= 1e-10 and mid_miss <= 1e-12)
        return VerificationReport("chord-equality", n_chord, float(gap[i]), float(pts[i, 0]), passed)

    cert = certificate_ge2(p)
    if not (s_probe > slice_lower_bound(p)):
        raise DomainError(f"s_probe must exceed 2**(-p), got {s_probe!r}")
    smin = slice_lower_bound(p)
    a = np.array([smin, smin, 1.0])
    d = slice_point(s_probe, p).as_array()
    target = eps ** (-p)
    t_cap = min(1.0, max(0.0, (target - smin) / (s_probe - smin)))
    tt = t * t_cap
    pts = np.outer(1.0 - tt, a) + np.outer(tt, d)
    f_probe = boundary_profile(s_probe, p).f
    chord = tt * f_probe  # linear interpolation from B(A) = 0
    gap = np.abs(chord - cert.value(pts))
    i = int(np.argmax(gap))
    predicted = t_cap * majorization_gap(s_probe, cert)
    anchors_touch = (
        abs(cert.value(LambdaPoint(1.0, 1.0, 2.0**p))) <= 1e-10
        and abs(cert.value(LambdaPoint(smin, smin, 1.0))) <= 1e-10
    )
    structure = abs(gap[i] - predicted) <= 1e-9 * (1.0 + abs(predicted))
    return VerificationReport(
        "chord-gap", n_chord, float(gap[i]), float(pts[i, 0]), bool(anchors_touch and structure)
    )
