"""Self-contained numerical kernels.

Bracketing bisection and a dense simplex LP solver with Bland's rule.
Everything here is a pure function of its inputs and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    InfeasibleError,
    NonFiniteError,
    NoSignChangeError,
    UnboundedError,
)

Func = Callable[[float], float]

#: default absolute tolerance on the root argument
ROOT_TOL = 1e-12
#: default feasibility tolerance for the LP solver
LP_TOL = 1e-9


@dataclass(frozen=True)
class Bracket:
    """A sign-change interval [lo, hi] with an absolute argument tolerance."""

    lo: float
    hi: float
    tol: float = ROOT_TOL

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")
        if not (self.tol > 0.0):
            raise ValueError(f"bracket tolerance must be positive, got {self.tol}")


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


@dataclass(frozen=True)
class LpProblem:
    """Equality-constrained LP: maximize objective @ w, eq_matrix @ w = eq_rhs, w >= 0.

    The feasible set may be unbounded (a cone, for instance); the objective
    must then be bounded above on it, or the solver raises UnboundedError.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.eq_matrix, dtype=float)
        b = np.asarray(self.eq_rhs, dtype=float)
        if a.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("objective and rhs must be vectors, eq_matrix a matrix")
        k, n = a.shape
        if c.shape != (n,) or b.shape != (k,):
            raise ValueError(f"inconsistent LP shapes: A {a.shape}, c {c.shape}, b {b.shape}")
        if k > n:
            raise ValueError(f"more constraints ({k}) than variables ({n})")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "eq_rhs", b)


def _bland_iterate(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray, tol: float) -> None:
    """Run simplex pivots in place, maximizing ``cost``, Bland's rule throughout.

    ``tab`` is the k x (m+1) tableau (rhs in the last column); ``basis`` holds
    the basic variable index of each row.  Entering variable: lowest index
    whose reduced cost improves the objective.  Leaving variable: lowest
    basic index among the minimum-ratio rows.  Bland's rule makes cycling
    impossible, so the loop always terminates.
    """
    k, m1 = tab.shape
    m = m1 - 1
    # iteration cap is a safety net only; Bland cannot cycle
    for _ in range(200 * (m + k + 10)):
        red = cost[basis] @ tab[:, :m] - cost  # reduced costs z_j - c_j
        improving = np.nonzero(red < -tol)[0]
        if improving.size == 0:
            return
        entering = int(improving[0])  # Bland: lowest index
        col = tab[:, entering]
        rows = np.nonzero(col > tol)[0]
        if rows.size == 0:
            raise UnboundedError(f"unbounded LP: column {entering} improves the objective without limit")
        ratios = tab[rows, m] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + tol * (1.0 + abs(best))]
        leave = tied[np.argmin(basis[tied])]
        piv = tab[leave, entering]
        tab[leave, :] /= piv
        others = np.arange(k) != leave
        tab[others, :] -= np.outer(tab[others, entering], tab[leave, :])
        basis[leave] = entering
    raise UnboundedError("simplex iteration cap exceeded")  # pragma: no cover


def solve_lp(problem: LpProblem, tol: float = LP_TOL) -> tuple[np.ndarray, float]:
    """Solve the LP by a dense two-phase tableau simplex with Bland's rule.

    Returns ``(weights, value)`` at a vertex solution (at most k nonzero
    weights).  Raises :class:`InfeasibleError` when the constraints admit no
    nonnegative solution.  Rows are rescaled internally to unit max magnitude,
    which changes nothing mathematically but keeps pivots well conditioned
    when sample coordinates span many orders of magnitude.
    """
    a = problem.eq_matrix.copy()
    b = problem.eq_rhs.copy()
    c = problem.objective
    k, n = a.shape

    scale = np.maximum(np.abs(a).max(axis=1), 1e-300)
    a /= scale[:, None]
    b /= scale
    neg = b < 0.0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: artificial identity basis, maximize -sum(artificials)
    tab = np.hstack([a, np.eye(k), b[:, None]])
    basis = np.arange(n, n + k)
    cost1 = np.concatenate([np.zeros(n), -np.ones(k)])
    piv_tol = 1e-11
    _bland_iterate(tab, basis, cost1, piv_tol)
    infeas = tab[:, -1][basis >= n].sum() if (basis >= n).any() else 0.0
    if infeas > tol:
        raise InfeasibleError(f"phase-1 residual {infeas:.3e} exceeds tolerance {tol:.1e}")

    # drive leftover (degenerate) artificials out of the basis
    keep = np.ones(k, dtype=bool)
    for r in range(k):
        if basis[r] < n:
            continue
        row = tab[r, :n]
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > piv_tol:
            piv = tab[r, j]
            tab[r, :] /= piv
            others = np.arange(k) != r
            tab[others, :] -= np.outer(tab[others, j], tab[r, :])
            basis[r] = j
        else:
            keep[r] = False  # redundant constraint row
    tab = np.hstack([tab[keep][:, :n], tab[keep][:, -1:]])
    basis = basis[keep]

    _bland_iterate(tab, basis, c, piv_tol)

    weights = np.zeros(n)
    weights[basis] = tab[:, -1]
    return weights, float(c @ weights)
