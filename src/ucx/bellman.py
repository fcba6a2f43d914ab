"""The extremal value function from below: step pairs and derivative-free search.

A step pair is a weighted list of atoms (a_j, f_j, g_j) standing for a
piecewise-constant pair on a unit-mass interval; its averaged moments land
in the cone and its payoff is a certified lower bound on the value function
there.  ``brute_force_bellman`` pushes that lower bound up by seeded random
restarts plus coordinate pattern search; ``hanner_gap`` and ``witness_test``
check the classical two-function inequality and the midpoint-contraction
definition of the modulus against the computed sharp constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import VerificationReport
from .domain import BoundaryFace, LambdaPoint, check_exponent, check_theta, contains
from .errors import DomainError, InfeasibleStartError, PartitionMismatchError
from .moduli import delta

#: weights must sum to one within this slack
WEIGHT_TOL = 1e-12
#: atoms per pair in the optimizer: Caratheodory bound n+1 in moment dimension 3
ATOM_COUNT = 4


@dataclass(frozen=True)
class StepFunction:
    """One marginal of a step pair: atoms of (weight, value)."""

    atoms: tuple[tuple[float, float], ...]

    @property
    def weights(self) -> np.ndarray:
        return np.array([a for a, _ in self.atoms])

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.atoms])


@dataclass(frozen=True)
class StepPair:
    """Weighted atoms (a_j, f_j, g_j); weights are nonnegative with unit sum."""

    atoms: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.atoms) < 1:
            raise DomainError("a step pair needs at least one atom")
        w = self.weights
        if (w < 0.0).any():
            raise DomainError(f"negative atom weight in {self.atoms!r}")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise DomainError(f"atom weights sum to {w.sum()!r}, expected 1")

    @property
    def weights(self) -> np.ndarray:
        return np.array([a for a, _, _ in self.atoms])

    @property
    def f_values(self) -> np.ndarray:
        return np.array([f for _, f, _ in self.atoms])

    @property
    def g_values(self) -> np.ndarray:
        return np.array([g for _, _, g in self.atoms])

    def merge(self, other: "StepPair", weight: float) -> "StepPair":
        """Concatenate on subintervals of mass ``weight`` and 1 - ``weight``.

        Moments and payoff are affine under merging, which is exactly the
        concatenation step behind concavity of the value function.
        """
        if not (0.0 <= weight <= 1.0):
            raise DomainError(f"merge weight must lie in [0, 1], got {weight!r}")
        mine = tuple((weight * a, f, g) for a, f, g in self.atoms)
        theirs = tuple(((1.0 - weight) * a, f, g) for a, f, g in other.atoms)
        return StepPair(mine + theirs)

    def scaled_values(self, c: float) -> "StepPair":
        """Scale both functions pointwise; moments and payoff scale by |c|^p."""
        return StepPair(tuple((a, c * f, c * g) for a, f, g in self.atoms))


def moment(pair: StepPair, p: float) -> LambdaPoint:
    """Averaged moment vector (|f|^p, |g|^p, |f-g|^p); always lands in the cone."""
    p = check_exponent(p)
    a, f, g = pair.weights, pair.f_values, pair.g_values
    return LambdaPoint(
        float(a @ np.abs(f) ** p),
        float(a @ np.abs(g) ** p),
        float(a @ np.abs(f - g) ** p),
    )


def payoff(pair: StepPair, p: float, theta: float = 0.5) -> float:
    """Averaged |theta f + (1-theta) g|^p."""
    p = check_exponent(p)
    theta = check_theta(theta)
    a, f, g = pair.weights, pair.f_values, pair.g_values
    return float(a @ np.abs(theta * f + (1.0 - theta) * g) ** p)


@dataclass(frozen=True)
class SearchBudget:
    """Knobs for the randomized search; identical budgets reproduce bit-for-bit.

    Restart streams derive from PCG64 seeded with (seed, restart index), so
    results do not depend on evaluation order.  ``penalty`` is the quadratic
    constraint weight.
    """

    restarts: int = 64
    local_steps: int = 1200
    seed: int = 0
    penalty: float = 1e4

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.local_steps < 1 or self.penalty <= 0.0:
            raise DomainError(f"budget fields must be positive: {self}")


@dataclass(frozen=True)
class BruteForceResult:
    """Best witness found; ``value`` is its payoff after the exact rescale and
    ``residual`` the remaining distance of its moments from the query point."""

    value: float
    witness: StepPair
    residual: float


def _moments_and_payoff(w, f, g, p, theta):
    s = np.maximum(w.sum(axis=1, keepdims=True), 1e-300)
    a = w / s
    m = np.stack(
        [
            (a * np.abs(f) ** p).sum(axis=1),
            (a * np.abs(g) ** p).sum(axis=1),
            (a * np.abs(f - g) ** p).sum(axis=1),
        ],
        axis=1,
    )
    pay = (a * np.abs(theta * f + (1.0 - theta) * g) ** p).sum(axis=1)
    return m, pay


def _coordinate_search(w, f, g, score_fn, steps, h_weight, h_value):
    """Cyclic pattern search over the 12 coordinates, vectorized over restarts.

    Tries +/- the per-coordinate step, keeps strict improvements, expands
    the step on success and shrinks it otherwise.  Deterministic given the
    starting states.
    """
    n = w.shape[0]
    h = np.empty((n, 3 * ATOM_COUNT))
    h[:, :ATOM_COUNT] = h_weight
    h[:, ATOM_COUNT:] = h_value
    blocks = (w, f, g)
    cur = score_fn(w, f, g)
    for it in range(steps):
        c = it % (3 * ATOM_COUNT)
        b, j = divmod(c, ATOM_COUNT)
        base = blocks[b]
        col = base[:, j].copy()
        best = cur
        best_col = col
        for sign in (1.0, -1.0):
            trial = col + sign * h[:, c]
            if b == 0:
                trial = np.maximum(trial, 0.0)  # weights stay nonnegative
            base[:, j] = trial
            val = score_fn(w, f, g)
            better = val > best
            best = np.where(better, val, best)
            best_col = np.where(better, trial, best_col)
        improved = best > cur
        base[:, j] = np.where(improved, best_col, col)
        cur = np.where(improved, best, cur)
        h[:, c] *= np.where(improved, 1.6, 0.5)
        h[:, c] = np.maximum(h[:, c], 1e-14)


def brute_force_bellman(
    x: LambdaPoint,
    p: float,
    theta: float = 0.5,
    budget: SearchBudget | None = None,
) -> BruteForceResult:
    """Maximize the payoff over 4-atom step pairs with moments pinned at ``x``.

    Each restart starts from a random pair whose atoms mix independent,
    collinear, antipodal, and mirror-image draws (queries with symmetric
    moments have swap-symmetric extremizers, so mirrored pairs need to be
    reachable).  The penalized coordinate search then runs in two stages,
    a loose penalty that lets the payoff move along the constraint
    manifold and then the full penalty, followed by a pure feasibility
    polish and an exact rescale onto the largest target coordinate using
    degree-1 homogeneity.  Restarts are ranked by penalized score so an
    infeasible straggler cannot outrank a polished witness; the reported
    value is a lower bound on the value function up to the reported
    residual.
    """
    p = check_exponent(p)
    theta = check_theta(theta)
    budget = budget if budget is not None else SearchBudget()
    if contains(x, p) is BoundaryFace.OUTSIDE:
        raise InfeasibleStartError(f"{x} lies outside the cone")
    target = x.as_array()
    if target.max() <= 0.0:
        flat = StepPair(tuple((1.0 / ATOM_COUNT, 0.0, 0.0) for _ in range(ATOM_COUNT)))
        return BruteForceResult(0.0, flat, 0.0)

    n = budget.restarts
    v0 = target.max() ** (1.0 / p)
    w = np.empty((n, ATOM_COUNT))
    f = np.empty((n, ATOM_COUNT))
    g = np.empty((n, ATOM_COUNT))
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((budget.seed, i))))
        w[i] = rng.uniform(0.2, 1.0, ATOM_COUNT)
        f[i] = rng.uniform(-2.0, 2.0, ATOM_COUNT) * v0
        style = rng.integers(0, 4, ATOM_COUNT)
        indep = rng.uniform(-2.0, 2.0, ATOM_COUNT) * v0
        shift = f[i] - rng.uniform(-1.0, 1.0, ATOM_COUNT) * v0
        g[i] = np.where(style <= 1, indep, np.where(style == 2, shift, -f[i]))
        if rng.random() < 0.5:  # mirror atoms pairwise: (f,g) and (g,f)
            f[i, 1], g[i, 1] = g[i, 0], f[i, 0]
            f[i, 3], g[i, 3] = g[i, 2], f[i, 2]

    def penalized(pen: float):
        def score(wa, fa, ga):
            m, pay = _moments_and_payoff(wa, fa, ga, p, theta)
            return pay - pen * ((m - target) ** 2).sum(axis=1)

        return score

    def feasibility(wa, fa, ga):
        m, _ = _moments_and_payoff(wa, fa, ga, p, theta)
        return -((m - target) ** 2).sum(axis=1)

    stage = budget.local_steps // 2
    _coordinate_search(w, f, g, penalized(0.03 * budget.penalty), stage, 0.25, 0.5 * v0)
    _coordinate_search(
        w, f, g, penalized(budget.penalty), budget.local_steps - stage, 0.075, 0.15 * v0
    )
    polish = max(300, budget.local_steps // 3)
    _coordinate_search(w, f, g, feasibility, polish, 0.05, 0.05 * v0)

    # exact rescale onto the largest coordinate of the target
    m, _ = _moments_and_payoff(w, f, g, p, theta)
    k = int(np.argmax(target))
    lam = np.where(m[:, k] > 1e-300, (target[k] / np.maximum(m[:, k], 1e-300)) ** (1.0 / p), 1.0)
    f *= lam[:, None]
    g *= lam[:, None]
    m, pay = _moments_and_payoff(w, f, g, p, theta)
    r2 = ((m - target) ** 2).sum(axis=1)
    best = int(np.argmax(pay - budget.penalty * r2))

    a = w[best] / w[best].sum()
    witness = StepPair(tuple((float(a[j]), float(f[best, j]), float(g[best, j])) for j in range(ATOM_COUNT)))
    return BruteForceResult(float(pay[best]), witness, float(np.sqrt(r2[best])))


def format_witness(x: LambdaPoint, p: float, theta: float, result: BruteForceResult) -> str:
    """Line serialization: header with query and value, then one atom per line."""
    head = (
        f"x={x.x1!r},{x.x2!r},{x.x3!r} p={p!r} theta={theta!r} "
        f"value={result.value!r} residual={result.residual!r}"
    )
    rows = [f"w={a!r} f={fv!r} g={gv!r}" for a, fv, gv in result.witness.atoms]
    return "\n".join([head] + rows)


def hanner_gap(f_fn: StepFunction, g_fn: StepFunction, p: float) -> float:
    """Two-function inequality gap on a shared partition.

    Returns ||f+g||^p + ||f-g||^p - (||f||+||g||)^p - | ||f||-||g|| |^p,
    which is >= 0 for p in [1, 2] and <= 0 for p >= 2 (equality at p = 2 by
    the parallelogram law).  p = 1 is admitted here, unlike the rest of the
    cone geometry.
    """
    if not p >= 1.0:
        raise DomainError(f"the inequality is stated for p >= 1, got {p!r}")
    aw, bw = f_fn.weights, g_fn.weights
    if aw.shape != bw.shape or np.abs(aw - bw).max() > WEIGHT_TOL:
        raise PartitionMismatchError("marginals do not share atom weights")
    fv, gv = f_fn.values, g_fn.values

    def norm(vals: np.ndarray) -> float:
        return float(aw @ np.abs(vals) ** p) ** (1.0 / p)

    lhs = norm(fv + gv) ** p + norm(fv - gv) ** p
    nf, ng = norm(fv), norm(gv)
    rhs = (nf + ng) ** p + abs(nf - ng) ** p
    return lhs - rhs


def witness_test(p: float, eps: float, trials: int, seed: int) -> VerificationReport:
    """Random unit pairs with ||f-g|| >= eps must satisfy the midpoint bound.

    Atom values mix uniform[-2, 2] with exact +-1 spikes so near-extremal
    collinear pairs actually occur in the sample.  Pairs are rescaled to
    unit norm, filtered by the separation constraint, and checked against
    ||(f+g)/2|| <= 1 - delta(eps, p) + 1e-9.  The report's worst value is
    the largest midpoint norm observed among survivors.
    """
    p = check_exponent(p)
    if not (0.0 < eps <= 2.0):
        raise DomainError(f"eps must lie in (0, 2], got {eps!r}")
    if trials < 1:
        raise DomainError(f"trials must be positive, got {trials}")
    bound = 1.0 - delta(p, eps) + 1e-9

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    wts = rng.uniform(0.05, 1.0, (trials, ATOM_COUNT))
    wts /= wts.sum(axis=1, keepdims=True)

    def draw_values() -> np.ndarray:
        flat = rng.uniform(-2.0, 2.0, (trials, ATOM_COUNT))
        spike = rng.integers(0, 2, (trials, ATOM_COUNT)).astype(float) * 2.0 - 1.0
        use_spike = rng.integers(0, 2, (trials, ATOM_COUNT)).astype(bool)
        return np.where(use_spike, spike, flat)

    fv, gv = draw_values(), draw_values()
    nf = (wts * np.abs(fv) ** p).sum(axis=1) ** (1.0 / p)
    ng = (wts * np.abs(gv) ** p).sum(axis=1) ** (1.0 / p)
    ok = (nf > 1e-12) & (ng > 1e-12)
    fv = np.where(ok[:, None], fv / np.maximum(nf, 1e-300)[:, None], 0.0)
    gv = np.where(ok[:, None], gv / np.maximum(ng, 1e-300)[:, None], 0.0)
    dist = (wts * np.abs(fv - gv) ** p).sum(axis=1) ** (1.0 / p)
    survivors = ok & (dist >= eps)
    mid = (wts * np.abs(0.5 * (fv + gv)) ** p).sum(axis=1) ** (1.0 / p)
    mid = np.where(survivors, mid, -np.inf)

    if survivors.any():
        i = int(np.argmax(mid))
        worst, at = float(mid[i]), float(i)
        passed = bool(worst <= bound)
    else:
        worst, at, passed = 0.0, -1.0, True
    return VerificationReport("midpoint-contraction", trials, worst, at, passed)
