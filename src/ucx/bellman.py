"""The extremal value function from below: step pairs and an exactly feasible search.

A step pair is a weighted list of atoms (a_j, f_j, g_j) standing for a
piecewise-constant pair on a unit-mass interval; its averaged moments land
in the cone and its payoff, the averaged midpoint |(f+g)/2|^p, is a lower
bound on the value function there.
``brute_force_batch`` searches three atoms' values and solves for their
weights exactly, for a batch of query points at once, so each payoff is
such a lower bound up to float rounding; ``brute_force_bellman`` is its
one-point call.
``witness_test`` checks the midpoint-contraction definition of the modulus
against the computed sharp constant.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .certificates import VerificationReport
from .domain import BoundaryFace, LambdaPoint, check_eps, check_exponent, contains
from .errors import DomainError, InfeasibleError, NoFeasiblePairError, NonFiniteError
from .moduli import delta

#: weights must sum to one within this slack
WEIGHT_TOL = 1e-12
#: atoms per searched pair: the conic LP behind the value function has 3 rows
#: and no mass row, so 3 atoms carry each of its vertices (Caratheodory)
ATOM_COUNT = 3
#: atoms per random pair in ``witness_test``
WITNESS_ATOMS = 4
#: largest exponent ``witness_test`` takes: a normalized atom of weight w has
#: |f|^p, |g|^p <= 1/w, so |f - g|^p <= 2^p / w, and every weight is above 0.05/4
WITNESS_P_MAX = math.log2(0.0125 * sys.float_info.max)
#: relative bound on a solved pair's moment error: 64 units of float64
#: rounding, room for the 3x3 solve and the moment sums
MOMENT_RTOL = 64 * 2.0**-53
#: pattern-search step floor, for atom values of a query scaled to max(x) = 1
STEP_FLOOR = 1e-12
#: rows (queries x restarts) one pattern search holds at most; larger batches
#: run in chunks of whole queries, so memory stays bounded
BATCH_ROWS = 4096
#: a length-3 axis extended cyclically, so components i+1 and i+2 are slices
_CYCLE = [0, 1, 2, 0, 1]


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


def moment(pair: StepPair, p: float) -> LambdaPoint:
    """Averaged moment vector (|f|^p, |g|^p, |f-g|^p); always lands in the cone."""
    p = check_exponent(p)
    # one dot product per contiguous moment row: a matrix-vector product
    # over the strided columns could round differently
    v = _atom_terms(pair.f_values, pair.g_values, p)[0]
    return LambdaPoint(*(float(pair.weights @ row) for row in v.T.copy()))


def payoff(pair: StepPair, p: float) -> float:
    """Averaged midpoint payoff |(f+g)/2|^p."""
    p = check_exponent(p)
    return float(pair.weights @ _atom_terms(pair.f_values, pair.g_values, p)[1])


@dataclass(frozen=True)
class SearchBudget:
    """Restarts and pattern-search steps of the step-pair search, and its seed.

    Restart i starts from values drawn from PCG64 seeded with (seed, i), the
    same for every query, so identical budgets reproduce bit-for-bit.  A
    batch of queries is searched as one (queries x restarts) array in which
    each query stops on its own, so each result equals that of a search of
    its query alone.
    """

    restarts: int = 64
    local_steps: int = 1200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.local_steps < 1 or self.seed < 0:
            raise DomainError(f"a search budget needs restarts, local_steps >= 1 and seed >= 0: {self}")


@dataclass(frozen=True)
class BruteForceResult:
    """Best witness found: ``value`` is its payoff and ``residual`` the distance
    of its moments from the query point, which is float rounding."""

    value: float
    witness: StepPair
    residual: float


def _atom_terms(f, g, p):
    """Moment vectors (|f|^p, |g|^p, |f-g|^p) on a new last axis, and midpoint payoffs."""
    d = f - g
    v = np.empty(d.shape + (3,))
    v[..., 0], v[..., 1], v[..., 2] = np.abs(f) ** p, np.abs(g) ** p, np.abs(d) ** p
    return v, np.abs(0.5 * f + 0.5 * g) ** p


def _solve_weights(vj, wj, vk, wk, vl, wl, x, xq, tol):
    """Weights (a_j, a_k, a_l) with a_j v_j + a_k v_k + a_l v_l = x, and their scores.

    Rows run over (query, restart), query-major; ``x`` holds each row's
    query and ``xq`` each query once.  Cramer's rule: the determinant and
    the numerators of a_k and a_l are dot products of the moved atom's v_j
    with v_k x v_l, x x v_l and v_k x x, so the trials for atom j share
    these cross products.  A trial with a >= 0 and moments within ``tol``
    of x scores its payoff, the exact optimum of the inner LP for those atom
    values; any other scores -1 minus its share of negative weight, below
    every payoff, so a restart climbs into feasibility first.
    """
    left, right = np.stack([vk, x, vk])[..., _CYCLE], np.stack([vl, vl, x])[..., _CYCLE]
    cross = left[..., 1:4] * right[..., 2:5] - left[..., 2:5] * right[..., 1:4]
    num = (vj[..., None, :] @ cross.transpose(1, 2, 0))[..., 0, :]
    det = num[..., 0].copy()
    # one matrix-vector product per query: a per-row dot product would round
    # differently from a search of that query alone
    num[..., 0] = (cross[0].reshape(len(xq), -1, 3) @ xq[:, :, None]).reshape(-1)
    a = num / det[..., None]
    m = a[..., :1] * vj + a[..., 1:2] * vk + a[..., 2:] * vl
    feasible = (a >= 0.0).all(axis=-1) & (np.abs(m - x) <= tol).all(axis=-1)
    neg = np.fmin(np.maximum(-a, 0.0).sum(axis=-1) / np.abs(a).sum(axis=-1), 1.0)
    return a, np.where(feasible, a[..., 0] * wj + a[..., 1] * wk + a[..., 2] * wl, -1.0 - neg)


def _pattern_search(vals, xq, p, steps):
    """Cyclic pattern search over the values (f_0..f_2, g_0..g_2) of each row.

    Rows run over (query, restart), query-major; each query in ``xq`` has
    largest coordinate 1.  Each step moves one value of every row by + and
    - its step size in one batch and keeps the better trial if it raises
    the score; steps start at 1/2, grow by 1.6 on success and halve
    otherwise, down to ``STEP_FLOOR``.  A query whose steps are all at the
    floor at the end of a cycle stops there and its rows leave the batch.
    Returns each row's final values, the weights of its last accepted move
    and its score.
    """
    restarts = len(vals) // len(xq)
    out_vals, out_a, out_score = np.empty_like(vals), np.empty((len(vals), ATOM_COUNT)), np.empty(len(vals))
    rows = np.arange(len(vals))
    x = np.repeat(xq, restarts, axis=0)
    # the payoff is at most (x1 + x2)/2 by convexity, so each
    # moment is checked relative to itself or to max(x1, x2), the larger
    tol = MOMENT_RTOL * np.maximum(x, x[:, :2].max(axis=1, keepdims=True))
    v, w = _atom_terms(vals[:, :ATOM_COUNT], vals[:, ATOM_COUNT:], p)
    a, score = _solve_weights(v[:, 0], w[:, 0], v[:, 1], w[:, 1], v[:, 2], w[:, 2], x, xq, tol)
    h = np.full(vals.shape, 0.5)
    for it in range(steps):
        c = it % vals.shape[1]
        j = c % ATOM_COUNT
        k, l = (j + 1) % ATOM_COUNT, (j + 2) % ATOM_COUNT
        trial = vals[:, c] + np.array([[1.0], [-1.0]]) * h[:, c]
        fj, gj = (trial, vals[:, j + ATOM_COUNT]) if c < ATOM_COUNT else (vals[:, j], trial)
        vj, wj = _atom_terms(fj, gj, p)
        at, st = _solve_weights(vj, wj, v[:, k], w[:, k], v[:, l], w[:, l], x, xq, tol)
        pick, best = st.argmax(axis=0), st.max(axis=0)
        improved = best > score
        sel = improved.nonzero()[0]
        ps = pick[sel]
        vals[sel, c], v[sel, j], w[sel, j] = trial[ps, sel], vj[ps, sel], wj[ps, sel]
        a[sel[:, None], [j, k, l]], score[sel] = at[ps, sel], best[sel]
        h[:, c] = np.maximum(h[:, c] * np.where(improved, 1.6, 0.5), STEP_FLOOR)
        if c == vals.shape[1] - 1:
            stop = (h <= STEP_FLOOR).reshape(len(xq), -1).all(axis=1)
            if stop.any():
                done, xq = np.repeat(stop, restarts), xq[~stop]
                out_vals[rows[done]], out_a[rows[done]] = vals[done], a[done]
                out_score[rows[done]] = score[done]
                rows, vals, v, w, a, score, h, x, tol = (
                    arr[~done] for arr in (rows, vals, v, w, a, score, h, x, tol))
                if not len(xq):
                    break
    out_vals[rows], out_a[rows], out_score[rows] = vals, a, score
    return out_vals, out_a, out_score


def brute_force_batch(
    points: list[LambdaPoint],
    p: float,
    budget: SearchBudget | None = None,
) -> list[BruteForceResult]:
    """Maximize the payoff over 3-atom step pairs whose moments equal each point.

    On a face of the cone (as ``contains`` classifies it) the only pairs
    are collinear, and the one-atom collinear pair is returned with no
    search.  Interior points are searched together, each at x / max(x) by
    degree-1 homogeneity, in chunks of at most ``BATCH_ROWS`` rows (whole
    queries, one row per restart).  Each restart draws atom values that mix
    independent, collinear, antipodal and mirror-image pairs (queries with
    symmetric moments have swap-symmetric extremizers, so mirrored pairs
    need to be reachable); the pattern search moves the values only, and
    the weights come from an exact 3x3 solve, checked for sign and for
    moments within ``MOMENT_RTOL``.  ``residual`` is the distance of the
    witness's moments m from x; its payoff is at most V(m), so it exceeds
    the value V(x) by at most the gradient of V times m - x.  The first
    point in input order that lies outside the cone raises
    ``InfeasibleError``, the first interior point no restart reaches a
    feasible pair for raises ``NoFeasiblePairError``, and one whose witness
    overflows or underflows float64 when scaled back to it (at p in the
    hundreds, or max(x) far below 1) raises ``NonFiniteError``.
    """
    p = check_exponent(p)
    budget = budget if budget is not None else SearchBudget()
    targets = [x.as_array() for x in points]
    faces = [contains(x, p) for x in points]
    outside = next((i for i, face in enumerate(faces) if face is BoundaryFace.OUTSIDE), len(points))
    interior = [i for i in range(outside) if faces[i] is BoundaryFace.INTERIOR]
    atoms = dict(zip(interior, _search([targets[i] for i in interior], p, budget)))
    if outside < len(points):
        raise InfeasibleError(f"{points[outside]} lies outside the cone")
    results = []
    for i, (target, face) in enumerate(zip(targets, faces)):
        if face.on_boundary:
            u1, u2, _ = (float(u) for u in target ** (1.0 / p))
            atoms[i] = ((1.0, u1, -u2 if face is BoundaryFace.FACE3 else u2),)
        witness = StepPair(atoms[i])
        residual = math.hypot(*(moment(witness, p).as_array() - target))
        results.append(BruteForceResult(payoff(witness, p), witness, residual))
    return results


def brute_force_bellman(
    x: LambdaPoint,
    p: float,
    budget: SearchBudget | None = None,
) -> BruteForceResult:
    """``brute_force_batch`` at the single point ``x``."""
    return brute_force_batch([x], p, budget)[0]


def _start_values(budget):
    """One row of atom values (f_0..f_2, g_0..g_2) per restart, from its own stream."""
    vals = np.empty((budget.restarts, 2 * ATOM_COUNT))
    f, g = vals[:, :ATOM_COUNT], vals[:, ATOM_COUNT:]
    for i in range(budget.restarts):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((budget.seed, i))))
        f[i] = rng.uniform(-2.0, 2.0, ATOM_COUNT)
        style = rng.integers(0, 4, ATOM_COUNT)
        # three antipodal atoms share one moment ray: no single move then
        # makes the 3x3 system regular again
        style[-1] = min(style[-1], 2)
        indep = rng.uniform(-2.0, 2.0, ATOM_COUNT)
        shift = f[i] - rng.uniform(-1.0, 1.0, ATOM_COUNT)
        g[i] = np.where(style <= 1, indep, np.where(style == 2, shift, -f[i]))
        if rng.random() < 0.5:  # mirror a pair of atoms: (f,g) and (g,f)
            f[i, 1], g[i, 1] = g[i, 0], f[i, 0]
    return vals


def _search(targets, p, budget):
    """Atoms of the best feasible pair found for each interior query, in order."""
    if not targets:
        return []
    starts = _start_values(budget)
    chunk = max(1, BATCH_ROWS // budget.restarts)
    found = []
    for lo in range(0, len(targets), chunk):
        part = np.array(targets[lo:lo + chunk])
        xq, vals = part / part.max(axis=1, keepdims=True), np.tile(starts, (len(part), 1))
        with np.errstate(all="ignore"):  # overflow and singular solves score as infeasible
            vals, a, score = _pattern_search(vals, xq, p, budget.local_steps)
        shape = (len(part), budget.restarts)
        for q in zip(part, vals.reshape(shape + (-1,)), a.reshape(shape + (-1,)), score.reshape(shape)):
            found.append(_witness_atoms(*q, p, budget))
    return found


def _witness_atoms(target, vals, a, score, p, budget):
    """Unit-mass atoms of the best of one query's restarts, scaled back to ``target``."""
    scale = target.max()
    best = int(np.argmax(score))
    if not score[best] >= 0.0:
        raise NoFeasiblePairError(f"no restart reached a step pair with moments {target.tolist()}"
                                  f" in {budget.local_steps} steps; raise the restarts or steps")
    f, g = vals[best, :ATOM_COUNT], vals[best, ATOM_COUNT:]
    # scale each atom to largest moment 1 (its weight takes the factor), then
    # the pair to unit mass and x: no witness moment then exceeds 3 max(x)
    top = _atom_terms(f, g, p)[0].max(axis=1)
    w = a[best] * top
    with np.errstate(all="ignore"):
        q = scale * w.sum() / top
    # each atom's scale c = q**(1/p) needs q normal: a subnormal q has lost
    # the digits that put the witness's moments on x
    if not ((sys.float_info.min <= q) & (q <= sys.float_info.max)).all():
        raise NonFiniteError(f"scaling the witness for {target.tolist()} back from max(x) = 1"
                             f" overflows or underflows float64 at p={p!r}")
    c = q ** (1.0 / p)
    return tuple(zip((w / w.sum()).tolist(), (f * c).tolist(), (g * c).tolist()))


def format_witness(x: LambdaPoint, p: float, result: BruteForceResult) -> str:
    """Line serialization: header with query and value, then one atom per line.

    The header names the midpoint weight as ``theta=0.5``, which parsers of
    this format read.
    """
    head = (
        f"x={x.x1!r},{x.x2!r},{x.x3!r} p={p!r} theta=0.5 "
        f"value={result.value!r} residual={result.residual!r}"
    )
    rows = [f"w={a!r} f={fv!r} g={gv!r}" for a, fv, gv in result.witness.atoms]
    return "\n".join([head] + rows)


def witness_test(p: float, eps: float, trials: int, seed: int) -> VerificationReport:
    """Random unit pairs with ||f-g|| >= eps must satisfy the midpoint bound.

    Atom values mix uniform[-2, 2] with exact +-1 spikes so near-extremal
    collinear pairs actually occur in the sample.  Pairs are rescaled to
    unit norm, filtered by the separation constraint, and checked against
    ||(f+g)/2|| <= 1 - delta(eps, p) + 1e-9.  The report's worst value is
    the largest midpoint norm observed among survivors.
    """
    p = check_exponent(p)
    if not p <= WITNESS_P_MAX:
        raise DomainError(f"witness moments overflow float64 past p={WITNESS_P_MAX:.1f}, got p={p!r}")
    eps = check_eps(eps, allow_zero=False)
    if trials < 1 or seed < 0:
        raise DomainError(f"witness_test needs trials >= 1 and seed >= 0, got {trials}, {seed}")
    bound = 1.0 - delta(p, eps) + 1e-9

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    wts = rng.uniform(0.05, 1.0, (trials, WITNESS_ATOMS))
    wts /= wts.sum(axis=1, keepdims=True)

    def draw_values() -> np.ndarray:
        flat = rng.uniform(-2.0, 2.0, (trials, WITNESS_ATOMS))
        spike = rng.integers(0, 2, (trials, WITNESS_ATOMS)).astype(float) * 2.0 - 1.0
        use_spike = rng.integers(0, 2, (trials, WITNESS_ATOMS)).astype(bool)
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
