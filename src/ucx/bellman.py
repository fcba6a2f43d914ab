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
from .errors import DomainError, InfeasibleError, NoFeasiblePairError, NonFiniteError, WitnessError
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
BATCH_ROWS = 256
#: pattern-search moves of one atom's (f_j, g_j): + and - along each of
#: (1, 0), (0, 1), (1/2, 1/2) and (1/2, -1/2), the last two stepping its
#: midpoint sum and its difference; a poll tries them for every atom
_MOVE_F = np.array([1.0, -1.0, 0.0, -0.0, 0.5, -0.5, 0.5, -0.5])
_MOVE_G = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, -0.5, 0.5])
#: weight solves per poll and row
POLL_TRIALS = ATOM_COUNT * len(_MOVE_F)


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
    return LambdaPoint(*(float(pair.weights @ row) for row in v))


def payoff(pair: StepPair, p: float) -> float:
    """Averaged midpoint payoff |(f+g)/2|^p."""
    p = check_exponent(p)
    return float(pair.weights @ _atom_terms(pair.f_values, pair.g_values, p)[1])


@dataclass(frozen=True)
class SearchBudget:
    """Restarts and pattern-search steps of the step-pair search, and its seed.

    Restart i starts from values drawn from PCG64 seeded with (seed, i), the
    same for every query, so identical budgets reproduce bit-for-bit.  A
    restart scores its start, then spends ``2 * local_steps`` weight solves
    as ``local_steps // 12`` polls (at least one) of ``POLL_TRIALS`` = 24
    moves, and stops early once all its steps are at the floor.  Every
    row's arithmetic is its own, so a batch of queries, searched as one
    (queries x restarts) array, gives each query the result of a search of
    it alone.  The library has no default budget: the CLI holds each
    command's own.
    """

    restarts: int
    local_steps: int
    seed: int

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
    """Moment vectors (|f|^p, |g|^p, |f-g|^p) on a new first axis, and midpoint payoffs."""
    return np.stack([np.abs(f) ** p, np.abs(g) ** p, np.abs(f - g) ** p]), np.abs(0.5 * f + 0.5 * g) ** p


def _cross(u, v):
    """u x v for vectors with their components on the first axis."""
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _solve_weights(vj, wj, vk, wk, vl, wl, x, tol):
    """Weights (a_j, a_k, a_l) with a_j v_j + a_k v_k + a_l v_l = x, and their scores.

    Moment vectors, ``x`` and ``tol`` hold their components on the first
    axis; the other axes broadcast, with rows last, and every number is
    componentwise arithmetic within its row.  Cramer's rule: the numerator
    of a_j is x . (v_k x v_l), and the determinant and the numerators of
    a_k and a_l are dot products of the moved atom's v_j with v_k x v_l,
    x x v_l and v_k x x, so the trials for atom j share these cross
    products.  A trial with a >= 0 and moments within ``tol`` of x scores
    its payoff, the exact optimum of the inner LP for those atom values;
    any other scores -1 minus its share of negative weight, below every
    payoff, so a restart climbs into feasibility first.  A moment |f|^p
    that underflowed is off by up to the least normal float, so each
    moment error counts max(a) times that on top.
    """
    kl = _cross(vk, vl)
    det = _dot(vj, kl)
    a = _dot(x, kl) / det, _dot(vj, _cross(x, vl)) / det, _dot(vj, _cross(vk, x)) / det
    slack = np.maximum(np.maximum(a[0], a[1]), a[2]) * sys.float_info.min
    feasible = (a[0] >= 0.0) & (a[1] >= 0.0) & (a[2] >= 0.0)
    for c in range(3):
        feasible &= np.abs(a[0] * vj[c] + a[1] * vk[c] + a[2] * vl[c] - x[c]) + slack <= tol[c]
    neg = np.maximum(-a[0], 0.0) + np.maximum(-a[1], 0.0) + np.maximum(-a[2], 0.0)
    neg = np.fmin(neg / (np.abs(a[0]) + np.abs(a[1]) + np.abs(a[2])), 1.0)
    return a, np.where(feasible, a[0] * wj + a[1] * wk + a[2] * wl, -1.0 - neg)


def _pattern_search(f, g, x, p, polls):
    """Full-poll pattern search over the atom values ``f``, ``g`` (atoms x rows).

    Rows run over (query, restart), and column r of ``x`` is row r's query,
    with largest coordinate 1.  Each poll scores, in one weight solve, every
    move of ``_MOVE_F``, ``_MOVE_G`` of every atom, scaled by that (atom,
    direction)'s step.  A row takes its best trial if it raises the score,
    and that step grows by 1.6; every step whose two signs both failed
    halves, down to ``STEP_FLOOR``.  Steps start at 1/2.  A row whose steps
    are all at the floor made no move and would repeat its poll, so it
    leaves the batch.  Returns each row's final values, the weights of its
    last accepted move in atom order and its score.
    """
    rows = np.arange(f.shape[1])
    out_f, out_g, out_a, out_score = np.empty_like(f), np.empty_like(g), np.empty_like(f), np.empty(len(rows))
    # the payoff is at most (x1 + x2)/2 by convexity, so each
    # moment is checked relative to itself or to max(x1, x2), the larger
    tol = MOMENT_RTOL * np.maximum(x, np.maximum(x[0], x[1]))
    v, w = _atom_terms(f, g, p)
    a, score = _solve_weights(v[:, 0], w[0], v[:, 1], w[1], v[:, 2], w[2], x, tol)
    a = np.array(a)
    h = np.full((ATOM_COUNT, len(_MOVE_F) // 2, len(rows)), 0.5)
    for _ in range(polls):
        step = np.repeat(h, 2, axis=1)
        tf, tg = f[:, None] + step * _MOVE_F[:, None], g[:, None] + step * _MOVE_G[:, None]
        vt, wt = _atom_terms(tf, tg, p)
        # atom j moves against atoms k = j + 1 and l = j + 2 (mod 3)
        vk, vl = np.roll(v, -1, axis=1)[:, :, None], np.roll(v, -2, axis=1)[:, :, None]
        wk, wl = np.roll(w, -1, axis=0)[:, None], np.roll(w, -2, axis=0)[:, None]
        at, st = _solve_weights(vt, wt, vk, wk, vl, wl, x[:, None, None], tol[:, None, None])
        up = st > score
        h = np.where(up.reshape(h.shape[:2] + (2, -1)).any(axis=2), h, np.maximum(0.5 * h, STEP_FLOOR))
        j, t = np.divmod(st.reshape(POLL_TRIALS, -1).argmax(axis=0), len(_MOVE_F))
        moved = up[j, t, np.arange(len(rows))].nonzero()[0]
        j, t = j[moved], t[moved]
        f[j, moved], g[j, moved] = tf[j, t, moved], tg[j, t, moved]
        v[:, j, moved], w[j, moved], score[moved] = vt[:, j, t, moved], wt[j, t, moved], st[j, t, moved]
        for i in range(ATOM_COUNT):
            a[(j + i) % ATOM_COUNT, moved] = at[i][j, t, moved]
        h[j, t // 2, moved] *= 1.6
        done = (h <= STEP_FLOOR).all(axis=(0, 1))
        if done.any():
            out_f[:, rows[done]], out_g[:, rows[done]] = f[:, done], g[:, done]
            out_a[:, rows[done]], out_score[rows[done]] = a[:, done], score[done]
            rows, f, g, v, w, a, score, h, x, tol = (
                arr[..., ~done] for arr in (rows, f, g, v, w, a, score, h, x, tol))
            if not len(rows):
                break
    out_f[:, rows], out_g[:, rows], out_a[:, rows], out_score[rows] = f, g, a, score
    return out_f, out_g, out_a, out_score


def brute_force_batch(points: list[LambdaPoint], p: float, budget: SearchBudget) -> list[BruteForceResult]:
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
    the value V(x) by at most the gradient of V times m - x.  Every
    searched witness's moments are checked against x (``_meets``).  The
    first point in input order that lies outside the cone raises
    ``InfeasibleError``, the first interior point no restart reaches a
    feasible pair for raises ``NoFeasiblePairError``, one whose witness
    overflows float64 when scaled back to it raises ``NonFiniteError``, and
    a witness whose moments miss x by more than rounding raises
    ``WitnessError``.
    """
    p = check_exponent(p)
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
        m = moment(witness, p).as_array()
        # a face's one-atom pair meets x only up to the face classification
        if face is BoundaryFace.INTERIOR and not _meets(m, target, p):
            raise WitnessError(f"the witness found for {target.tolist()} has moments {m.tolist()}"
                               f" at p={p!r}, off by more than rounding")
        results.append(BruteForceResult(payoff(witness, p), witness, math.hypot(*(m - target))))
    return results


def _meets(m, target, p):
    """Whether a searched witness's moments m equal x up to rounding.

    Each moment is measured as in the solve, relative to itself or to
    max(x1, x2).  The solve leaves ``MOMENT_RTOL``.  Scaling back from
    max(x) = 1 by c^p, c = exp((log max(x) + log W - log top) / p), rounds c
    and the atom values, each by a unit that the p-th power multiplies by
    p, and the logs, whose rounding grows with |log max(x)|.
    """
    rtol = 2.0 * MOMENT_RTOL * (p + abs(math.log(target.max())))
    return bool((np.abs(m - target) <= rtol * np.maximum(target, target[:2].max())).all())


def brute_force_bellman(x: LambdaPoint, p: float, budget: SearchBudget) -> BruteForceResult:
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
    polls = max(1, 2 * budget.local_steps // POLL_TRIALS)
    chunk = max(1, BATCH_ROWS // budget.restarts)
    found = []
    for lo in range(0, len(targets), chunk):
        part = np.array(targets[lo:lo + chunk])
        x = np.repeat((part / part.max(axis=1, keepdims=True)).T, budget.restarts, axis=1)
        vals = np.tile(starts.T, len(part))
        f, g = vals[:ATOM_COUNT], vals[ATOM_COUNT:]
        with np.errstate(all="ignore"):  # overflow and singular solves score as infeasible
            f, g, a, score = _pattern_search(f, g, x, p, polls)
        for q, target in enumerate(part):
            cols = slice(q * budget.restarts, (q + 1) * budget.restarts)
            found.append(_witness_atoms(target, f[:, cols], g[:, cols], a[:, cols], score[cols], p, budget))
    return found


def _witness_atoms(target, f, g, a, score, p, budget):
    """Unit-mass atoms of the best of one query's restarts (columns), scaled back to ``target``."""
    best = int(np.argmax(score))
    if not score[best] >= 0.0:
        raise NoFeasiblePairError(f"no restart reached a step pair with moments {target.tolist()}"
                                  f" in {budget.local_steps} steps; raise the restarts or steps")
    f, g, a = f[:, best], g[:, best], a[:, best]
    # scale each atom to largest moment 1 (its weight takes the factor), then
    # the pair to unit mass and x: no witness moment then exceeds 3 max(x).
    # Each atom's scale c = (max(x) W / top)^(1/p) is taken in logs: an atom
    # far out on its scale direction makes that ratio under- or overflow
    # where c itself does not
    top = _atom_terms(f, g, p)[0].max(axis=0)
    w = a * top
    with np.errstate(all="ignore"):
        c = np.exp((math.log(target.max()) + math.log(w.sum()) - np.log(top)) / p)
        f, g = f * c, g * c
        finite = np.isfinite(_atom_terms(f, g, p)[0]).all()
    if not finite:
        raise NonFiniteError(f"scaling the witness for {target.tolist()} back from max(x) = 1"
                             f" overflows float64 at p={p!r}")
    return tuple(zip((w / w.sum()).tolist(), f.tolist(), g.tolist()))


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
