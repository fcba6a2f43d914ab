"""The extremal value function from below: step pairs and an exact two-atom search.

A step pair is a weighted list of atoms (a_j, f_j, g_j) standing for a
piecewise-constant pair on a unit-mass interval; its averaged moments land
in the cone and its payoff, the averaged midpoint |(f+g)/2|^p, is a lower
bound on the value function there.
``brute_force_batch`` finds, for each query point, the best chord through it
between two single-atom moment vectors, deterministically and for a chunk of
points at a time in lockstep, so each payoff is such a lower bound up to float
rounding; ``brute_force_bellman`` is its one-point call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import BoundaryFace, LambdaPoint, check_exponent, contains
from .errors import DomainError, InfeasibleError, NonFiniteError, WitnessError

#: weights must sum to one within this slack
WEIGHT_TOL = 1e-12
#: atoms per searched pair: a chord between two single-atom moment vectors
#: reaches Hanner's (1956) value, whose extremal pairs have two atoms
ATOM_COUNT = 2
#: relative bound on a solved pair's moment error, per unit of p: 64 units of
#: float64 rounding, room for the chord's weight solve and the moment sums
MOMENT_RTOL = 64 * 2.0**-53
#: cap of the moment error bounds: past p = 1e-9 / MOMENT_RTOL, about 1.4e5,
#: a pair whose values round by p units is no witness of the value to 1e-9
MOMENT_RTOL_MAX = 1e-9
#: scan points per side of the hexagon of atom values (``_hexagon``), a power
#: of two, so its corners t = 0, 1, 2 are scan points
SCAN_PER_SIDE = 64
#: scan peaks each query refines: near p = 1 the best chord's peak is narrow,
#: and the scan can rank another above it
PEAKS = 4
#: first ends each round of zooming in on a peak scores, and the rounds: each shrinks
#: the bracket 64-fold, from two cells to 2.9e-11; finer zooms round up past Hanner's value
ZOOM = 129
ZOOM_ROUNDS = 5
#: queries searched in lockstep: numpy's per-call cost once a chunk, in bounded memory
CHUNK = 6
#: most false-position steps per chord end
ROOT_STEPS = 40


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
    v = _moments(pair.f_values, pair.g_values, p)
    return LambdaPoint(*(float(pair.weights @ row) for row in v))


def payoff(pair: StepPair, p: float) -> float:
    """Averaged midpoint payoff |(f+g)/2|^p."""
    p = check_exponent(p)
    return float(pair.weights @ _payoffs(pair.f_values, pair.g_values, p))


@dataclass(frozen=True)
class BruteForceResult:
    """Best witness found: ``value`` is its payoff (before any scale-back from
    max(x) = 1), ``residual`` its moments' distance from x, float rounding."""

    value: float
    witness: StepPair
    residual: float


def _moments(f, g, p):
    """Moment vectors (|f|^p, |g|^p, |f-g|^p) on a new first axis."""
    return np.stack([np.abs(f) ** p, np.abs(g) ** p, np.abs(f - g) ** p])


def _payoffs(f, g, p):
    """Midpoint payoffs |(f+g)/2|^p."""
    return np.abs(0.5 * f + 0.5 * g) ** p


def _cross(u, v):
    """u x v for vectors with their components on the first axis."""
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _hexagon(t, p):
    """Atom values (f, g) at t on the hexagon max(|f|, |g|, |f - g|) = 1 and their moments.

    Its sides are (1, t), (2 - t, 1) and (2 - t, 3 - t) for t in [0, 1],
    [1, 2] and [2, 3], with period 3 (``np.mod`` of t >= 0 is exact): (f, g)
    and (-f, -g) are one atom.  Every atom is a positive multiple of one of
    these, each with largest moment 1, so none overflows.
    """
    t = np.mod(t, 3.0)
    f, g = np.minimum(1.0, 2.0 - t), np.minimum(np.minimum(t, 1.0), 3.0 - t)
    return f, g, _moments(f, g, p)


def _chord(x, t1, t2, p):
    """Payoff and weights (a1, a2) of the chord between the atoms at t1 and t2 through x.

    a1 v1 + a2 v2 = x is solved by cross products with v1 x v2.  A negative
    weight, or moments off x by more than p ``MOMENT_RTOL`` (at most
    ``MOMENT_RTOL_MAX``) relative to each moment or to max(x1, x2), which bounds
    the payoff, scores -inf: the p-th powers multiply the ends' rounding by p.
    """
    f1, g1, v1 = _hexagon(t1, p)
    f2, g2, v2 = _hexagon(t2, p)
    n = _cross(v1, v2)
    a1, a2 = _dot(_cross(x, v2), n) / _dot(n, n), _dot(_cross(v1, x), n) / _dot(n, n)
    tol = min(MOMENT_RTOL * p, MOMENT_RTOL_MAX) * np.maximum(x, np.maximum(x[0], x[1]))
    feasible = (a1 >= 0.0) & (a2 >= 0.0) & np.logical_and.reduce(  # a moment at a time: fewer temporaries
        [np.abs(a1 * v1[i] + a2 * v2[i] - x[i]) <= tol[i] for i in range(3)])
    return np.where(feasible, a1 * _payoffs(f1, g1, p) + a2 * _payoffs(f2, g2, p), -np.inf), (a1, a2)


def _far_end(x, t1, lo, hi, p):
    """Far end in [lo, hi] of the chord from t1 through x: the root of det(v(t1), x, v(t)).

    The boundary winds once around x in the direction of t, so on (t1, t1 + 3)
    the determinant is negative up to the far end and positive after it.
    False position with the Illinois step, clamped into the bracket.  At t1
    and t1 + 3, where it is 0 up to rounding, an end takes minus the other
    end's value, so the first step bisects; elsewhere an end at 0 or on the
    wrong side is the root (a neighbour's far end brackets it up to
    rounding).  A row stops once its step lands on an end or hits 0.
    """
    normal = _cross(_hexagon(t1, p)[2], x)
    flo, fhi = _dot(normal, _hexagon(lo, p)[2]), _dot(normal, _hexagon(hi, p)[2])
    flo = np.where(lo == t1, -fhi, flo)
    fhi = np.where(hi == t1 + 3.0, -flo, fhi)
    done, t = (flo >= 0.0) | (fhi <= 0.0), np.where(fhi <= 0.0, hi, lo)
    kept = np.zeros(np.shape(t))  # -1 after lo moved, 1 after hi moved
    for _ in range(ROOT_STEPS):
        t = np.where(done, t, np.fmin(np.fmax(lo + (hi - lo) * (flo / (flo - fhi)), lo), hi))
        ft = _dot(normal, _hexagon(t, p)[2])
        done |= (t == lo) | (t == hi) | (ft == 0.0)
        if done.all():
            break
        left = ft < 0.0
        fhi, flo = np.where(left & (kept < 0.0), 0.5 * fhi, fhi), np.where(~left & (kept > 0.0), 0.5 * flo, flo)
        lo, flo = np.where(left, t, lo), np.where(left, ft, flo)
        hi, fhi = np.where(left, hi, t), np.where(left, fhi, ft)
        kept = np.where(left, -1.0, 1.0)
    return t


def _scan(x, p):
    """Far ends and payoffs of the chords through each column of x from the scan points t_j = j / SCAN_PER_SIDE.

    The far end's cell comes from bisecting the signs of ``_far_end``'s
    determinant at the scan points after t_j (t_j negative, t_j + 3 positive).
    """
    n = 3 * SCAN_PER_SIDE
    x, t = x[:, :, None], np.arange(n) / SCAN_PER_SIDE
    v = _hexagon(t, p)[2]
    normal, t = _cross(v, x), t[None]
    lo, hi = np.zeros(normal[0].shape, dtype=int), np.full(normal[0].shape, n)
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        left = (mid == 0) | (_dot(normal, v[:, (np.arange(n) + mid) % n]) < 0.0)
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    far = _far_end(x, t, t + lo / SCAN_PER_SIDE, t + hi / SCAN_PER_SIDE, p)
    return far, _chord(x, t, far, p)[0]


def _zoom(x, a, b, ra, rb, p):
    """Best chord through column i of x, first end in [a_i, b_i]: payoff and ends, by ``ZOOM_ROUNDS`` rounds.

    ``ra``, ``rb`` are the far ends of a and b.  A round scores ``ZOOM``
    evenly spaced first ends and keeps the best one's neighbours; far ends
    move with first ends, so all lie in [ra, rb].
    """
    lanes, x = np.arange(len(a)), x[:, :, None]
    for _ in range(ZOOM_ROUNDS):
        t1 = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, ZOOM)
        far = _far_end(x, t1, np.maximum(ra[:, None], t1), np.minimum(rb[:, None], t1 + 3.0), p)
        score = _chord(x, t1, far, p)[0]
        k = np.argmax(score, axis=1)
        a, b = t1[lanes, np.maximum(k - 1, 0)], t1[lanes, np.minimum(k + 1, ZOOM - 1)]
        ra, rb = far[lanes, np.maximum(k - 1, 0)], far[lanes, np.minimum(k + 1, ZOOM - 1)]
    return score[lanes, k], t1[lanes, k], far[lanes, k]


def brute_force_batch(points: list[LambdaPoint], p: float) -> list[BruteForceResult]:
    """Maximize the payoff over two-atom step pairs whose moments equal each point.

    On a face of the cone (as ``contains`` classifies it) the only pairs are
    collinear, and the one-atom pair is returned with no search.  An interior
    point is searched at x / max(x) by degree-1 homogeneity: a pair is a chord
    through x between two atoms' moment vectors, and its first end on the
    hexagon of atom values fixes the rest.  The first end is scanned, and the
    ``PEAKS`` best local maxima of the payoff are zoomed in on, ``CHUNK`` points
    at a time in lockstep.  ``residual`` is the distance of the witness's
    moments m from x; its payoff is at most V(m), so it exceeds V(x) by at most
    the gradient of V times m - x.  The first point in input order outside the
    cone raises ``InfeasibleError``, one whose witness overflows float64 when
    scaled back ``NonFiniteError``, and one no chord meets, or whose witness
    misses it, ``WitnessError``.
    """
    p = check_exponent(p)
    targets = [x.as_array() for x in points]
    faces = [contains(x, p) for x in points]
    outside = next((i for i, face in enumerate(faces) if face is BoundaryFace.OUTSIDE), len(points))
    interior = [i for i in range(outside) if faces[i] is BoundaryFace.INTERIOR]
    chunks = [interior[start:start + CHUNK] for start in range(0, len(interior), CHUNK)]
    found = {i: res for c in chunks for i, res in zip(c, _search(np.array([targets[i] for i in c]), p))}
    if outside < len(points):
        raise InfeasibleError(f"{points[outside]} lies outside the cone")
    results = []
    for i, (target, face) in enumerate(zip(targets, faces)):
        if face.on_boundary:
            u1, u2, _ = (float(u) for u in target ** (1.0 / p))
            witness = StepPair(((1.0, u1, -u2 if face is BoundaryFace.FACE3 else u2),))
            found[i] = payoff(witness, p), witness
        value, witness = found[i]
        m = moment(witness, p).as_array()
        # measured as in the search, which leaves p MOMENT_RTOL; the scale-back
        # by c = (max(x) (a1 + a2))^(1/p) adds rounding that p and |log max(x)|
        # multiply; both capped.  A face's one-atom pair meets x only up to the
        # face test
        if face is BoundaryFace.INTERIOR:
            rtol = 2.0 * min(MOMENT_RTOL * (p + abs(math.log(target.max()))), MOMENT_RTOL_MAX)
            if not (np.abs(m - target) / np.maximum(target, target[:2].max()) <= rtol).all():
                raise WitnessError(f"the witness found for {target.tolist()} has moments {m.tolist()}"
                                   f" at p={p!r}, off by more than rounding")
        results.append(BruteForceResult(value, witness, math.hypot(*(m - target))))
    return results


def brute_force_bellman(x: LambdaPoint, p: float) -> BruteForceResult:
    """``brute_force_batch`` at the single point ``x``."""
    return brute_force_batch([x], p)[0]


def _search(targets, p):
    """Payoffs and witnesses of the best chords found through the interior points ``targets``, one per row."""
    x, n = (targets / targets.max(axis=1, keepdims=True)).T, 3 * SCAN_PER_SIDE
    with np.errstate(all="ignore"):  # a degenerate chord scores -inf
        far, score = _scan(x, p)
        # a lane zooms in on one of a row's PEAKS best peaks k, over the first ends [t_(k-1),
        # t_(k+1)] (k = 0 taken as n); its first round scores t_k, and each keeps its best to an ulp
        peak = (score >= np.roll(score, 1, axis=1)) & (score > np.roll(score, -1, axis=1))
        order = np.argsort(np.where(peak, -score, np.inf), axis=1, kind="stable")[:, :PEAKS]
        row, rank = np.nonzero(np.take_along_axis(peak, order, axis=1))
        k = np.where(order[row, rank] == 0, n, order[row, rank])
        ends = np.concatenate((far, far[:, :2] + 3.0), axis=1)
        a, b = (k - 1) / SCAN_PER_SIDE, (k + 1) / SCAN_PER_SIDE
        # each row's first best lane; a row with no peak keeps the chord (0, 0), which no x meets
        best = np.full((len(targets), PEAKS, 3), [-np.inf, 0.0, 0.0])
        best[row, rank] = np.stack(_zoom(x[:, row], a, b, ends[row, k - 1], ends[row, k + 1], p), axis=1)
        return [_witness(target, *lanes[np.argmax(lanes[:, 0]), 1:], p) for target, lanes in zip(targets, best)]


def _witness(target, t1, t2, p):
    """Payoff and unit-mass pair of the chord from t1 to t2 through x / max(x), scaled back to x."""
    ends = np.array([t1, t2])
    score, (a1, a2) = _chord((target / target.max())[:, None], ends[:1], ends[1:], p)
    if not score[0] >= 0.0:
        raise WitnessError(f"no chord through {target.tolist()} meets its moments to rounding at p={p!r}")
    mass = a1[0] + a2[0]
    c = (target.max() * mass) ** (1.0 / p)
    f, g = (c * u for u in _hexagon(ends, p)[:2])
    if not np.isfinite(_moments(f, g, p)).all():
        raise NonFiniteError(f"scaling the witness for {target.tolist()} back from max(x) = 1"
                             f" overflows float64 at p={p!r}")
    atoms = zip([float(a1[0] / mass), float(a2[0] / mass)], f.tolist(), g.tolist())
    return float(target.max() * score[0]), StepPair(tuple(atoms))


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

