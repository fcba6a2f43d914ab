"""Sharp modulus of uniform convexity of L^p spaces, numerically certified.

The sharp constant is computed by explicit formulas (closed form for
p >= 2, a slice-parameter root for 1 < p < 2) and certified three separate
ways: affine tangent-plane certificates verified by grid scans, LP
concavification of sampled boundary data, and derivative-free maximization
over step-function pairs.
"""

from .bellman import (
    BruteForceResult,
    SearchBudget,
    StepFunction,
    StepPair,
    brute_force_bellman,
    format_witness,
    hanner_gap,
    moment,
    payoff,
    witness_test,
)
from .certificates import (
    Certificate,
    VerificationReport,
    certificate_ge2,
    certificate_lt2,
    monotonicity_witness,
    sharpness_check,
    verify_appendix,
)
from .domain import (
    BoundaryFace,
    BoundaryProfile,
    LambdaPoint,
    boundary_profile,
    contains,
    slice_lower_bound,
)
from .envelope import EnvelopeQuery, ObstacleGrid, concavify, sample_boundary
from .moduli import SStar, delta, delta_closed_form, delta_implicit, delta_via_s_star, solve_s_star
from .numerics import Bracket, LpProblem, bisect_root, solve_lp

__all__ = [
    "Bracket",
    "BoundaryFace",
    "BoundaryProfile",
    "BruteForceResult",
    "Certificate",
    "EnvelopeQuery",
    "LambdaPoint",
    "LpProblem",
    "ObstacleGrid",
    "SStar",
    "SearchBudget",
    "StepFunction",
    "StepPair",
    "VerificationReport",
    "bisect_root",
    "boundary_profile",
    "brute_force_bellman",
    "certificate_ge2",
    "certificate_lt2",
    "concavify",
    "contains",
    "delta",
    "delta_closed_form",
    "delta_implicit",
    "delta_via_s_star",
    "format_witness",
    "hanner_gap",
    "moment",
    "monotonicity_witness",
    "payoff",
    "sample_boundary",
    "sharpness_check",
    "slice_lower_bound",
    "solve_lp",
    "solve_s_star",
    "verify_appendix",
    "witness_test",
]
