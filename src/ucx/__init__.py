"""Sharp modulus of uniform convexity of L^p spaces, numerically certified.

The sharp constant is computed by a closed form for p >= 2 and by one
root solve, for u = 1 - delta, for 1 < p < 2.  It is certified three
separate ways: affine tangent-plane certificates verified by grid scans,
the upper concave hull of sampled boundary data, and an exact search of
two-atom step pairs, chords between two boundary moment vectors.
"""

from .bellman import (
    BruteForceResult,
    StepPair,
    brute_force_batch,
    brute_force_bellman,
    format_witness,
    moment,
    payoff,
)
from .certificates import (
    Certificate,
    VerificationReport,
    certificate,
    midpoint_contraction,
    sharpness_check,
    verify_appendix,
)
from .domain import BoundaryFace, LambdaPoint, contains
from .envelope import EnvelopeQuery, ObstacleGrid, concavify, sample_boundary
from .moduli import delta, implicit_correction
from .numerics import bisect_root

__all__ = [
    "BoundaryFace",
    "BruteForceResult",
    "Certificate",
    "EnvelopeQuery",
    "LambdaPoint",
    "ObstacleGrid",
    "StepPair",
    "VerificationReport",
    "bisect_root",
    "brute_force_batch",
    "brute_force_bellman",
    "certificate",
    "concavify",
    "contains",
    "delta",
    "format_witness",
    "implicit_correction",
    "midpoint_contraction",
    "moment",
    "payoff",
    "sample_boundary",
    "sharpness_check",
    "verify_appendix",
]
