"""Frozen expected values for the test suite.

Every constant here was computed at 50 decimal digits with mpmath through
an independent route (root solves of the defining equations, direct
series-free evaluation) and cross-checked against a second route where one
exists; see the comments.  Tests compare against these, not against values
recomputed by the code under test.
"""

import math

# root of s + |1 - s^(2/3)|^(3/2) = 2  (p = 1.5, eps = 1); cross-checked by
# substituting t = s^(2/3) into (t*eps)^p + (eps*|t-1|)^p = 2
S_STAR_P15_E1 = 1.7151951681195114516

# 1 - eps * (s*^(1/p) - 1/2) at the root above; agrees with the implicit
# two-term power equation root to all digits
DELTA_P15_E1 = 0.067122610329016173255

# boundary payoff at the root: equals (1 - delta)^p
PAYOFF_P15_E1 = 0.90102501976818511618

# f'(s*) / (1 + g'(s*)) at the root
KAPPA_P15_E1 = 0.52068742669115558012

# closed forms
DELTA_E1_P2 = 1.0 - math.sqrt(3.0) / 2.0
DELTA_E1_P4 = 0.01600516436728479073  # 1 - (15/16)^(1/4)

# closed form where (eps/2)^p falls below the float64 epsilon: (p, eps, delta),
# evaluated as -expm1(log1p(-(eps/2)^p)/p) at the exact binary value of eps
DELTA_TINY_CORNERS = (
    (3.0, 1e-6, 4.1666666666666661012e-20),
    (10.0, 0.01, 9.7656250000000020329e-25),
    (100.0, 1.0, 7.8886090522101180541e-33),
    (2.0, 1e-6, 1.2500000000000780119e-13),
)

# 1 < p < 2 where eps is small: (p, eps, delta), the root of the implicit
# equation at the exact binary value of eps, cross-checked by bisecting
# ((u + eps/2)^p + |u - eps/2|^p)/2 = 1 for u = 1 - delta
DELTA_SMALL_EPS_LT2 = (
    (1.5, 1e-6, 6.2500000000003900594e-14),
    (1.5, 1e-8, 6.2500000000000003006e-18),
    (1.99, 1e-6, 1.2375000000000774733e-13),
)

# slice profile derivatives at s = 4 (hand-differentiated and checked by
# central differences of the defining powers)
FPRIME_4_P2 = 0.75
GPRIME_4_P2 = 0.5
FPRIME_4_P15 = 0.89530713640849253853
GPRIME_4_P15 = 0.77662715443638083708

# two-function inequality gap for f = 1, g = half-mass indicator, p = 3/2:
# (2^1.5 + 1)/2 + 1/2 - (1 + 2^(-2/3))^1.5 - (1 - 2^(-2/3))^1.5
HANNER_HALF_MASS_P15 = 0.10814623771508091581

# slice majorization gap of the p = 3 certificate at s = 10^3 and 10^6;
# exact rational arithmetic at integer cube roots
U_P3_S1E3 = 7.0
U_P3_S1E6 = 74.5
