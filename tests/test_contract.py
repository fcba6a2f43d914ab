"""The library's input contract: every public entry point returns or raises a UcxError.

A caller that catches ``UcxError`` sees every bad input, whatever the layer
that rejects it; nothing else escapes (no OverflowError, TypeError or
numpy ValueError), and no bad input is accepted.
"""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucx.bellman import brute_force_bellman
from ucx.certificates import Certificate, certificate, midpoint_contraction, sharpness_check, verify_appendix
from ucx.domain import LambdaPoint, contains
from ucx.envelope import concavify, sample_boundary
from ucx.errors import UcxError
from ucx.moduli import delta, implicit_correction

NAN, INF = math.nan, math.inf


def _calls(p, eps, x):
    """Each public entry point at one drawn input, on small grids."""
    return {
        "delta": lambda: delta(p, eps),
        "implicit_correction": lambda: implicit_correction(p, eps, 0.5),
        "certificate": lambda: certificate(p, eps),
        "verify_appendix": lambda: verify_appendix(p, eps, 11),
        "sharpness_check": lambda: sharpness_check(p, eps),
        "midpoint_contraction": lambda: midpoint_contraction(p, eps),
        "brute_force_bellman": lambda: brute_force_bellman(x, p),
        "contains": lambda: contains(x, p),
        "sample_boundary": lambda: sample_boundary(p, 4),
        "concavify": lambda: concavify(sample_boundary(p, 4), x),
    }


_P = st.one_of(st.sampled_from([NAN, INF, 0.5, 1.0, 1.5, 2.0, 3.0, 1023.0, 2000.0]), st.floats())
_EPS = st.sampled_from([None, NAN, -1.0, 0.0, 5e-324, 1e-300, 1.0, 2.0, 3.0])
_COORD = st.one_of(st.sampled_from([NAN, INF, -INF, -1.0, 0.0, 1.0, 8.0]), st.floats(0.0, 10.0))


@given(_P, _EPS, st.tuples(_COORD, _COORD, _COORD))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_every_entry_point_returns_or_raises_a_ucx_error(p, eps, coords):
    # any other exception escapes the loop and fails the test with its traceback
    for call in _calls(p, eps, LambdaPoint(*coords)).values():
        try:
            call()
        except UcxError:
            pass


@pytest.mark.parametrize("name, p, eps, coords, seed", [
    ("verify_appendix", 1.5, 0.0, None, 0),  # the p < 2 certificate needs eps in (0, 2)
    ("sharpness_check", 1.5, 0.0, None, 0),
    ("verify_appendix", 1.5, 2.0, None, 0),
    ("sharpness_check", 1.5, 2.0, None, 0),
    ("certificate", 1.5, None, None, 0),  # a TypeError from comparing None
    ("verify_appendix", 3.0, 5.0, None, 0),  # eps = 5 was accepted for p >= 2
    ("brute_force_bellman", 2.0, 1.0, (1.0, 1.0, INF), 0),  # a FACE3 point of value 0.0
    ("contains", 2.0, 1.0, (NAN, 1.0, 1.0), 0),
])
def test_bad_input_rejected(name, p, eps, coords, seed):
    # ``seed`` is unused: no entry point takes one
    x = LambdaPoint(*(coords or (1.0, 1.0, 1.0)))
    with pytest.raises(UcxError):
        _calls(p, eps, x)[name]()


@pytest.mark.parametrize("name, p, eps", [
    ("verify_appendix", 1.5, 1e-300),  # 2 eps^-p overflowed float64 before the tangency form
    ("sharpness_check", 1.5, 1e-300),
    # w**(1 - p) overflows at a subnormal w once p is near 2; the drawn
    # inputs above never pair such p with eps = 5e-324
    ("certificate", 1.999, 5e-324),
    ("verify_appendix", 1.999, 5e-324),
    ("sharpness_check", 1.999, 5e-324),
])
def test_tiny_eps_accepted(name, p, eps):
    result = _calls(p, eps, LambdaPoint(1.0, 1.0, 1.0))[name]()
    if isinstance(result, Certificate):
        assert all(math.isfinite(c) for c in result.c)
        return
    reports = result if isinstance(result, list) else [result]
    assert reports and all(report.passed for report in reports)


@pytest.mark.parametrize("p, eps", [
    (3.0, 1.0), (2000.0, 1.0), (1e300, 1.0), (1.5, 1e-300), (3.0, 1e-300),
    # a subnormal delta; an atom value eps/2 that would round to 0; p log u at huge p; eps = 2
    (1.5, 1e-154), (1.5, 5e-324), (3.0, 5e-324), (1e10, 2.0 - 1e-12), (1e300, 2.0), (2.0, 2.0),
])
def test_midpoint_contraction_has_no_ceiling_on_p(p, eps):
    # the extremal pair's norm is taken in logs, so no p overflows it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = midpoint_contraction(p, eps)
    assert report.passed and report.worst_arg == pytest.approx(eps, rel=1e-15)
    assert report.worst_value == pytest.approx(1.0 - delta(p, eps), rel=1e-15)


def test_huge_query_keeps_a_finite_value():
    # the mass 2 x1 overflowed float64 from x1 = 2**1023 on, and the value and
    # the active weight came back inf; the value here is x1 up to rounding
    x = LambdaPoint(1.7e308, 1.7e308, 1.0)
    result = concavify(sample_boundary(3.0, 24), x)
    assert result.result == pytest.approx(x.x1, rel=1e-15)
    assert result.active_weights and all(math.isfinite(w) for _, w in result.active_weights)
