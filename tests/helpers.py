"""Numerical helpers that only the tests use."""


def central_diff(fn, s: float, h: float) -> float:
    """Symmetric difference quotient (fn(s+h) - fn(s-h)) / 2h."""
    if not (h > 0.0):
        raise ValueError(f"step must be positive, got {h}")
    return (float(fn(s + h)) - float(fn(s - h))) / (2.0 * h)
