"""Exception types shared across the package."""


class UcxError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(UcxError):
    """An argument is outside the mathematical domain of the operation."""


class NoSignChangeError(UcxError):
    """Root bracket endpoints do not straddle a sign change."""


class NonFiniteError(UcxError):
    """A function evaluation produced NaN or infinity."""


class InfeasibleError(UcxError):
    """A query lies outside the cone or outside the sampled part of it."""


class NegativeCoordinateError(UcxError):
    """Moment coordinates must be finite and nonnegative."""


class OutOfRangeError(UcxError):
    """Slice parameter outside the parametrized range."""


class WrongRegimeError(UcxError):
    """Operation called with an exponent from the wrong regime."""


class NoFeasiblePairError(UcxError):
    """No restart of the step-pair search reached a pair with the query's moments."""


class WitnessError(UcxError):
    """A search witness's moments miss its query point by more than rounding."""
