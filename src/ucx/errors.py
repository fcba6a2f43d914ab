"""Exception types shared across the package."""


class UcxError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(UcxError):
    """An argument is outside the mathematical domain of the operation.

    This covers a root bracket whose ends do not straddle a sign change, a
    negative or non-finite moment coordinate, and an exponent from the
    wrong regime for the operation.
    """


class NonFiniteError(UcxError):
    """A function evaluation produced NaN or infinity."""


class InfeasibleError(UcxError):
    """A query lies outside the cone or outside the sampled part of it."""


class WitnessError(UcxError):
    """A search witness's moments miss its query point by more than rounding."""
