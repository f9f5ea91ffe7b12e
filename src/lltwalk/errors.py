"""Exception hierarchy.

The CLI maps these onto exit codes: validation failures exit 1, resource
limits exit 2, failed internal cross-checks exit 3.
"""


class LltWalkError(Exception):
    """Base class for all package errors."""


class ValidationError(LltWalkError):
    """Rejected input (bad pmf, bad walk hypothesis, bad config file)."""


class NotNormalized(ValidationError):
    pass


class NotSymmetric(ValidationError):
    pass


class NotAntisymmetric(ValidationError):
    pass


class Periodic(ValidationError):
    pass


class Reducible(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class MissingUnperturbedFlag(ValidationError):
    """Exit law has zero mean; caller must opt in explicitly."""


class LawTooLarge(ValidationError):
    """A law's dense box or one of its weights is past what a float64 box holds."""


class SpecFileError(ValidationError):
    """Config file parse error. Message carries file name and line number."""


class GridTooSmall(ValidationError):
    pass


class OrderTooHigh(ValidationError):
    pass


class DegreeTooLarge(ValidationError):
    pass


class CoeffOrderMismatch(ValidationError):
    pass


class SingularCovariance(ValidationError):
    pass


class OriginUndefined(ValidationError):
    """The two-dimensional correction term is singular at x = 0."""


class ResourceLimit(LltWalkError):
    """An exact computation would exceed the configured memory cap."""


class CrossCheckError(LltWalkError):
    """Two independently computed results disagree beyond tolerance."""


class NoConvergence(LltWalkError):
    """Abel extrapolation did not stabilize within the requested tolerance."""
