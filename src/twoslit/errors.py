"""Exception types shared across the package."""


class TwoSlitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(TwoSlitError):
    """Operands have incompatible or invalid dimensions."""


class ModeError(TwoSlitError):
    """Block partition length does not select a supported detector mode."""


class ParamRangeError(TwoSlitError):
    """A family parameter lies outside its admissible open interval."""


class SeedError(TwoSlitError):
    """A seed vector that must be nonzero is zero."""


class StateShapeError(TwoSlitError):
    """A state vector violates the block support pattern required here."""


class NonCommutingError(TwoSlitError):
    """Conditional probability requested for non-commuting projectors."""


class ZeroConditioningError(TwoSlitError):
    """Conditioning event has zero probability on the given state."""


class ZeroDivisorError(TwoSlitError, ZeroDivisionError):
    """A quantity some formula divides by is zero (a coefficient, or a
    detector count that conditions a probability)."""


class FormatError(TwoSlitError):
    """JSON input holds a value of the wrong type or form."""
