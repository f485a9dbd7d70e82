"""Exception types raised by more than one sadp module."""


class NonFiniteInputError(ValueError):
    """An input, gradient or energy change contained NaN or Inf."""


class DimensionMismatchError(ValueError):
    """Array shapes or lengths disagree."""
