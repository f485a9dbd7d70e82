"""Exception types shared across sadp modules; `cli.main` maps them to exit codes."""


class NonFiniteInputError(ValueError):
    """An input, gradient or energy change contained NaN or Inf."""


class DimensionMismatchError(ValueError):
    """Array shapes or lengths disagree."""


class NonFiniteParametersError(ValueError):
    """A parameter vector has NaN or Inf entries, as after a diverged run (exit 2)."""


class EmptyDatasetError(ValueError):
    """A loss was asked for over zero examples."""


class InvalidConfigError(ValueError):
    """A training config key or value is invalid (exit 2)."""


class InvalidParameterError(ValueError):
    """A privacy parameter is outside its valid range (exit 2)."""


class BudgetInfeasibleError(ValueError):
    """The epsilon budget does not cover a single charged iteration (exit 3)."""


class DataFileError(ValueError):
    """A data file is malformed (exit 4)."""


class BadMagicError(DataFileError):
    """An IDX file starts with the wrong magic number."""


class TruncatedFileError(DataFileError):
    """An IDX file ends before the sizes in its header say it should."""


class CountMismatchError(DataFileError):
    """Feature rows and labels differ in number."""
