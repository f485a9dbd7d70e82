"""Exception types shared across sadp modules.

Every sadp error is a `SadpError`, a `ValueError` whose `exit_code` is the
one place its `sadp` exit code is written: 2 unless a class says otherwise,
3 for an infeasible budget, 4 for a malformed data file. `cli.main` prints
any of them as one `error:` line and returns that code.
"""


class SadpError(ValueError):
    """An input sadp rejects or a run it cannot complete (exit 2)."""

    exit_code = 2


class NonFiniteInputError(SadpError):
    """An input, gradient or energy change contained NaN or Inf."""


class DimensionMismatchError(SadpError):
    """Array shapes or lengths disagree."""


class NonFiniteParametersError(SadpError):
    """A parameter vector has NaN or Inf entries, or a run's energy went non-finite."""


class EmptyDatasetError(SadpError):
    """A loss was asked for over zero examples."""


class InvalidConfigError(SadpError):
    """A training config key or value is invalid."""


class InvalidParameterError(InvalidConfigError):
    """An argument (privacy, model, clipping, sampling, generator) is outside its valid range."""


class BudgetInfeasibleError(SadpError):
    """The epsilon budget does not cover a single charged iteration."""

    exit_code = 3


class DataFileError(SadpError):
    """A data, checkpoint or trace file is malformed."""

    exit_code = 4


class BadMagicError(DataFileError):
    """An IDX file starts with the wrong magic number."""


class TruncatedFileError(DataFileError):
    """An IDX file ends before the sizes in its header say it should."""


class CountMismatchError(DataFileError):
    """Feature rows and labels differ in number."""
