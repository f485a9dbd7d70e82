"""Exception types shared across sadp modules: one class per exit code.

Every sadp error is a `SadpError`, a `ValueError` whose `exit_code` is the
one place its `sadp` exit code is written: 2 for an invalid input or a run
that diverged, 3 for an infeasible budget, 4 for a malformed data file. The
message says what failed; `cli.main` prints it as one `error:` line and
returns that code.
"""


class SadpError(ValueError):
    """An input sadp rejects or a run it cannot complete (exit 2)."""

    exit_code = 2


class BudgetInfeasibleError(SadpError):
    """The epsilon budget does not cover a single charged iteration."""

    exit_code = 3


class DataFileError(SadpError):
    """A data, checkpoint or trace file is malformed."""

    exit_code = 4
