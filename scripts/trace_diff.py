"""Compare two `sadp train` traces column by column, or two run directories.

    python scripts/trace_diff.py A.csv B.csv | RUN_A RUN_B

The decision columns (t, tau, mu, accepted, forced, epsilon_so_far) must
be identical as text; every float column's largest relative difference is
printed, eval_accuracy's too: an accuracy is an output, not a decision.
Given two run directories (each the `--out` of `sadp train`), it compares
their trace.csv files the same way, then their final.params: byte-equal,
or else the largest relative difference of the parameters. Each
final.params is read by `sadp.models.load_checkpoint`, from this
checkout's src/. Exits 1 if a
decision column differs, the row counts differ or the parameter counts
differ; 2 on a usage error, or with one `error:` line naming the file (and
line) when a file cannot be read, a trace is not UTF-8, lacks the header of
`sadp.harness.TRACE_COLUMNS`, has a row without 11 fields, an integer
column that is not an integer, a boolean column that is not true/false or a
float column that is not a number, or a final.params is not a valid
checkpoint; 0 otherwise: a change that only moves the last digits of a loss
passes and shows by how much.
"""

from __future__ import annotations

import math
import sys
import typing
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from sadp import models
from sadp.errors import DataFileError
from sadp.harness import TRACE_COLUMNS, IterationRecord

IDENTICAL = ("t", "tau", "mu", "accepted", "forced", "epsilon_so_far")
# each column's type, as IterationRecord declares it
_TYPES = typing.get_type_hints(IterationRecord)
INTS, BOOLS, FLOATS = (tuple(c for c in TRACE_COLUMNS if _TYPES[c] is t) for t in (int, bool, float))


def _read(path) -> list[list[str]]:
    """The rows of a trace under its header; a malformed file raises
    DataFileError naming it, and the line for a malformed row."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataFileError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if not lines or lines[0].split(",") != TRACE_COLUMNS:
        raise DataFileError(f"{path}: unexpected trace header")
    rows = [line.split(",") for line in lines[1:]]
    for lineno, row in enumerate(rows, start=2):
        try:
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"{len(row)} fields, expected {len(TRACE_COLUMNS)}")
            for name in INTS:
                int(row[TRACE_COLUMNS.index(name)])
            for name in BOOLS:
                if (text := row[TRACE_COLUMNS.index(name)]) not in ("true", "false"):
                    raise ValueError(f"not a boolean: {text!r}")
            for name in FLOATS:
                float(row[TRACE_COLUMNS.index(name)])
        except ValueError as exc:
            raise DataFileError(f"{path}:{lineno}: {exc}") from None
    return rows


def _rel_diff(a, b) -> float:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def diff_traces(path_a, path_b) -> bool:
    """Prints the comparison; True if the traces agree in every decision.
    A malformed trace raises DataFileError naming it."""
    rows_a, rows_b = _read(path_a), _read(path_b)
    if len(rows_a) != len(rows_b):
        print(f"row counts differ: {len(rows_a)} vs {len(rows_b)}")
        return False
    failed = False
    for name in IDENTICAL:
        j = TRACE_COLUMNS.index(name)
        bad = [i for i, (ra, rb) in enumerate(zip(rows_a, rows_b)) if ra[j] != rb[j]]
        if bad:
            failed = True
            i = bad[0]
            print(f"{name}: {len(bad)} rows differ, first at t={rows_a[i][0]}: "
                  f"{rows_a[i][j]} vs {rows_b[i][j]}")
    for name in FLOATS:
        j = TRACE_COLUMNS.index(name)
        worst = max((_rel_diff(ra[j], rb[j]) for ra, rb in zip(rows_a, rows_b)), default=0.0)
        print(f"{name}: max relative difference {worst:.3g}")
    print(f"{len(rows_a)} rows, decision columns {'DIFFER' if failed else 'identical'}")
    return not failed


def diff_params(path_a, path_b) -> bool:
    """Prints the comparison; True if the parameter counts agree. A file
    that is not a valid checkpoint raises DataFileError naming it."""
    a, b = models.load_checkpoint(path_a), models.load_checkpoint(path_b)
    if Path(path_a).read_bytes() == Path(path_b).read_bytes():
        print("final.params: byte-equal")
        return True
    if len(a) != len(b):
        print(f"final.params: parameter counts differ: {len(a)} vs {len(b)}")
        return False
    worst = max(map(_rel_diff, a, b), default=0.0)
    print(f"final.params: max relative difference {worst:.3g}")
    return True


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or Path(args[0]).is_dir() != Path(args[1]).is_dir():
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = map(Path, args)
    try:
        if not a.is_dir():
            return 0 if diff_traces(a, b) else 1
        same_traces = diff_traces(a / "trace.csv", b / "trace.csv")
        same_params = diff_params(a / "final.params", b / "final.params")
    except (DataFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if same_traces and same_params else 1


if __name__ == "__main__":
    sys.exit(main())
