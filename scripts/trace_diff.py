"""Compare two `sadp train` traces column by column.

    python scripts/trace_diff.py A.csv B.csv

The decision columns (t, tau, mu, accepted, forced, eval_accuracy,
epsilon_so_far) must be identical as text; every float column's largest
relative difference is printed. Exits 1 if a decision column differs, the
headers differ or the row counts differ, 2 on a usage error, 0 otherwise: a
change that only moves the last digits of a loss passes and shows by how
much.
"""

from __future__ import annotations

import csv
import math
import sys

IDENTICAL = ("t", "tau", "mu", "accepted", "forced", "eval_accuracy", "epsilon_so_far")
FLOATS = ("Q", "delta_E", "P", "eval_loss", "eval_accuracy", "epsilon_so_far")


def _read(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _rel_diff(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    (head_a, rows_a), (head_b, rows_b) = _read(args[0]), _read(args[1])
    if head_a != head_b:
        print(f"headers differ: {head_a} vs {head_b}")
        return 1
    if len(rows_a) != len(rows_b):
        print(f"row counts differ: {len(rows_a)} vs {len(rows_b)}")
        return 1
    failed = False
    for name in IDENTICAL:
        j = head_a.index(name)
        bad = [i for i, (ra, rb) in enumerate(zip(rows_a, rows_b)) if ra[j] != rb[j]]
        if bad:
            failed = True
            i = bad[0]
            print(f"{name}: {len(bad)} rows differ, first at t={rows_a[i][0]}: "
                  f"{rows_a[i][j]} vs {rows_b[i][j]}")
    for name in FLOATS:
        j = head_a.index(name)
        worst = max((_rel_diff(ra[j], rb[j]) for ra, rb in zip(rows_a, rows_b)), default=0.0)
        print(f"{name}: max relative difference {worst:.3g}")
    print(f"{len(rows_a)} rows, decision columns {'DIFFER' if failed else 'identical'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
