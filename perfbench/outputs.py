"""Checks on what one `sadp train` run wrote. Each returns a list of problems
(empty when the check passed); `check_trace` also returns a summary."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

# the documented trace contract, kept here rather than imported from sadp so
# that a change to sadp's columns fails the check
TRACE_COLUMNS = [
    "t", "tau", "mu", "Q", "delta_E", "P", "accepted", "forced",
    "eval_loss", "eval_accuracy", "epsilon_so_far",
]


@dataclass(frozen=True)
class TraceSummary:
    t: int
    tau: int
    forced: int
    eval_loss: float
    epsilon: float
    sha256: str
    n_bytes: int


def check_trace(
    text: str, budget: float | None, max_charged: int | None
) -> tuple[list[str], TraceSummary | None]:
    """Header, 1..t numbering, tau <= t, the epsilon budget and, for a
    budgeted run, a stop at exactly `max_charged` charged steps."""
    lines = text.splitlines()
    if not lines or lines[0].split(",") != TRACE_COLUMNS:
        return ["trace header differs from the 11 documented columns"], None
    rows = [dict(zip(TRACE_COLUMNS, line.split(","))) for line in lines[1:]]
    if not rows:
        return ["trace has no rows"], None
    problems = []
    try:
        ts = [int(r["t"]) for r in rows]
        taus = [int(r["tau"]) for r in rows]
        eps = [float(r["epsilon_so_far"]) for r in rows]
        forced = sum(r["forced"] == "true" for r in rows)
        loss = float(rows[-1]["eval_loss"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unparseable trace row: {exc}"], None
    if ts != list(range(1, len(rows) + 1)):
        problems.append("t does not run 1..t")
    if any(tau > t for tau, t in zip(taus, ts)):
        problems.append("tau exceeds t")
    if budget is not None and any(not e <= budget for e in eps):
        problems.append(f"epsilon_so_far exceeds the budget {budget}")
    if not all(math.isfinite(e) for e in eps) or not math.isfinite(loss):
        problems.append("non-finite epsilon_so_far or eval_loss")
    if max_charged is not None and taus[-1] != max_charged:
        problems.append(f"budgeted run stopped at tau={taus[-1]}, not {max_charged}")
    raw = text.encode()
    summary = TraceSummary(
        t=ts[-1], tau=taus[-1], forced=forced, eval_loss=loss, epsilon=eps[-1],
        sha256=hashlib.sha256(raw).hexdigest(), n_bytes=len(raw),
    )
    return problems, summary


def check_params(path: Path, n_params: int, load_checkpoint) -> list[str]:
    """`load_checkpoint` is `sadp.models.load_checkpoint`."""
    try:
        w = load_checkpoint(path)
    except (OSError, ValueError) as exc:
        return [f"final.params does not load: {exc}"]
    if len(w) != n_params:
        return [f"final.params has {len(w)} values, expected {n_params}"]
    return []


def check_same_trace(sha256: str, reference: str | None) -> list[str]:
    """Every run of one (workload, seed) must write a byte-identical trace."""
    if reference is not None and sha256 != reference:
        return ["trace SHA-256 differs from the first run of this seed"]
    return []
