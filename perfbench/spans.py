"""Span tracing from outside the program, and the arithmetic on spans.

`Tracer.install` replaces each public function of a module with a wrapper on
the module object. Callers that look the function up through the module,
including the module's own calls through its globals, then record a span
(name, start, end, parent). Spans stay in memory and are written once, at
exit.

Self time of a span is its duration minus the durations of its direct
children. Spans come from one thread, so children nest inside their parent
and never overlap each other.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass

import numpy as np

ROOT = -1
PROBE_LAYER = "perfbench"
PROBE = f"{PROBE_LAYER}.probe"   # time the wrappers spend measuring, not the program
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.rows: list[list] = []      # [name_id, start, end, parent, value]
        self._stack = [ROOT]
        self._ids: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, probe=None):
        """Wraps fn; probe(args, result) -> float is stored as the span value.

        The probe's own time is recorded as a PROBE child of the caller, so it
        is subtracted from the caller's self time.
        """
        nid = self._name_id(name)
        probe_id = self._name_id(PROBE)
        rows, stack, clock = self.rows, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [nid, 0.0, 0.0, stack[-1], math.nan]
            rows.append(row)
            stack.append(len(rows) - 1)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if probe is not None:
                p0 = clock()
                row[4] = probe(args, result)
                rows.append([probe_id, p0, clock(), stack[-1], math.nan])
            return result

        return traced

    def install(self, module, layer: str, probes: dict | None = None) -> None:
        """Wraps every public function defined in `module`."""
        probes = probes or {}
        for attr, obj in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
            ):
                continue
            setattr(module, attr, self.wrap(f"{layer}.{attr}", obj, probes.get(attr)))

    def save(self, path) -> None:
        table = np.asarray(self.rows, dtype=np.float64).reshape(-1, 5)
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=table[:, 0].astype(np.int64),
            start=table[:, 1],
            end=table[:, 2],
            parent=table[:, 3].astype(np.int64),
            value=table[:, 4],
        )


@dataclass
class Spans:
    """One traced run: parallel arrays, row i is span i."""

    name: list[str]
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    value: np.ndarray

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as z:
            names = [str(n) for n in z["names"]]
            return cls(
                name=[names[i] for i in z["name_id"]],
                start=z["start"], end=z["end"], parent=z["parent"],
                value=z["value"],
            )

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def indices(self, name: str) -> np.ndarray:
        return np.asarray([i for i, n in enumerate(self.name) if n == name], dtype=np.int64)

    def layer(self, i: int) -> str:
        return self.name[i].split(".", 1)[0]


def self_times(spans: Spans) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    child_total = np.zeros(len(spans.name))
    has_parent = spans.parent >= 0
    np.add.at(child_total, spans.parent[has_parent], spans.duration[has_parent])
    return spans.duration - child_total


def window_self_by_layer(spans: Spans, lo: float, hi: float) -> dict[str, float]:
    """Self time per layer inside [lo, hi).

    A span's self time in the window is its overlap with the window minus
    its direct children's overlaps, so a parent that straddles the window
    (cli.main, harness.train) contributes only its own work inside it.
    """
    overlap = np.clip(np.minimum(spans.end, hi) - np.maximum(spans.start, lo), 0.0, None)
    own = overlap.copy()
    has_parent = spans.parent >= 0
    np.subtract.at(own, spans.parent[has_parent], overlap[has_parent])
    totals: dict[str, float] = {}
    for i in np.flatnonzero(overlap > 0):
        layer = spans.layer(i)
        totals[layer] = totals.get(layer, 0.0) + float(own[i])
    return totals


def candidates(spans: Spans) -> list[tuple[float, float, float]]:
    """(start, end, harness self time) of each training candidate.

    A candidate runs from one `data.poisson_sample` call in `harness.train`
    to the next; the last one ends where `harness.train` calls the final
    `accountant.spend`. Its self time is the span minus every direct child of
    `harness.train` inside it: what the loop body does in code the tracer
    does not know (records, eps_at, state copies).
    """
    (train,) = spans.indices("harness.train")
    children = np.flatnonzero(spans.parent == train)
    starts = [spans.start[i] for i in children if spans.name[i] == "data.poisson_sample"]
    if not starts:
        return []
    final_spend = max(
        (spans.start[i] for i in children if spans.name[i] == "accountant.spend"),
        default=spans.end[train],
    )
    bounds = np.asarray([*starts, final_spend])
    # children are recorded in call order, so their starts are sorted
    covered = np.concatenate([[0.0], np.cumsum(spans.duration[children])])
    first = np.searchsorted(spans.start[children], bounds, side="left")
    own = np.diff(bounds) - (covered[first[1:]] - covered[first[:-1]])
    return [(float(lo), float(hi), float(s)) for lo, hi, s in zip(bounds[:-1], bounds[1:], own)]


def p50_and_tail(values) -> tuple[float, float, float]:
    """(median, tail value, tail percentile).

    The tail is the highest percentile of TAIL_LADDER with at least
    MIN_BEYOND_TAIL samples beyond it; with too few samples it is the median.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    pct = next(
        (p for p in TAIL_LADDER if round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND_TAIL),
        50.0,
    )
    return float(np.median(values)), float(np.percentile(values, pct)), pct
