"""Per-layer metrics of the traced runs, named after the `sadp` modules.

METRICS lists every per-layer metric with its unit; `BENCHMARK.json` lists the
same names. A function a workload never calls reports 0 (and 0 calls).
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import PROBE_LAYER, Spans, candidates, p50_and_tail, window_self_by_layer

LAYERS = ("data", "models", "dp_optimizer", "annealer", "accountant", "harness", "cli")
SCALE = {"ms": 1e3, "us": 1e6}

# (metric base, traced function, unit): one timing per call
PER_CALL = (
    ("models.grads", "models.per_example_losses_grads", "ms"),
    ("dp_optimizer.clip", "dp_optimizer.clip_batch", "ms"),
    ("models.evaluate", "models.evaluate", "ms"),
    ("dp_optimizer.noisy_average", "dp_optimizer.noisy_average", "ms"),
    ("dp_optimizer.sgd_step", "dp_optimizer.sgd_step", "us"),
    ("data.poisson_sample", "data.poisson_sample", "us"),
    ("annealer.decide", "annealer.decide", "us"),
    ("annealer.advance", "annealer.advance", "us"),
    ("accountant.spend", "accountant.spend", "ms"),
)
# (metric, traced function): total time per run, median over traced runs
PER_RUN = (
    ("data.load_idx_ms", "data.load_idx"),
    ("data.split_ms", "data.split"),
    ("data.load_csv_ms", "data.load_csv"),
    ("accountant.max_steps_within_ms", "accountant.max_steps_within"),
    ("harness.load_config_ms", "harness.load_config"),
    ("harness.emit_trace_ms", "harness.emit_trace"),
    ("models.save_checkpoint_ms", "models.save_checkpoint"),
)
# candidate-loop shares: part -> functions called directly by harness.train
CANDIDATE_PARTS = {
    "grads_clip": ("models.per_example_losses_grads", "dp_optimizer.clip_batch"),
    "evaluate": ("models.evaluate",),
    "noise_step": ("dp_optimizer.noisy_average", "dp_optimizer.sgd_step"),
    "sample": ("data.poisson_sample",),
    "annealer": ("annealer.decide", "annealer.advance"),
}
SETUP_LAYERS = ("cli", "harness", "data", "models", "accountant")

METRICS: dict[str, str] = {}
for _base, _fn, _unit in (*PER_CALL, ("harness.candidate", None, "ms")):
    METRICS[f"{_base}_{_unit}.p50"] = _unit
    METRICS[f"{_base}_{_unit}.tail"] = _unit
    METRICS[f"{_base}_calls"] = "count"
    METRICS[f"{_base}_tail_pct"] = "%"
METRICS.update({name: "ms" for name, _ in PER_RUN})
METRICS.update({
    "models.grad_matrix_mib": "MiB",
    "models.evaluate_rows": "count",
    "dp_optimizer.clipped_fraction": "ratio",
    "data.batch_rows_mean": "count",
    "accountant.charged_steps": "count",
    "annealer.accept_ratio": "ratio",
    "annealer.forced_ratio": "ratio",
    "harness.self_us_per_candidate": "us",
    "harness.trace_bytes": "bytes",
    "trace_overhead_ratio": "ratio",
})
METRICS.update({f"self_share.{layer}": "ratio" for layer in LAYERS})
METRICS.update({f"candidate_share.{p}": "ratio" for p in (*CANDIDATE_PARTS, "harness_self")})
METRICS.update({f"setup_share.{layer}": "ratio" for layer in SETUP_LAYERS})


def _values(spans: Spans, fn: str, field: str = "duration") -> np.ndarray:
    idx = spans.indices(fn)
    source = spans.duration if field == "duration" else spans.value
    return source[idx]


def run_shares(spans: Spans) -> dict[str, float]:
    """Self-time shares of one traced run: whole run, candidate loop, setup."""
    (main,) = spans.indices("cli.main")
    lo, hi = spans.start[main], spans.end[main]
    out = {}
    whole = window_self_by_layer(spans, lo, hi)
    busy = sum(v for k, v in whole.items() if k != PROBE_LAYER)
    for layer in LAYERS:
        out[f"self_share.{layer}"] = whole.get(layer, 0.0) / busy

    cands = candidates(spans)
    (train,) = spans.indices("harness.train")
    direct = spans.parent == train
    parts = {}
    for part, fns in CANDIDATE_PARTS.items():
        mask = direct & np.isin(np.asarray(spans.name), fns)
        parts[part] = float(spans.duration[mask].sum())
    parts["harness_self"] = sum(c[2] for c in cands)
    loop = sum(parts.values())
    for part, seconds in parts.items():
        out[f"candidate_share.{part}"] = seconds / loop if loop else 0.0

    first = cands[0][0] if cands else hi
    setup = window_self_by_layer(spans, lo, first)
    setup_busy = sum(v for k, v in setup.items() if k != PROBE_LAYER)
    for layer in SETUP_LAYERS:
        out[f"setup_share.{layer}"] = setup.get(layer, 0.0) / setup_busy
    return out


def layer_metrics(traced: list[Spans], traces: list, plain_run_s: list[float],
                  traced_run_s: list[float]) -> dict[str, float]:
    """All METRICS from the traced runs' spans and trace summaries."""
    m: dict[str, float] = {}
    for base, fn, unit in PER_CALL:
        durations = np.concatenate([_values(s, fn) for s in traced]) * SCALE[unit]
        _timing(m, base, unit, durations, len(traced))
    cand = [c for s in traced for c in candidates(s)]
    _timing(m, "harness.candidate", "ms",
            np.asarray([hi - lo for lo, hi, _ in cand]) * 1e3, len(traced))
    for name, fn in PER_RUN:
        m[name] = statistics.median([float(_values(s, fn).sum()) * 1e3 for s in traced])

    def pooled(fn):
        return np.concatenate([_values(s, fn, "value") for s in traced])

    grads, evals, rows = (pooled(f) for f in (
        "models.per_example_losses_grads", "models.evaluate", "data.poisson_sample"))
    m["models.grad_matrix_mib"] = float(grads.max()) if len(grads) else 0.0
    m["models.evaluate_rows"] = float(evals.mean()) if len(evals) else 0.0
    m["dp_optimizer.clipped_fraction"] = (
        float(pooled("dp_optimizer.clip_batch").sum() / rows.sum()) if rows.sum() else 0.0
    )
    m["data.batch_rows_mean"] = float(rows.mean()) if len(rows) else 0.0
    charged = pooled("accountant.max_steps_within")
    m["accountant.charged_steps"] = float(charged.max()) if len(charged) else 0.0

    first = traces[0]       # every run of a seed writes the same trace
    m["annealer.accept_ratio"] = first.tau / first.t
    m["annealer.forced_ratio"] = first.forced / first.t
    m["harness.self_us_per_candidate"] = (
        float(np.mean([c[2] for c in cand])) * 1e6 if cand else 0.0
    )
    m["harness.trace_bytes"] = float(first.n_bytes)
    m["trace_overhead_ratio"] = (
        statistics.median(traced_run_s) / statistics.median(plain_run_s) - 1.0
    )

    shares = [run_shares(s) for s in traced]
    for key in shares[0]:
        m[key] = statistics.median([s[key] for s in shares])
    return m


def _timing(m: dict, base: str, unit: str, values: np.ndarray, runs: int) -> None:
    if len(values):
        p50, tail, pct = p50_and_tail(values)
    else:
        p50 = tail = pct = 0.0
    m[f"{base}_{unit}.p50"] = p50
    m[f"{base}_{unit}.tail"] = tail
    m[f"{base}_calls"] = len(values) / runs
    m[f"{base}_tail_pct"] = pct
