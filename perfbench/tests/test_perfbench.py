"""Self-tests of the benchmark: span arithmetic, output checks, generator.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import outputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Spans, Tracer, candidates, p50_and_tail, self_times, window_self_by_layer  # noqa: E402


def spans_of(rows) -> Spans:
    """rows of (name, start, end, parent[, value])."""
    rows = [tuple(r) + (math.nan,) * (5 - len(r)) for r in rows]
    return Spans(
        name=[r[0] for r in rows],
        start=np.asarray([r[1] for r in rows], dtype=np.float64),
        end=np.asarray([r[2] for r in rows], dtype=np.float64),
        parent=np.asarray([r[3] for r in rows], dtype=np.int64),
        value=np.asarray([r[4] for r in rows], dtype=np.float64),
    )


# cli.main [0, 10)
#   harness.train [1, 9)
#     accountant.max_steps_within [1, 3)
#       accountant.spend [1.5, 2.0)
#       accountant.spend [2.0, 2.75)
#     data.poisson_sample [4, 4.5)    candidate 1: [4, 6)
#     models.evaluate [5, 5.5)
#     data.poisson_sample [6, 6.25)   candidate 2: [6, 8)
#     accountant.spend [8, 8.5)       final spend ends the last candidate
TREE = [
    ("cli.main", 0.0, 10.0, -1),
    ("harness.train", 1.0, 9.0, 0),
    ("accountant.max_steps_within", 1.0, 3.0, 1),
    ("accountant.spend", 1.5, 2.0, 2),
    ("accountant.spend", 2.0, 2.75, 2),
    ("data.poisson_sample", 4.0, 4.5, 1, 3.0),
    ("models.evaluate", 5.0, 5.5, 1),
    ("data.poisson_sample", 6.0, 6.25, 1, 5.0),
    ("accountant.spend", 8.0, 8.5, 1),
]


def test_self_time_is_duration_minus_direct_children():
    own = self_times(spans_of(TREE))
    assert own.tolist() == [2.0, 4.25, 0.75, 0.5, 0.75, 0.5, 0.5, 0.25, 0.5]
    # the nested spends are not subtracted twice from cli.main
    assert own.sum() == pytest.approx(10.0)


def test_window_self_time_clips_straddling_parents():
    by_layer = window_self_by_layer(spans_of(TREE), 0.0, 4.0)
    # cli.main [0,1) = 1; harness.train [3,4) = 1; max_steps_within self 0.75;
    # the two nested spends 1.25
    assert by_layer == pytest.approx({"cli": 1.0, "harness": 1.0, "accountant": 2.0})
    # over the whole run the windowed arithmetic is plain self time per layer
    spans = spans_of(TREE)
    expected = {}
    for i, own in enumerate(self_times(spans)):
        expected[spans.layer(i)] = expected.get(spans.layer(i), 0.0) + own
    assert window_self_by_layer(spans, 0.0, 10.0) == pytest.approx(expected)


def test_candidates_run_between_samples_and_end_at_final_spend():
    got = candidates(spans_of(TREE))
    # candidate 1 covers the sample (0.5) and evaluate (0.5); candidate 2 the sample
    assert got == [(4.0, 6.0, 1.0), (6.0, 8.0, 1.75)]


def test_run_shares_partition_the_candidate_loop():
    shares = layers.run_shares(spans_of(TREE))
    loop = {k: v for k, v in shares.items() if k.startswith("candidate_share.")}
    assert sum(loop.values()) == pytest.approx(1.0)
    # loop time 4.0 s: samples 0.75, evaluate 0.5, harness self 2.75
    assert shares["candidate_share.sample"] == pytest.approx(0.75 / 4.0)
    assert shares["candidate_share.harness_self"] == pytest.approx(2.75 / 4.0)
    assert shares["setup_share.accountant"] == pytest.approx(2.0 / 4.0)


def test_tracer_records_nesting_and_probe_time(tmp_path):
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda x: x + 1, probe=lambda args, res: float(res))
    outer = tracer.wrap("m.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    tracer.save(tmp_path / "s.npz")
    spans = Spans.load(tmp_path / "s.npz")
    assert spans.name == ["m.outer", "m.inner", "perfbench.probe"]
    assert spans.parent.tolist() == [-1, 0, 0]
    assert spans.value[1] == 2.0
    assert self_times(spans).min() >= 0.0


def test_tail_is_highest_percentile_with_ten_calls_beyond():
    assert p50_and_tail(np.arange(20.0))[2] == 50.0
    assert p50_and_tail(np.arange(200.0))[2] == 95.0
    assert p50_and_tail(np.arange(10_000.0))[2] == 99.9
    assert p50_and_tail([1.0, 2.0, 3.0]) == (2.0, 2.0, 50.0)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def sadp_run(tmp_path_factory):
    """A short real run of a shrunken tabular workload: (workload, out dir)."""
    from sadp import cli, data

    out = tmp_path_factory.mktemp("run")
    small = dataclasses.replace(
        workloads.WORKLOADS["tabular_long"], rows=400,
        config={**workloads.WORKLOADS["tabular_long"].config, "max_iters": 30},
    )
    config = workloads.generate(small, 3, out / "inputs", data)
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
    return small, out


def test_valid_run_passes_every_check(sadp_run):
    from sadp import models

    workload, out = sadp_run
    problems, summary = outputs.check_trace((out / "trace.csv").read_text(), 10.0, None)
    assert problems == []
    assert summary.t == 30 and summary.tau <= 30
    assert outputs.check_params(out / "final.params", workload.n_params, models.load_checkpoint) == []
    assert outputs.check_same_trace(summary.sha256, summary.sha256) == []


def _corrupt(text, row, column, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[outputs.TRACE_COLUMNS.index(column)] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "mutate, budget, max_charged, message",
    [
        (lambda s: s.replace("epsilon_so_far", "eps", 1), None, None, "header"),
        (lambda s: _corrupt(s, 5, "t", "17"), None, None, "1..t"),
        (lambda s: _corrupt(s, 2, "tau", "9"), None, None, "tau exceeds"),
        (lambda s: _corrupt(s, 3, "epsilon_so_far", "11.0"), 10.0, None, "budget"),
        (lambda s: _corrupt(s, -1, "eval_loss", "nan"), None, None, "non-finite"),
        (lambda s: s, None, 10_000, "stopped at"),
        (lambda s: s.splitlines()[0] + "\n", None, None, "no rows"),
    ],
)
def test_trace_check_rejects_corruption(sadp_run, mutate, budget, max_charged, message):
    text = mutate((sadp_run[1] / "trace.csv").read_text())
    problems, _ = outputs.check_trace(text, budget, max_charged)
    assert any(message in p for p in problems), problems


def test_params_check_rejects_wrong_length_and_garbage(sadp_run, tmp_path):
    from sadp import models

    workload, out = sadp_run
    assert outputs.check_params(out / "final.params", workload.n_params + 1, models.load_checkpoint)
    bad = tmp_path / "bad.params"
    bad.write_bytes(b"not a checkpoint")
    assert outputs.check_params(bad, workload.n_params, models.load_checkpoint)


def test_same_trace_check_rejects_a_different_digest(sadp_run):
    text = (sadp_run[1] / "trace.csv").read_text()
    _, summary = outputs.check_trace(text, None, None)
    other = hashlib.sha256((text + "\n").encode()).hexdigest()
    assert outputs.check_same_trace(other, summary.sha256)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name, tmp_path):
    from sadp import data

    small = dataclasses.replace(workloads.WORKLOADS[name], rows=120)
    digests = []
    for run_dir, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.generate(small, seed, tmp_path / run_dir, data)
        files = sorted(p for p in (tmp_path / run_dir).iterdir() if p.suffix != ".cfg")
        digests.append([hashlib.sha256(p.read_bytes()).hexdigest() for p in files])
    assert digests[0] == digests[1] != digests[2]
    if small.fmt == "csv":
        loaded = data.load_csv(tmp_path / "a" / "table.csv")
    else:
        loaded = data.load_idx(tmp_path / "a" / "images.idx", tmp_path / "a" / "labels.idx")
    assert loaded.features.shape == (120, small.dim)
    assert set(np.unique(loaded.labels)) <= set(range(small.classes))
    assert math.isfinite(float(loaded.features.sum()))
