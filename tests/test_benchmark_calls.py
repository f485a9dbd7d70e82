"""Smoke test of the calls the benchmark (perfbench/) makes into sadp.

perfbench builds AccountantState(q=, sigma=, delta=), inverts the budget with
max_steps_within(acct, budget), and marks the end of a run's last candidate
by its one accountant.spend call; one short traced run checks all three.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def test_traced_benchmark_run_sees_one_spend_per_run():
    pytest.importorskip("scipy", reason="perfbench/run.py imports scipy")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "softmax_eps3", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["accountant.spend_calls"] == 1
    assert metrics["data.poisson_sample_calls"] == metrics["harness.candidate_calls"] > 0
