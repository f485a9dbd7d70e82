"""Benchmark of `sadp train`, run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (workloads.py), then starts one
training run after another, each `sadp.cli.main(["train", ...])` in a fresh
process (child.py), until S seconds have passed. Every run's outputs are
checked (outputs.py). With --trace 0 the last stdout line carries the
end-to-end metrics, medians over the runs. With --trace 1 untraced and traced
runs alternate, and it carries the per-layer metrics (layers.py) and the
tracing overhead. A JSON record with every run and the environment is
written to .perfbench_work/ in the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_PLAIN_RUNS = 3
HARD_LIMIT_S = 160.0       # the whole invocation must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "candidates_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "final_eval_loss": "nats",
    "epsilon_spent": "epsilon",
}


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "machine": platform.machine(),
    }


def run_once(cmd: list[str], cwd: Path, timeout: float):
    """Runs one child to completion; returns (exit code, stderr tail, seconds)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
        code, err = proc.returncode, proc.stderr[-2000:]
    except subprocess.TimeoutExpired:
        code, err = -1, f"timed out after {timeout:.0f} s"
    return code, err, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    if not (src / "sadp" / "__init__.py").is_file():
        print(f"perfbench: no sadp package under {src}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    from sadp import accountant, data, models

    import layers
    import outputs
    from spans import Spans

    started = time.perf_counter()
    work = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        config = workloads.generate(workload, args.seed, work / "inputs", data)
        generate_s = time.perf_counter() - started
        max_charged = None
        if workload.budget is not None:
            acct = accountant.AccountantState(
                q=min(workload.config["lot_size"] / workload.n_train, 1.0),
                sigma=workloads.COMMON["sigma"], delta=workloads.COMMON["delta"],
            )
            max_charged = accountant.max_steps_within(acct, workload.budget)

        runs, traced_spans, reference_sha = [], [], None
        measure_from = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - measure_from
            kinds = [r["kind"] for r in runs]
            if args.trace:
                kind = "traced" if kinds and kinds[-1] == "plain" else "plain"
                enough = "traced" in kinds and kind == "plain"
            else:
                kind = "plain"
                enough = len(kinds) >= MIN_PLAIN_RUNS
            longest = max((r["wall_s"] for r in runs), default=0.0)
            total = time.perf_counter() - started
            if (enough and elapsed >= args.seconds) or total + 1.5 * longest > HARD_LIMIT_S:
                break

            out = work / f"run{len(runs)}"
            cmd = [
                sys.executable, str(HERE / "child.py"), "--src", str(src),
                "--config", str(config), "--out", str(out),
                "--result", str(out / "result.json"),
            ]
            if kind == "traced":
                cmd += ["--spans", str(out / "spans.npz")]
            out.mkdir(parents=True)
            code, err, wall = run_once(cmd, work, HARD_LIMIT_S - total)
            run = {"kind": kind, "exit_code": code, "wall_s": wall, "problems": []}
            runs.append(run)
            if code != 0:
                run["problems"].append(f"exit code {code}: {err.strip()[-500:]}")
                continue
            try:
                run["result"] = json.loads((out / "result.json").read_text())
                trace_text = (out / "trace.csv").read_text()
            except (OSError, ValueError) as exc:
                run["problems"].append(f"missing or unreadable output: {exc}")
                continue
            problems, summary = outputs.check_trace(trace_text, workload.budget, max_charged)
            problems += outputs.check_params(
                out / "final.params", workload.n_params, models.load_checkpoint
            )
            if summary is not None:
                problems += outputs.check_same_trace(summary.sha256, reference_sha)
                reference_sha = reference_sha or summary.sha256
                run["trace"] = summary
            run["problems"] = problems
            if kind == "traced" and not problems:
                traced_spans.append(Spans.load(out / "spans.npz"))
            shutil.rmtree(out)

        good = [r for r in runs if not r["problems"]]
        plain = [r for r in good if r["kind"] == "plain"]
        traced = [r for r in good if r["kind"] == "traced"]
        if not plain or (args.trace and not traced):
            print(json.dumps([r["problems"] for r in runs]), file=sys.stderr)
            print("perfbench: no run passed its output checks", file=sys.stderr)
            return 1

        def med(key):
            return statistics.median(r["result"][key] for r in plain)

        if args.trace:
            values = layers.layer_metrics(
                traced_spans, [r["trace"] for r in traced],
                [r["result"]["run_s"] for r in plain],
                [r["result"]["run_s"] for r in traced],
            )
            units = layers.METRICS
        else:
            values = {
                "setup_s": med("setup_s"),
                "run_s": med("run_s"),
                "candidates_per_s": statistics.median(
                    r["trace"].t / (r["result"]["run_s"] - r["result"]["setup_s"])
                    for r in plain
                ),
                "peak_rss_mib": med("maxrss_mib"),
                "final_eval_loss": statistics.median(r["trace"].eval_loss for r in plain),
                "epsilon_spent": statistics.median(r["trace"].epsilon for r in plain),
            }
            units = END_TO_END

        env = environment(np, scipy)
        env.update({
            "blas_threads": sorted({r["result"]["blas_threads"] for r in good}, key=str),
            "python_threads_max": max(r["result"]["python_threads"] for r in good),
            "serial_single_process": all(
                r["result"]["child_processes_cpu_s"] == 0.0 for r in good
            ),
        })
        record = {
            "workload": workload.name,
            "workload_version": workloads.WORKLOAD_VERSION,
            "seed": args.seed,
            "trace": args.trace,
            "generate_s": generate_s,
            "expected_charged_steps": max_charged,
            "environment": env,
            "runs": [
                {**{k: v for k, v in r.items() if k != "trace"},
                 "trace": r["trace"].__dict__ if "trace" in r else None}
                for r in runs
            ],
            "metrics": values,
        }
        (WORK / f"{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
        print("environment:", json.dumps({**env, "workload_version": workloads.WORKLOAD_VERSION}))
        failed = len(runs) - len(good)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(runs),
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
