"""One training run in a fresh process: `sadp.cli.main(["train", ...])`.

    python3 perfbench/child.py --src SRC --config CFG --out DIR --result JSON
                               [--spans NPZ]

Without --spans the only instrumentation is one timestamp on the first
`data.poisson_sample` call, which marks the start of the first candidate;
the wrapper then puts the original function back. With --spans every public
function of every `sadp` module is wrapped (see spans.py) and the spans are
written to NPZ after `cli.main` returns.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import resource
import sys
import threading
import time
from pathlib import Path

import numpy as np


def _probes():
    def clipped_rows(args, result):
        grads, policy = args[0], args[1]
        sq = np.einsum("ij,ij->i", grads, grads)
        return float(np.count_nonzero(sq > policy.clip_norm ** 2))

    return {
        "models": {
            "per_example_losses_grads": lambda args, res: res[1].nbytes / 2**20,
            "evaluate": lambda args, res: float(len(args[2])),
        },
        "dp_optimizer": {"clip_batch": clipped_rows},
        "data": {"poisson_sample": lambda args, res: float(len(res))},
        "accountant": {"max_steps_within": lambda args, res: float(res)},
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    libs = {line.split()[-1] for line in maps.read_text().splitlines() if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import sadp
    from sadp import cli, data

    if not Path(sadp.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"sadp imported from {sadp.__file__}, not from {args.src}")

    tracer = None
    first_sample: list[float] = []
    if args.spans:
        # this script's directory is on sys.path
        from layers import LAYERS
        from spans import Tracer

        tracer = Tracer()
        probes = _probes()
        for layer in LAYERS:
            tracer.install(importlib.import_module(f"sadp.{layer}"), layer, probes.get(layer))
    else:
        original = data.poisson_sample

        def timestamp_first_call(*a, **kw):
            first_sample.append(time.perf_counter())
            data.poisson_sample = original
            return original(*a, **kw)

        data.poisson_sample = timestamp_first_call

    t_entry = time.perf_counter()
    rc = cli.main(["train", "--config", args.config, "--out", args.out])
    t_exit = time.perf_counter()

    if tracer is not None:
        tracer.save(args.spans)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "rc": rc,
        "run_s": t_exit - t_entry,
        "setup_s": first_sample[0] - t_entry if first_sample else None,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "python_threads": threading.active_count(),
        "child_processes_cpu_s": children.ru_utime + children.ru_stime,
    }
    Path(args.result).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
