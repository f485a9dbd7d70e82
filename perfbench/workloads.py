"""Benchmark workloads and their seeded input generator.

The generator belongs to the benchmark, not to `sadp`: `sadp` only ever sees
the IDX/CSV files and the config written here, so a change to
`sadp.data.synth_blobs` cannot silently change a workload.

Every workload draws class-cluster rows around class centers fixed by
CENTER_SEED. The `--seed` of a run draws the labels and the cluster noise and
is also the `seed` of the training config, so one seed fixes one input set
and one training run. `sadp` carves the held-out split out of the same rows,
so held-out rows share the train rows' centers.

Bump WORKLOAD_VERSION whenever generation, sizes or configs change.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOAD_VERSION = 1
CENTER_SEED = 20221114
CHUNK_ROWS = 10_000

COMMON = {
    "method": "sa_dpsgd",
    "eval_set": "held_out",
    "delta": 1e-5,
    "clip_kind": "abadi",
    "clip_norm": 0.1,
    "q0": 10.0,
    "mu0": 10,
    "sigma": 1.23,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fmt: str                      # "idx" (28x28 images in [0, 1]) or "csv"
    rows: int
    dim: int
    classes: int
    noise_sd: float               # per-feature sd around the class center
    center_range: tuple[float, float]
    config: dict

    @property
    def budget(self) -> float | None:
        return self.config.get("eps_budget")

    @property
    def n_train(self) -> int:
        """Rows left for training after sadp's held-out split."""
        return self.rows - int(self.rows * self.config["eval_fraction"])

    @property
    def n_params(self) -> int:
        widths = [self.dim, *self.config.get("layer_widths", ()), self.classes]
        return sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="softmax_eps3",
            why="budgeted screened softmax 784->10 at B=128 and eps=3: the "
                "accountant sets the run length and setup, every rejection "
                "is an uncharged candidate",
            fmt="idx", rows=5_000, dim=784, classes=10, noise_sd=0.7,
            center_range=(0.2, 0.8),
            config={
                "model": "softmax_regression", "eval_fraction": 0.2,
                "lot_size": 128, "eta": 2.0, "eps_budget": 3.0,
            },
        ),
        Workload(
            name="mlp128_b512",
            why="MNIST-shape MLP 784-128-10 at B=512: a 0.39 GiB per-example "
                "gradient matrix, so gradients and clipping dominate time and "
                "peak RSS",
            fmt="idx", rows=60_000, dim=784, classes=10, noise_sd=0.7,
            center_range=(0.2, 0.8),
            config={
                "model": "mlp", "layer_widths": (128,),
                "activation": "bounded_tanh", "eval_fraction": 0.1,
                "lot_size": 512, "eta": 0.5, "eps_budget": None,
                "max_iters": 3,
            },
        ),
        Workload(
            name="tabular_long",
            why="16-feature CSV softmax at B=64 for 2500 candidates: energy "
                "evaluation, annealer reject/forced paths, per-iteration "
                "overhead and trace writing dominate, clipping barely shows",
            fmt="csv", rows=20_000, dim=16, classes=4, noise_sd=1.5,
            center_range=(-1.0, 1.0),
            config={
                "model": "softmax_regression", "eval_fraction": 0.2,
                "lot_size": 64, "eps_budget": None, "max_iters": 2_500,
            },
        ),
    )
}


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def config_text(workload: Workload, seed: int, data_paths: dict) -> str:
    entries = {**COMMON, **workload.config, **data_paths, "seed": seed}
    return "".join(f"{k} = {_format_value(v)}\n" for k, v in entries.items())


def _rows(workload: Workload, seed: int):
    """Yields (features, labels) chunks; same seed, same rows."""
    lo, hi = workload.center_range
    centers = np.random.default_rng(CENTER_SEED).uniform(
        lo, hi, size=(workload.classes, workload.dim)
    )
    rng = np.random.default_rng(seed)
    for start in range(0, workload.rows, CHUNK_ROWS):
        n = min(CHUNK_ROWS, workload.rows - start)
        labels = rng.integers(0, workload.classes, size=n)
        noise = rng.normal(0.0, workload.noise_sd, size=(n, workload.dim))
        yield centers[labels] + noise, labels


def generate(workload: Workload, seed: int, out_dir: Path, data_module) -> Path:
    """Writes the workload's input files and config; returns the config path.

    `data_module` is `sadp.data`, whose `save_idx` writes the IDX pair.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload.fmt == "idx":
        # float32 halves the generator's footprint; save_idx quantizes to
        # uint8 anyway
        features = np.empty((workload.rows, workload.dim), dtype=np.float32)
        labels = np.empty(workload.rows, dtype=np.int64)
        start = 0
        for X, y in _rows(workload, seed):
            np.clip(X, 0.0, 1.0, out=features[start:start + len(X)])
            labels[start:start + len(y)] = y
            start += len(X)
        images, label_file = out_dir / "images.idx", out_dir / "labels.idx"
        data_module.save_idx(
            data_module.LabeledDataset(features, labels), images, label_file, 28, 28
        )
        paths = {
            "dataset": "idx",
            "idx_train_images": images,
            "idx_train_labels": label_file,
        }
    else:
        table = out_dir / "table.csv"
        header = ",".join([f"x{i}" for i in range(workload.dim)] + ["label"])
        fmt = ["%.6f"] * workload.dim + ["%d"]
        with open(table, "w") as f:
            f.write(header + "\n")
            for X, y in _rows(workload, seed):
                np.savetxt(f, np.column_stack([X, y]), fmt=fmt, delimiter=",")
        paths = {"dataset": "csv", "csv_path": table}
    config = out_dir / "workload.cfg"
    config.write_text(config_text(workload, seed, paths))
    return config
