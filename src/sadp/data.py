"""Dataset ingestion and sampling.

IDX binary readers/writers for the MNIST-family files, a CSV loader for
tabular classification data (optional header, integer class label in the
last column, parsed by numpy's C reader), seeded synthetic generators,
train/eval splitting, and Poisson subsampling.

IDX pixels are read as bytes. `load_idx` widens them to float64 in [0, 1]
at once; a training run splits the byte rows first and widens each split
once, so the full float64 matrix is never built.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadMagicError, CountMismatchError, DataFileError, TruncatedFileError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable (features, labels) pair.

    Image sources arrive normalized to [0, 1] float64, except the uint8
    pixel rows of `read_idx`, which are split as bytes and then `widen`ed.
    Classification labels are integer class indices; regression targets are
    floats.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.features) != len(self.labels):
            raise CountMismatchError(
                f"{len(self.features)} feature rows vs {len(self.labels)} labels"
            )
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError("regression targets have no class count")
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class SamplerConfig:
    q: float

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"inclusion probability q={self.q} must be in (0, 1]")


def _read_exact(f, count, path):
    data = f.read(count)
    if len(data) != count:
        raise TruncatedFileError(f"{path}: expected {count} more bytes")
    return data


def read_idx(images_path, labels_path) -> LabeledDataset:
    """Read an images/labels IDX pair as flat uint8 pixel rows; `widen`
    turns them into features."""
    with open(images_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise BadMagicError(f"{images_path}: magic {magic:#010x}")
        n, rows, cols = struct.unpack(">III", _read_exact(f, 12, images_path))
        pixels = np.frombuffer(_read_exact(f, n * rows * cols, images_path), dtype=np.uint8)
    with open(labels_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise BadMagicError(f"{labels_path}: magic {magic:#010x}")
        (n_labels,) = struct.unpack(">I", _read_exact(f, 4, labels_path))
        labels = np.frombuffer(_read_exact(f, n_labels, labels_path), dtype=np.uint8)
    if n != n_labels:
        raise CountMismatchError(f"{n} images vs {n_labels} labels")
    return LabeledDataset(features=pixels.reshape(n, rows * cols), labels=labels.astype(np.int64))


def widen(dataset: LabeledDataset) -> LabeledDataset:
    """uint8 pixel rows scaled to float64 in [0, 1]; other features pass
    through unchanged."""
    if dataset.features.dtype != np.uint8:
        return dataset
    features = dataset.features.astype(np.float64)
    features /= 255.0
    return LabeledDataset(features=features, labels=dataset.labels)


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Read an images/labels IDX pair into a flat [0,1]-scaled dataset."""
    return widen(read_idx(images_path, labels_path))


def save_idx(dataset: LabeledDataset, images_path, labels_path, rows: int, cols: int):
    """Inverse of load_idx, for fixtures and round-trip checks."""
    if rows * cols != dataset.dim:
        raise ValueError("rows * cols must equal the feature dimension")
    pixels = np.clip(np.round(dataset.features * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, dataset.n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, dataset.n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def _is_numeric(record) -> bool:
    try:
        return bool([float(v) for v in record])
    except ValueError:
        return False


def load_csv(path) -> LabeledDataset:
    """Comma-separated numeric table, integer class label in the last column.

    Blank and non-numeric rows before the first numeric row are a header
    and skipped; numpy's C reader parses the rest.
    """
    table = None
    try:
        with open(path) as f:
            reader = csv.reader(f)
            if any(_is_numeric(record) for record in reader):
                f.seek(0)
                table = np.loadtxt(
                    f, delimiter=",", ndmin=2, skiprows=reader.line_num - 1,
                    comments=None, quotechar='"',
                )
    except (ValueError, csv.Error) as exc:
        raise DataFileError(f"{path}: {exc}") from None
    if table is None:
        raise DataFileError(f"{path}: no data rows")
    if not np.all(np.isfinite(table)):
        raise DataFileError(f"{path}: non-finite value")
    labels = table[:, -1]
    if np.any(labels != np.floor(labels)):
        raise DataFileError(f"{path}: labels must be integer classes")
    return LabeledDataset(features=table[:, :-1], labels=labels.astype(np.int64))


def poisson_sample(n: int, config: SamplerConfig, rng: np.random.Generator) -> np.ndarray:
    """Each index included independently with probability q, sorted output."""
    mask = rng.random(n) < config.q
    return np.flatnonzero(mask)


def synth_linear(
    n: int, weights: np.ndarray, noise_std: float, seed: int
) -> LabeledDataset:
    """Targets <weights, x> + N(0, noise_std^2), x uniform on [-1, 1]^d."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    weights = np.asarray(weights, dtype=np.float64)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, len(weights)))
    y = X @ weights + rng.normal(0.0, noise_std, size=n) if noise_std > 0 else X @ weights
    return LabeledDataset(features=X, labels=np.asarray(y, dtype=np.float64))


def synth_blobs(n: int, n_classes: int, dim: int, seed: int) -> LabeledDataset:
    """Gaussian class clusters squashed into [0, 1], image-like surrogate."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(n_classes, dim))
    labels = rng.integers(0, n_classes, size=n)
    X = centers[labels] + rng.normal(0.0, 0.15, size=(n, dim))
    return LabeledDataset(
        features=np.clip(X, 0.0, 1.0), labels=labels.astype(np.int64)
    )


def split(
    dataset: LabeledDataset, eval_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded shuffle, then carve off floor(n * eval_fraction) for eval."""
    if not 0.0 < eval_fraction < 1.0:
        raise ValueError("eval_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    n_eval = int(dataset.n * eval_fraction)
    eval_idx, train_idx = perm[:n_eval], perm[n_eval:]
    return (
        LabeledDataset(dataset.features[train_idx], dataset.labels[train_idx]),
        LabeledDataset(dataset.features[eval_idx], dataset.labels[eval_idx]),
    )
