"""Dataset ingestion and sampling.

IDX binary readers/writers for the MNIST-family files, a CSV loader for
tabular classification data (optional header, integer class label in the
last column, parsed by numpy's C reader), seeded synthetic generators,
train/eval splitting, and Poisson subsampling.

IDX pixels are mapped read-only from the file as bytes, so an input file
must not change while a run uses it. `load_idx` widens them to float64 in
[0, 1] at once; a training run keeps them mapped, `split` carves row indices
rather than copies, and `models.to_batch` widens the energy rows (once; IDX
ones to float32), each Poisson batch and the final test rows (to float64)
into feature-major model inputs: no training matrix copy is built.
"""

from __future__ import annotations

import csv
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy 2 loads it lazily: import it with sadp, not in a run's setup

from .errors import DataFileError, SadpError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
BLOB_CENTER_SEED = 20221114


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable (features, labels) pair.

    Features are float64, except the uint8 pixel rows of `read_idx`, which
    stay read-only mapped bytes until `widen` scales them to [0, 1]. Float
    features must be finite; integer ones cannot be otherwise and are not
    scanned. Classification labels are integer class indices; regression
    targets are floats.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.features) != len(self.labels):
            raise DataFileError(f"{len(self.features)} feature rows vs {len(self.labels)} labels")
        if self.features.dtype.kind not in "iu" and not np.isfinite(self.features).all():
            raise SadpError("features contain non-finite values")

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _read_exact(f, count, path):
    data = f.read(count)
    if len(data) != count:
        raise DataFileError(f"{path}: expected {count} more bytes")
    return data


def read_idx(images_path, labels_path) -> LabeledDataset:
    """Read an images/labels IDX pair as flat uint8 pixel rows, mapped
    read-only from the images file (bytes past the payload are ignored);
    `widen` turns them into features."""
    with open(images_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise DataFileError(f"{images_path}: magic {magic:#010x}")
        n, rows, cols = struct.unpack(">III", _read_exact(f, 12, images_path))
        size = os.fstat(f.fileno()).st_size
        if size < 16 + n * rows * cols:
            raise DataFileError(
                f"{images_path}: expected {16 + n * rows * cols - size} more bytes"
            )
        payload = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        pixels = np.frombuffer(payload, dtype=np.uint8, count=n * rows * cols, offset=16)
    with open(labels_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise DataFileError(f"{labels_path}: magic {magic:#010x}")
        (n_labels,) = struct.unpack(">I", _read_exact(f, 4, labels_path))
        labels = np.frombuffer(_read_exact(f, n_labels, labels_path), dtype=np.uint8)
    return LabeledDataset(features=pixels.reshape(n, rows * cols), labels=labels.astype(np.int64))


def widen(features: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Writes features into `out` (any layout, e.g. the transpose of a
    feature-major buffer) in its float dtype, uint8 pixel rows scaled to
    [0, 1]: an exact cast, then one correctly rounded division by 255, so
    every element is the same float whatever the layout it is written in. A
    float32 `out` holds, for every byte, the float64 result rounded to
    float32. Returns `out`."""
    np.copyto(out, features)
    if features.dtype == np.uint8:
        out /= 255.0
    return out


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Read an images/labels IDX pair into a flat [0,1]-scaled dataset."""
    pixels = read_idx(images_path, labels_path)
    return LabeledDataset(widen(pixels.features, np.empty(pixels.features.shape)), pixels.labels)


def save_idx(dataset: LabeledDataset, images_path, labels_path, rows: int, cols: int):
    """Inverse of load_idx, for fixtures and round-trip checks."""
    if rows * cols != dataset.dim:
        raise SadpError("rows * cols must equal the feature dimension")
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


def poisson_sample(n: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of 0..n-1, each included independently with probability
    q in (0, 1]: a size k ~ Binomial(n, q), then a uniform k-subset, the same
    law, as every k-subset is equally likely under independent inclusion.
    numpy's choice takes O(k) by Floyd's algorithm when n > 10,000 and k <= n/50,
    else O(n) by a tail shuffle: ~1 ms at q = 1, n = 60,000, small beside its gradients."""
    k = rng.binomial(n, q)
    return np.sort(rng.choice(n, k, replace=False, shuffle=False)).astype(np.intp, copy=False)


def synth_linear(
    n: int, weights: np.ndarray, noise_std: float, seed: int
) -> LabeledDataset:
    """Targets <weights, x> + N(0, noise_std^2), x uniform on [-1, 1]^d; the
    config read checks noise_std >= 0, and numpy rejects a negative one."""
    weights = np.asarray(weights, dtype=np.float64)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, len(weights)))
    y = X @ weights + rng.normal(0.0, noise_std, size=n)
    return LabeledDataset(features=X, labels=np.asarray(y, dtype=np.float64))


def synth_blobs(n: int, n_classes: int, dim: int, seed: int) -> LabeledDataset:
    """Gaussian class clusters squashed into [0, 1], image-like surrogate; the
    centers come from BLOB_CENTER_SEED, so the seed draws only labels and noise."""
    centers = np.random.default_rng(BLOB_CENTER_SEED).uniform(0.2, 0.8, size=(n_classes, dim))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    X = centers[labels] + rng.normal(0.0, 0.15, size=(n, dim))
    return LabeledDataset(
        features=np.clip(X, 0.0, 1.0), labels=labels.astype(np.int64)
    )


def split(n: int, eval_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(train rows, eval rows) of n rows: a seeded shuffle of 0..n-1, the
    first floor(n * eval_fraction) of it carved off for eval; the config
    read checks eval_fraction is in (0, 1)."""
    perm = np.random.default_rng(seed).permutation(n)
    n_eval = int(n * eval_fraction)
    return perm[n_eval:], perm[:n_eval]
