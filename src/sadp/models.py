"""Small differentiable models with exact per-example losses and gradients.

Three architectures: linear regression under squared error, softmax
regression and an MLP under cross-entropy. Parameters live in a single
flat float64 vector packed layer by layer, weights before biases, which is
what the privatized optimizer consumes; a layer's slice reshaped to
(fan_in + 1, fan_out) is [W; b], a view.

Activations are feature-major with the bias folded in: every layer input is
a C-contiguous (fan_in + 1, n) matrix whose last row is ones, so a layer is
one GEMM [W; b].T @ [h; 1]. A Batch holds the first such input (built by
to_batch) with the labels' gather index. The forward pass runs in the
Batch's dtype: float64, except an IDX run's energy evaluation (pixels in
[0, 1]): float32 GEMMs under a float64 loss. Training never materializes
per-example gradients: backprop yields a dense layer's factors, its input H
(fan_in + 1, n), whose last row of ones carries the bias, and its output
gradient D (fan_out, n); example i's [W; b] gradient outer(H[:, i], D[:, i])
has squared norm |H[:, i]|^2 |D[:, i]|^2, and the clipped sum H (D * s).T is
the layer's (fan_in + 1, fan_out) slice of the packed vector, weights then biases.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import data
from .errors import DataFileError, SadpError

CHECKPOINT_MAGIC = b"SADP"
CHECKPOINT_VERSION = 1

LINEAR_REGRESSION = "linear_regression"
SOFTMAX_REGRESSION = "softmax_regression"
MLP = "mlp"

BOUNDED_TANH = "bounded_tanh"
RECTIFIER = "rectifier"

MAX_LOSS = -math.log(1e-300)      # cross-entropy of a label probability of 1e-300


@dataclass(frozen=True)
class ModelSpec:
    architecture: str
    input_dim: int
    output_dim: int
    layer_widths: tuple = ()      # hidden widths, mlp only
    activation: str = BOUNDED_TANH

    def __post_init__(self):
        if self.architecture not in (LINEAR_REGRESSION, SOFTMAX_REGRESSION, MLP):
            raise SadpError(f"unknown architecture {self.architecture!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise SadpError("dims must be >= 1")
        if self.architecture == LINEAR_REGRESSION and self.output_dim != 1:
            raise SadpError("linear regression is scalar-output")
        if self.architecture == MLP:
            if not self.layer_widths or any(w < 1 for w in self.layer_widths):
                raise SadpError("mlp needs hidden widths >= 1")
        elif self.layer_widths:
            raise SadpError(f"{self.architecture} takes no layer_widths (mlp only)")
        if self.activation not in (BOUNDED_TANH, RECTIFIER):
            raise SadpError(f"unknown activation {self.activation!r}")

    @cached_property
    def layer_dims(self) -> tuple[tuple[int, int], ...]:
        """(fan_in, fan_out) per layer in packing order."""
        dims = [self.input_dim, *self.layer_widths, self.output_dim]
        return tuple(zip(dims[:-1], dims[1:]))

    @cached_property
    def n_params(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_dims)


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform weights, zero biases, packed flat."""
    chunks = []
    for fan_in, fan_out in spec.layer_dims:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-limit, limit, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def _weights(spec: ModelSpec, w: np.ndarray) -> list[np.ndarray]:
    """Flat vector -> [[W; b], ...]: each layer's slice is W (fan_in, fan_out)
    then b, so reshaped to (fan_in + 1, fan_out) it is [W; b], a view. w has
    spec.n_params entries, as init_params makes it."""
    if not np.isfinite(w).all():
        raise SadpError("parameter vector has non-finite entries")
    layers, offset = [], 0
    for fan_in, fan_out in spec.layer_dims:
        size = (fan_in + 1) * fan_out
        layers.append(w[offset : offset + size].reshape(fan_in + 1, fan_out))
        offset += size
    return layers


@dataclass(frozen=True)
class Batch:
    """n examples laid out for the forward pass.

    inputs is (input_dim + 1, n) float64 (float32 for an IDX run's energy),
    C-contiguous, its last row ones; targets are float regression targets or
    intp class labels, (n,); picks are the flat indices labels * n + arange(n)
    of each example's label in C-contiguous (k, n) outputs (classification only).
    """

    inputs: np.ndarray
    targets: np.ndarray
    picks: np.ndarray | None

    def __len__(self) -> int:
        return self.inputs.shape[1]


def to_batch(spec: ModelSpec, X, y, dtype=np.float64) -> Batch:
    """A Batch of a LabeledDataset's (n, input_dim) features X and targets y,
    its inputs of `dtype`; uint8 pixel rows are widened to [0, 1] straight
    into the inputs."""
    X, y = np.asarray(X), np.asarray(y)
    inputs = np.empty((spec.input_dim + 1, len(X)), dtype=dtype)
    data.widen(X, out=inputs[:-1].T)
    inputs[-1] = 1.0
    if spec.architecture == LINEAR_REGRESSION:
        return Batch(inputs, y.astype(np.float64), None)
    labels = y.astype(np.intp)
    return Batch(inputs, labels, labels * len(labels) + np.arange(len(labels)))


def _forward(spec: ModelSpec, w: np.ndarray, h: np.ndarray):
    """(outputs (k, n), layer inputs [(fan_in + 1, n), ...], [W; b]) of a
    batch's inputs h, all in h's dtype (the [W; b] of float64 inputs are
    views): each layer is one GEMM [W; b].T @ [h; 1], written for a hidden
    layer into a fresh input whose last row is ones, then activated in
    place."""
    layers = [Wb.astype(h.dtype, copy=False) for Wb in _weights(spec, w)]
    inputs = [h]
    for Wb in layers[:-1]:
        h = np.empty((Wb.shape[1] + 1, h.shape[1]), dtype=h.dtype)
        h[-1] = 1.0
        a = np.matmul(Wb.T, inputs[-1], out=h[:-1])
        if spec.activation == BOUNDED_TANH:
            np.tanh(a, out=a)
        else:
            np.maximum(a, 0.0, out=a)
        inputs.append(h)
    return layers[-1].T @ h, inputs, layers


def _losses(spec: ModelSpec, out: np.ndarray, batch: Batch):
    """Per-example losses (n,) of outputs (k, n), which it overwrites, and
    for classification the (k, n) mask of each column's largest logits.

    Squared error 0.5 * (pred - y)^2 for regression. Cross-entropy is
    log sum exp(z - m) - (z_y - m) with m the column max, the one max pass
    that also marks the predicted classes, capped at -log(1e-300) (a
    label probability floored at 1e-300).
    """
    if spec.architecture == LINEAR_REGRESSION:
        return 0.5 * (out[0] - batch.targets) ** 2, None
    m = out.max(axis=0)
    top = out == m
    label_margin = out.reshape(-1)[batch.picks] - m
    out -= m
    np.exp(out, out=out)
    losses = np.log(out.sum(axis=0))
    losses -= label_margin
    return np.minimum(losses, MAX_LOSS, out=losses), top


def _backprop(spec: ModelSpec, w: np.ndarray, batch: Batch):
    """Per-layer factors [(H, D), ...] in packing order (see above) of the
    loss gradient of 0.5 * (pred - y)^2 for linear regression and of softmax
    cross-entropy for classification."""
    out, inputs, layers = _forward(spec, w, batch.inputs)
    if spec.architecture == LINEAR_REGRESSION:
        delta = out - batch.targets                     # dL/d(out), (1, n)
    else:
        delta = out
        delta -= delta.max(axis=0)
        np.exp(delta, out=delta)
        delta /= delta.sum(axis=0)
        delta.reshape(-1)[batch.picks] -= 1.0           # (k, n)

    factors = [None] * len(layers)
    for i in reversed(range(len(layers))):
        h = inputs[i]
        factors[i] = (h, delta)
        if i > 0:
            # both activation derivatives are functions of the output a
            a = h[:-1]
            delta = layers[i][:-1] @ delta
            delta *= 1.0 - a * a if spec.activation == BOUNDED_TANH else a > 0
    return factors


def clipped_grad_sum(spec: ModelSpec, w: np.ndarray, batch: Batch, scale) -> np.ndarray:
    """Sum of a Batch's clipped per-example gradients, shape (n_params,):
    scale, a ClipPolicy's, maps the (n,) gradient l2 norms to clip factors.

    Equals the row sum of tests/oracles.py's materialized reference, clip_batch
    over per_example_losses_grads, up to float summation order; an empty batch
    sums to zeros. A non-finite factor entry makes its example's norm
    non-finite, so the factors are scanned only then. Finite factors whose norm
    overflows get scale 0, but a layer whose output gradient is exactly 0 adds 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # inf * 0 is checked below
        factors = _backprop(spec, w, batch)
        parts = [(np.einsum("ij,ij->j", h, h), np.einsum("ij,ij->j", d, d)) for h, d in factors]
        sq_norms = sum(h_sq * d_sq for h_sq, d_sq in parts)
        if not np.isfinite(sq_norms).all():
            if not all(np.isfinite(a).all() for layer in factors for a in layer):
                raise SadpError("layer inputs or gradients have non-finite entries")
            # finite factors: an overflowing input norm times an output
            # gradient of exactly zero is a layer gradient of exactly zero
            sq_norms = sum(np.where(d_sq == 0.0, 0.0, h_sq * d_sq) for h_sq, d_sq in parts)
    s = scale(np.sqrt(sq_norms))
    return np.concatenate([(h @ (delta * s).T).ravel() for h, delta in factors])


def evaluate(spec: ModelSpec, w: np.ndarray, batch: Batch) -> tuple[float, float | None]:
    """(mean loss, accuracy) on a non-empty Batch; accuracy None for regression.

    The GEMMs run in the Batch's dtype, float32 only for IDX pixels, the loss
    on their outputs widened to float64. Overflow is quiet: every caller
    checks the loss, which is then not finite. A float32 Batch whose loss is
    not finite (weights past float32's range) is redone in float64 from its inputs."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _forward(spec, w, batch.inputs)[0].astype(np.float64, copy=False)
        losses, top = _losses(spec, out, batch)
        loss = float(np.mean(losses))
    if not (batch.inputs.dtype == np.float64 or math.isfinite(loss)):
        return evaluate(spec, w, replace(batch, inputs=batch.inputs.astype(np.float64)))
    if top is None:
        return loss, None
    correct = top.reshape(-1)[batch.picks]
    if np.count_nonzero(top) != len(batch) or not math.isfinite(loss):
        # a tied (or NaN) column: argmax's lowest-index rule, ranking the
        # maximal classes k..1, since argmax(axis=0) is slow
        k = len(top)
        ranks = top * np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
        correct = ranks.max(axis=0) == k - batch.targets
    return loss, int(np.count_nonzero(correct)) / len(batch)


def save_checkpoint(path, w: np.ndarray) -> None:
    """16-byte header (magic, u32 version, u64 length) + little-endian f64s."""
    w = np.asarray(w, dtype="<f8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(w)))
        f.write(w.tobytes())


def load_checkpoint(path) -> np.ndarray:
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16 or header[:4] != CHECKPOINT_MAGIC:
            raise DataFileError(f"{path}: not a parameter checkpoint")
        version, length = struct.unpack("<IQ", header[4:])
        if version != CHECKPOINT_VERSION:
            raise DataFileError(f"{path}: unsupported checkpoint version {version}")
        # checked before reading: a length past the file would ask read() for up to 2^67 bytes
        if os.fstat(f.fileno()).st_size < 16 + 8 * length:
            raise DataFileError(f"{path}: truncated checkpoint")
        return np.frombuffer(f.read(8 * length), dtype="<f8").copy()
