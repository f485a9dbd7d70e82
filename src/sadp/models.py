"""Small differentiable models with exact per-example losses and gradients.

Three architectures: linear regression under squared error, softmax
regression and an MLP under cross-entropy. Parameters live in a single
flat float64 vector packed layer by layer, weights before biases, which is
what the privatized optimizer consumes.

Activations are feature-major, (width, n): softmax reductions run across
classes, vectorized over examples. Backprop yields each layer's input and
output gradient; the outer product of their i-th columns is example i's.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

CHECKPOINT_MAGIC = b"SADP"
CHECKPOINT_VERSION = 1

LINEAR_REGRESSION = "linear_regression"
SOFTMAX_REGRESSION = "softmax_regression"
MLP = "mlp"

BOUNDED_TANH = "bounded_tanh"
RECTIFIER = "rectifier"


class NonFiniteParametersError(ValueError):
    pass


class EmptyDatasetError(ValueError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    architecture: str
    input_dim: int
    output_dim: int
    layer_widths: tuple = ()      # hidden widths, mlp only
    activation: str = BOUNDED_TANH

    def __post_init__(self):
        if self.architecture not in (LINEAR_REGRESSION, SOFTMAX_REGRESSION, MLP):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("dims must be >= 1")
        if self.architecture == LINEAR_REGRESSION and self.output_dim != 1:
            raise ValueError("linear regression is scalar-output")
        if self.architecture == MLP:
            if not self.layer_widths or any(w < 1 for w in self.layer_widths):
                raise ValueError("mlp needs hidden widths >= 1")
        if self.activation not in (BOUNDED_TANH, RECTIFIER):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer in packing order."""
        if self.architecture in (LINEAR_REGRESSION, SOFTMAX_REGRESSION):
            return [(self.input_dim, self.output_dim)]
        dims = [self.input_dim, *self.layer_widths, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))

    @property
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


def unpack(spec: ModelSpec, w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Flat vector -> [(W, b), ...] with W of shape (fan_in, fan_out)."""
    if len(w) != spec.n_params:
        raise DimensionMismatchError(
            f"expected {spec.n_params} parameters, got {len(w)}"
        )
    if not np.all(np.isfinite(w)):
        raise NonFiniteParametersError("parameter vector has non-finite entries")
    layers = []
    offset = 0
    for fan_in, fan_out in spec.layer_dims:
        W = w[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = w[offset : offset + fan_out]
        offset += fan_out
        layers.append((W, b))
    return layers


def _forward(spec: ModelSpec, w: np.ndarray, X: np.ndarray):
    """(outputs (k, n), layers, layer inputs [(fan_in, n), ...]); the first
    input is X.T, a view of the row-major batch, and later ones are computed
    as W.T @ h with the bias add and the activation done in place."""
    layers = unpack(spec, w)
    h, inputs = X.T, []
    for i, (W, b) in enumerate(layers):
        inputs.append(h)
        h = W.T @ h
        h += b[:, None]
        if i < len(layers) - 1 and spec.activation == BOUNDED_TANH:
            np.tanh(h, out=h)
        elif i < len(layers) - 1:
            np.maximum(h, 0.0, out=h)
    return h, layers, inputs


def _cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Softmax cross-entropy per example (n,) and class probabilities (k, n)
    of (k, n) logits; max and sum run across classes, vectorized over n."""
    probs = logits - logits.max(axis=0)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=0)
    return -np.log(np.clip(probs[labels, np.arange(len(labels))], 1e-300, None)), probs


def _check_batch(spec: ModelSpec, X: np.ndarray, y: np.ndarray):
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise DimensionMismatchError(f"features must be (n, {spec.input_dim}), got {X.shape}")
    if len(y) != len(X):
        raise DimensionMismatchError("feature/target row counts differ")
    return X, y


def _backprop(spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Losses (n,) and per-layer factors [(h_in (fan_in, n), delta (fan_out, n)), ...]
    in packing order: example i's weight gradient is outer(h_in[:, i],
    delta[:, i]) and its bias gradient delta[:, i]. Losses are 0.5 * (pred -
    y)^2 for linear regression and softmax cross-entropy for classification.
    """
    X, y = _check_batch(spec, X, y)
    out, layers, inputs = _forward(spec, w, X)

    if spec.architecture == LINEAR_REGRESSION:
        delta = out - np.asarray(y, dtype=np.float64)   # dL/d(out), (1, n)
        losses = 0.5 * delta[0] ** 2
    else:
        labels = np.asarray(y, dtype=np.intp)
        losses, delta = _cross_entropy(out, labels)
        delta[labels, np.arange(len(labels))] -= 1.0    # (k, n)

    factors = [None] * len(layers)
    for i in reversed(range(len(layers))):
        a = inputs[i]
        factors[i] = (a, delta)
        if i > 0:
            # both activation derivatives are functions of the output a
            delta = layers[i][0] @ delta
            delta *= 1.0 - a * a if spec.activation == BOUNDED_TANH else a > 0
    return losses, factors


def per_example_losses_grads(
    spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Losses (n,) and gradients (n, n_params), one row per example: the
    test oracle for dp_optimizer.clipped_grad_sum, which training uses."""
    losses, factors = _backprop(spec, w, X, y)
    return losses, np.hstack(
        [np.hstack([np.einsum("in,jn->nij", h, d).reshape(len(losses), -1), d.T]) for h, d in factors]
    )


def evaluate(
    spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray
) -> tuple[float, float | None]:
    """(mean loss, accuracy); accuracy is None for regression."""
    X, y = _check_batch(spec, X, y)
    if len(X) == 0:
        raise EmptyDatasetError("cannot evaluate on an empty dataset")
    out, _, _ = _forward(spec, w, X)
    if spec.architecture == LINEAR_REGRESSION:
        return float(np.mean(0.5 * (out[0] - np.asarray(y, dtype=np.float64)) ** 2)), None
    labels = np.asarray(y, dtype=np.intp)
    losses, _ = _cross_entropy(out, labels)
    # argmax(axis=0) is slow; ranking maximal classes k..1 keeps its lowest-index tie rule
    k = len(out)
    ranks = (out == out.max(axis=0)) * np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    acc = np.count_nonzero(ranks.max(axis=0) == k - labels) / len(labels)
    return float(np.mean(losses)), float(acc)


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
            raise ValueError("not a parameter checkpoint")
        version, length = struct.unpack("<IQ", header[4:])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        data = f.read(8 * length)
        if len(data) != 8 * length:
            raise ValueError("truncated checkpoint")
        return np.frombuffer(data, dtype="<f8").copy()
