"""Small differentiable models with exact per-example losses and gradients.

Three architectures: linear regression under squared error, softmax
regression and an MLP under cross-entropy. Parameters live in a single
flat float64 vector packed layer by layer, weights before biases, which is
what the privatized optimizer consumes.

Backprop is written out by hand and vectorized over the batch. It yields
each layer's per-example input and output gradient, whose outer product is
the example's weight gradient.
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


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    return np.tanh(z) if kind == BOUNDED_TANH else np.maximum(z, 0.0)


def _activate_grad(a: np.ndarray, z: np.ndarray, kind: str) -> np.ndarray:
    return 1.0 - a * a if kind == BOUNDED_TANH else (z > 0).astype(np.float64)


def _forward(spec: ModelSpec, w: np.ndarray, X: np.ndarray):
    """Returns (outputs, cache) with batched intermediates for backprop."""
    layers = unpack(spec, w)
    acts = [X]
    pre = []
    h = X
    for i, (W, b) in enumerate(layers):
        z = h @ W + b
        pre.append(z)
        h = _activate(z, spec.activation) if i < len(layers) - 1 else z
        acts.append(h)
    return h, (layers, acts, pre)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _check_batch(spec: ModelSpec, X: np.ndarray, y: np.ndarray):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise DimensionMismatchError(
            f"features must be (n, {spec.input_dim}), got {X.shape}"
        )
    y = np.asarray(y)
    if len(y) != len(X):
        raise DimensionMismatchError("feature/target row counts differ")
    return X, y


def _backprop(spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Losses (n,) and per-layer factors [(h_in, delta), ...] in packing order.

    Example i's layer gradient is outer(h_in[i], delta[i]) for the weights
    and delta[i] for the bias. Losses are 0.5 * (pred - y)^2 for linear
    regression and softmax cross-entropy for classification.
    """
    X, y = _check_batch(spec, X, y)
    n = len(X)
    out, (layers, acts, pre) = _forward(spec, w, X)

    if spec.architecture == LINEAR_REGRESSION:
        resid = out[:, 0] - np.asarray(y, dtype=np.float64)
        losses = 0.5 * resid**2
        delta = resid[:, None]                       # dL/d(out), (n, 1)
    else:
        labels = np.asarray(y, dtype=np.intp)
        probs = _softmax(out)
        losses = -np.log(
            np.clip(probs[np.arange(n), labels], 1e-300, None)
        )
        delta = probs.copy()
        delta[np.arange(n), labels] -= 1.0           # (n, k)

    factors = [None] * len(layers)
    for i in reversed(range(len(layers))):
        factors[i] = (acts[i], delta)
        if i > 0:
            delta = (delta @ layers[i][0].T) * _activate_grad(
                acts[i], pre[i - 1], spec.activation
            )
    return losses, factors


def per_example_losses_grads(
    spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Losses (n,) and gradients (n, n_params), one row per example: the
    test oracle for dp_optimizer.clipped_grad_sum, which training uses."""
    losses, factors = _backprop(spec, w, X, y)
    return losses, np.hstack(
        [np.hstack([np.einsum("ni,nj->nij", h, d).reshape(len(d), -1), d]) for h, d in factors]
    )


def evaluate(
    spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray
) -> tuple[float, float | None]:
    """(mean loss, accuracy); accuracy is None for regression."""
    X, y = _check_batch(spec, X, y)
    if len(X) == 0:
        raise EmptyDatasetError("cannot evaluate on an empty dataset")
    out, _ = _forward(spec, w, X)
    if spec.architecture == LINEAR_REGRESSION:
        loss = float(np.mean(0.5 * (out[:, 0] - np.asarray(y, dtype=np.float64)) ** 2))
        return loss, None
    labels = np.asarray(y, dtype=np.intp)
    probs = _softmax(out)
    n = len(X)
    loss = float(np.mean(-np.log(np.clip(probs[np.arange(n), labels], 1e-300, None))))
    acc = float(np.mean(out.argmax(axis=1) == labels))
    return loss, acc


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
