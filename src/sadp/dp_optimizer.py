"""Privatized gradient pipeline: per-example clipping, Gaussian noising
of the summed gradient, and the plain SGD update.

Training never materializes per-example gradients: for a dense layer's input
H (fan_in, n) and output gradient D (fan_out, n), example i's gradient
outer(H[:, i], D[:, i]) has squared norm |H[:, i]|^2 |D[:, i]|^2 (+ |D[:, i]|^2
for the bias), and the clipped sum H (D * s).T is in packed weight order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .errors import DimensionMismatchError, NonFiniteInputError


@dataclass(frozen=True)
class ClipPolicy:
    """How per-example gradients are bounded before summation.

    kind "abadi" rescales to norm at most clip_norm; "auto_s" rescales by
    clip_norm / (norm + gamma), which is strictly below clip_norm and needs
    no tuning of the threshold.
    """

    kind: str = "abadi"
    clip_norm: float = 1.0
    gamma: float = 0.01

    def __post_init__(self):
        if self.kind not in ("abadi", "auto_s"):
            raise ValueError(f"unknown clip kind {self.kind!r}")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be > 0")
        if self.kind == "auto_s" and self.gamma <= 0:
            raise ValueError("gamma must be > 0 for auto_s")


@dataclass(frozen=True)
class NoisePolicy:
    sigma: float
    lot_size: int

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if self.lot_size < 1:
            raise ValueError("lot_size must be >= 1")


def _clip_scale(norms, policy: ClipPolicy):
    """Per-example factors that bound gradients of l2 norm `norms`; an
    overflowing (infinite) norm gets scale 0."""
    if policy.kind == "abadi":
        return 1.0 / np.maximum(1.0, norms / policy.clip_norm)
    # auto_s: zero maps to zero since the scale is finite
    return policy.clip_norm / (norms + policy.gamma)


def clip(grad: np.ndarray, policy: ClipPolicy) -> np.ndarray:
    """Bound one per-example gradient in l2 norm."""
    return clip_batch(np.asarray(grad)[None], policy)[0]


def clip_batch(grads: np.ndarray, policy: ClipPolicy) -> np.ndarray:
    """Bound every row of an (n, dim) gradient matrix in l2 norm."""
    grads = np.asarray(grads, dtype=np.float64)
    if not np.all(np.isfinite(grads)):
        raise NonFiniteInputError("gradient batch has non-finite entries")
    return grads * _clip_scale(np.linalg.norm(grads, axis=1), policy)[:, None]


def clipped_grad_sum(spec, w, X, y, policy: ClipPolicy) -> np.ndarray:
    """Sum of a batch's clipped per-example gradients, shape (n_params,).

    Equals clip_batch(models.per_example_losses_grads(...)[1]).sum(0) up to
    float summation order; an empty batch sums to zeros.
    """
    _, factors = models._backprop(spec, w, X, y)
    if not all(np.isfinite(a).all() for layer in factors for a in layer):
        raise NonFiniteInputError("layer inputs or gradients have non-finite entries")
    sq_norms = sum(
        (np.einsum("ij,ij->j", h, h) + 1.0) * np.einsum("ij,ij->j", d, d) for h, d in factors
    )
    scale = _clip_scale(np.sqrt(sq_norms), policy)
    chunks = []
    for h_in, delta in factors:
        scaled = delta * scale
        chunks += [(h_in @ scaled.T).ravel(), scaled.sum(axis=1)]
    return np.concatenate(chunks)


def noisy_average(
    clipped_sum: np.ndarray,
    noise: NoisePolicy,
    clip_norm: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """(sum of clipped gradients + N(0, sigma^2 C^2 I)) / lot_size.

    The divisor is the nominal lot size, not the realized batch cardinality.
    An empty batch passes a zero vector and gets pure noise.
    """
    z = rng.normal(0.0, noise.sigma * clip_norm, size=len(clipped_sum))
    return (clipped_sum + z) / noise.lot_size


def sgd_step(w: np.ndarray, g_tilde: np.ndarray, eta: float) -> np.ndarray:
    """One descent step w - eta * g."""
    w = np.asarray(w, dtype=np.float64)
    g_tilde = np.asarray(g_tilde, dtype=np.float64)
    if w.shape != g_tilde.shape:
        raise DimensionMismatchError(
            f"parameter shape {w.shape} != gradient shape {g_tilde.shape}"
        )
    if eta <= 0:
        raise ValueError("eta must be > 0")
    return w - eta * g_tilde
