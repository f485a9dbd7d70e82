"""Privatized gradient pipeline: per-example clipping, Gaussian noising
of the summed gradient, and the plain SGD update.

Training never materializes per-example gradients. A dense layer's factors
are its input H (fan_in + 1, n), whose last row of ones carries the bias,
and its output gradient D (fan_out, n); example i's [W; b] gradient
outer(H[:, i], D[:, i]) has squared norm |H[:, i]|^2 |D[:, i]|^2, and the
clipped sum H (D * s).T is the layer's (fan_in + 1, fan_out) slice of the
packed vector, weights then biases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .errors import SadpError


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
            raise SadpError(f"unknown clip kind {self.kind!r}")
        if self.clip_norm <= 0:
            raise SadpError("clip_norm must be > 0")
        if self.kind == "auto_s" and self.gamma <= 0:
            raise SadpError("gamma must be > 0 for auto_s")


def _clip_scale(norms, policy: ClipPolicy):
    """Per-example factors that bound gradients of l2 norm `norms`; an
    overflowing (infinite) norm gets scale 0."""
    if policy.kind == "abadi":
        return 1.0 / np.maximum(1.0, norms / policy.clip_norm)
    # auto_s: zero maps to zero since the scale is finite
    return policy.clip_norm / (norms + policy.gamma)


def clipped_grad_sum(spec, w, X, y, policy: ClipPolicy) -> np.ndarray:
    """Sum of a batch's clipped per-example gradients, shape (n_params,), for
    row-major features X (uint8 pixel rows are widened) and targets y.

    Equals the row sum of tests/oracles.py's materialized reference, clip_batch
    over per_example_losses_grads, up to float summation order; an empty batch
    sums to zeros. A non-finite factor entry makes its example's norm
    non-finite, so the factors are scanned only then. Finite factors whose norm
    overflows get scale 0, but a layer whose output gradient is exactly 0 adds 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # inf * 0 is checked below
        factors = models._backprop(spec, w, models.to_batch(spec, X, y))
        parts = [(np.einsum("ij,ij->j", h, h), np.einsum("ij,ij->j", d, d)) for h, d in factors]
        sq_norms = sum(h_sq * d_sq for h_sq, d_sq in parts)
        if not np.isfinite(sq_norms).all():
            if not all(np.isfinite(a).all() for layer in factors for a in layer):
                raise SadpError("layer inputs or gradients have non-finite entries")
            # finite factors: an overflowing input norm times an output
            # gradient of exactly zero is a layer gradient of exactly zero
            sq_norms = sum(np.where(d_sq == 0.0, 0.0, h_sq * d_sq) for h_sq, d_sq in parts)
    scale = _clip_scale(np.sqrt(sq_norms), policy)
    return np.concatenate([(h @ (delta * scale).T).ravel() for h, delta in factors])


def noisy_average(
    clipped_sum: np.ndarray, noise_std: float, lot_size: int, rng: np.random.Generator
) -> np.ndarray:
    """(sum of clipped gradients + N(0, noise_std^2 I)) / lot_size.

    DP-SGD's noise_std is sigma * C, the noise multiplier times the clip
    norm. The divisor is the nominal lot size, not the realized batch
    cardinality. An empty batch passes a zero vector and gets pure noise.
    noise_std > 0 is checked when the config is read.
    """
    z = rng.normal(0.0, noise_std, size=len(clipped_sum))
    return (clipped_sum + z) / lot_size


def sgd_step(w: np.ndarray, g_tilde: np.ndarray, eta: float) -> np.ndarray:
    """One descent step w - eta * g, for float64 vectors of one shape and the
    eta > 0 the config read checked; an overflow is inf, which evaluate rejects."""
    with np.errstate(over="ignore"):
        return w - eta * g_tilde
