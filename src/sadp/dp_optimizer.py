"""Privatized gradient pipeline: the per-example clip rule, whose scale
models.clipped_grad_sum applies, Gaussian noising of the summed gradient,
and the plain SGD update."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def scale(self, norms):
        """Per-example factors that bound gradients of l2 norm `norms`; an
        overflowing (infinite) norm gets scale 0."""
        if self.kind == "abadi":
            return 1.0 / np.maximum(1.0, norms / self.clip_norm)
        # auto_s: zero maps to zero since the scale is finite
        return self.clip_norm / (norms + self.gamma)


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
