"""Materialized reference implementations of the privatized step.

Training never builds per-example gradients: models.clipped_grad_sum
sums the clipped gradients from each layer's factors. The tests check it
against these two, which build the (n, n_params) gradient matrix and clip
its rows one by one, out of the same private pieces sadp trains with.
"""

import numpy as np

from sadp import models
from sadp.dp_optimizer import ClipPolicy
from sadp.errors import SadpError


def per_example_losses_grads(
    spec: models.ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Losses (n,) and gradients (n, n_params), one row per example: the
    test oracle for models.clipped_grad_sum, which training uses."""
    batch = models.to_batch(spec, X, y)
    losses, _ = models._losses(spec, models._forward(spec, w, batch.inputs)[0], batch)
    return losses, np.hstack(
        [np.einsum("in,jn->nij", h, d).reshape(len(batch), -1)
         for h, d in models._backprop(spec, w, batch)]
    )


def clip_batch(grads: np.ndarray, policy: ClipPolicy) -> np.ndarray:
    """Bound every row of an (n, dim) gradient matrix in l2 norm."""
    grads = np.asarray(grads, dtype=np.float64)
    if not np.all(np.isfinite(grads)):
        raise SadpError("gradient batch has non-finite entries")
    return grads * policy.scale(np.linalg.norm(grads, axis=1))[:, None]
