"""Annealed acceptance of candidate model updates.

The screening loop accepts an update with probability 1 when the evaluation
loss improves, and with probability exp(-delta_e * Q) otherwise, where the
temperature Q grows with the number of accepted updates. A cap on
consecutive rejections forces an acceptance before the chain can stall.
The chain's counters live in the run loop, `harness.train`, which writes
them into each trace row.
"""

from __future__ import annotations

import math

import numpy as np


def acceptance_probability(delta_e: float, Q: float) -> float:
    """1 when the move improves, exp(-delta_e * Q) otherwise.

    The temperature multiplies the energy change: large Q means cold, so
    the chain hardens as acceptances accumulate. `decide` passes a finite
    delta_e and Q = Q0 * tau >= 0.
    """
    if delta_e <= 0:
        return 1.0
    return min(math.exp(-delta_e * Q), 1.0)


def decide(
    delta_e: float, Q: float, mu: int, mu0: int, rng: np.random.Generator
) -> tuple[bool, bool, float]:
    """(accepted, forced, P) for one candidate, after mu consecutive
    rejections at temperature Q.

    Exactly one uniform is drawn per call, including on the forced path, so
    RNG streams stay aligned across configurations. At mu >= mu0 the
    candidate is forced through with P = 1; otherwise a NaN or infinite
    energy change is rejected outright with P = 0.
    """
    u = float(rng.uniform())
    if mu >= mu0:
        return True, True, 1.0
    if not math.isfinite(delta_e):
        # a numerically broken update is never accepted voluntarily
        return False, False, 0.0
    p = acceptance_probability(delta_e, Q)
    return u <= p, False, p
