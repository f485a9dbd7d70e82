"""Annealed acceptance of candidate model updates.

The screening loop accepts an update with probability 1 when the evaluation
loss improves, and with probability exp(-delta_e * Q) otherwise, where the
temperature Q grows with the number of accepted updates. A cap on
consecutive rejections forces an acceptance before the chain can stall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SadpError


@dataclass(frozen=True)
class AnnealerState:
    """Bookkeeping for the acceptance chain.

    t counts all iterations, tau accepted ones, mu consecutive rejections.
    Q is Q0 * tau after every completed iteration (Q0 before the first).
    """

    t: int = 0
    tau: int = 0
    mu: int = 0
    Q: float = 0.0
    Q0: float = 10.0
    mu0: int = 10
    energy: float = math.inf

    @classmethod
    def initial(cls, Q0: float, mu0: int, energy: float = math.inf) -> "AnnealerState":
        if Q0 <= 0:
            raise SadpError("Q0 must be > 0")
        if mu0 < 1:
            raise SadpError("mu0 must be >= 1")
        return cls(t=0, tau=0, mu=0, Q=Q0, Q0=Q0, mu0=mu0, energy=energy)


@dataclass(frozen=True)
class Decision:
    accepted: bool
    forced: bool
    probability: float


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
    delta_e: float, state: AnnealerState, rng: np.random.Generator
) -> Decision:
    """Accept or reject one candidate.

    Exactly one uniform is drawn per call, including on the forced path, so
    RNG streams stay aligned across configurations. A NaN energy change is
    rejected outright unless the rejection cap forces acceptance.
    """
    u = float(rng.uniform())
    if state.mu >= state.mu0:
        return Decision(accepted=True, forced=True, probability=1.0)
    if not math.isfinite(delta_e):
        # a numerically broken update is never accepted voluntarily
        return Decision(accepted=False, forced=False, probability=0.0)
    p = acceptance_probability(delta_e, state.Q)
    return Decision(accepted=u <= p, forced=False, probability=p)


def advance(
    state: AnnealerState, decision: Decision, new_energy: float
) -> AnnealerState:
    """Fold one decision into the state.

    On accept: tau+1, mu reset, energy replaced. On reject: mu+1, energy
    kept. Either way t advances and Q is recomputed as Q0 * tau, so after a
    rejection before the first acceptance Q is 0 and the next candidate with
    a finite energy change is accepted.
    """
    if decision.accepted:
        tau, mu, energy = state.tau + 1, 0, new_energy
    else:
        tau, mu, energy = state.tau, state.mu + 1, state.energy
    return AnnealerState(state.t + 1, tau, mu, state.Q0 * tau, state.Q0, state.mu0, energy)

