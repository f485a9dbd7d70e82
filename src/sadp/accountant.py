"""Renyi-DP accountant for the subsampled Gaussian mechanism.

One curve holds the per-step RDP cost at every integer order of the grid,
from the moment sum of the subsampled Gaussian. Charged iterations compose
linearly, so after tau steps epsilon = min over orders of
conv(tau * rdp_alpha, delta), where conv is one of the two RDP-to-DP
conversions. Each conversion adds an order-dependent tail, so the budget
inverts in closed form, order by order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import BudgetInfeasibleError, InvalidParameterError

DEFAULT_ALPHA_GRID = tuple(range(2, 65))
_ALPHAS = np.array(DEFAULT_ALPHA_GRID, dtype=np.float64)
_ALPHAS.flags.writeable = False


def _check_q_sigma(q: float, sigma: float) -> None:
    if not 0.0 <= q <= 1.0:
        raise InvalidParameterError(f"sampling rate q={q} must be in [0, 1]")
    if not sigma > 0.0:
        raise InvalidParameterError(f"noise multiplier sigma={sigma} must be > 0")


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta={delta} must be in (0, 1)")


def _rdp_curve(q: float, sigma: float, alphas: Sequence[int]) -> np.ndarray:
    """Per-step RDP epsilon of the subsampled Gaussian at each integer order.

    The moment sum

        A_alpha = sum_{k=0}^{alpha} C(alpha,k) (1-q)^(alpha-k) q^k exp((k^2-k)/(2 sigma^2))

    is 1 + O(q^2): its binomial weights sum to 1 and the k = 0, 1 terms
    carry no exponent. So log A_alpha is taken as log1p of

        A_alpha - 1 = sum_{k>=2} C(alpha,k) (1-q)^(alpha-k) q^k expm1((k^2-k)/(2 sigma^2)),

    one log-sum-exp down the k axis of a (max alpha - 1, len(alphas)) array
    whose entries with k > alpha are -inf. The log domain (log-gamma
    binomials) keeps the result finite for large alpha and small sigma, and
    the log1p form keeps full relative precision at small q.
    """
    alpha = np.asarray(alphas, dtype=np.float64)
    if q == 0.0:
        return np.zeros_like(alpha)
    k = np.arange(2, alpha.max() + 1)[:, None]
    log_q = math.log(q) if q < 1.0 else 0.0
    log_1mq = math.log1p(-q) if q < 1.0 else -math.inf
    c = (k * k - k) / (2.0 * sigma * sigma)
    # 0 * -inf would poison the k=alpha term, and k > alpha has no term at
    # all; mask both explicitly (c underflows to 0 only at huge sigma)
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = (
            gammaln(alpha + 1) - gammaln(k + 1) - gammaln(alpha - k + 1)
            + np.where(k == alpha, 0.0, (alpha - k) * log_1mq)
            + k * log_q
            + c + np.log(-np.expm1(-c))      # log expm1(c), without overflow
        )
    log_a_minus_1 = logsumexp(np.where(k <= alpha, terms, -np.inf), axis=0)
    return np.logaddexp(0.0, log_a_minus_1) / (alpha - 1)


@dataclass(frozen=True)
class AccountantState:
    """Everything needed to answer "what is epsilon now?"."""

    q: float
    sigma: float
    delta: float
    tau: int = 0

    def __post_init__(self):
        _check_q_sigma(self.q, self.sigma)
        if self.q == 0.0:
            raise InvalidParameterError("sampling rate q must be positive")
        _check_delta(self.delta)
        if self.tau < 0:
            raise InvalidParameterError(f"tau={self.tau} must be >= 0")

    @cached_property
    def rdp(self) -> np.ndarray:
        """Per-step RDP at each order of DEFAULT_ALPHA_GRID, built once per state."""
        curve = _rdp_curve(self.q, self.sigma, _ALPHAS)
        curve.flags.writeable = False
        return curve

    def with_tau(self, tau: int) -> "AccountantState":
        moved = replace(self, tau=tau)
        # same q and sigma, so the same curve
        vars(moved).update(rdp=self.rdp)
        return moved

    def epsilons(self, tau, tight_conversion: bool = False) -> np.ndarray:
        """(epsilon, delta)-DP epsilon at each order after tau charged steps;
        tau is one count or one count per order."""
        convert = rdp_to_dp_tight if tight_conversion else rdp_to_dp
        return convert(_ALPHAS, tau * self.rdp, self.delta)

    def epsilon(self, tau, tight_conversion: bool = False) -> float:
        """epsilon after tau charged steps: the min over orders."""
        return float(self.epsilons(tau, tight_conversion).min())


@dataclass(frozen=True)
class PrivacySpend:
    epsilon: float
    delta: float
    best_alpha: int


def rdp_per_step(q: float, sigma: float, alpha: int) -> float:
    """Per-step RDP epsilon of the subsampled Gaussian at integer order alpha,
    read from the curve over the default grid (or over alpha alone, off it)."""
    _check_q_sigma(q, sigma)
    if alpha < 2 or alpha != int(alpha):
        raise InvalidParameterError(f"alpha={alpha} must be an integer >= 2")
    grid = DEFAULT_ALPHA_GRID if alpha in DEFAULT_ALPHA_GRID else (int(alpha),)
    return float(_rdp_curve(q, sigma, grid)[grid.index(alpha)])


def _tail(alpha, delta: float, tight: bool):
    """What a conversion adds to the RDP epsilon at each order, before the
    tight conversion's clamp at 0."""
    _check_delta(delta)
    alpha = np.asarray(alpha, dtype=np.float64)
    if tight:
        return np.log((alpha - 1) / alpha) - (math.log(delta) + np.log(alpha)) / (alpha - 1)
    return math.log(1.0 / delta) / (alpha - 1)


def rdp_to_dp(alpha, rdp_eps, delta: float):
    """Standard conversion: eps_DP = eps_RDP + log(1/delta)/(alpha-1).

    Elementwise over arrays of orders and RDP epsilons.
    """
    return rdp_eps + _tail(alpha, delta, tight=False)


def rdp_to_dp_tight(alpha, rdp_eps, delta: float):
    """Tighter conversion, eps_RDP + log((alpha-1)/alpha) - (log delta +
    log alpha)/(alpha-1), clamped below at 0; elementwise like rdp_to_dp.

    Off by default in the training configs; the standard conversion is what
    published accuracy/budget tables assume.
    """
    return np.maximum(rdp_eps + _tail(alpha, delta, tight=True), 0.0)


def spend(state: AccountantState, tight_conversion: bool = False) -> PrivacySpend:
    """Total (epsilon, delta) after state.tau charged iterations.

    Minimizes over the order grid; ties break toward the first order.
    """
    eps = state.epsilons(state.tau, tight_conversion)
    best = int(np.argmin(eps))
    return PrivacySpend(
        epsilon=float(eps[best]), delta=state.delta,
        best_alpha=DEFAULT_ALPHA_GRID[best],
    )


def max_steps_within(
    state: AccountantState, eps_budget: float, tight_conversion: bool = False
) -> int:
    """Largest tau whose spend stays within eps_budget.

    At each order epsilon is tau * rdp_alpha plus the conversion's tail, so
    the last tau within a budget of at least epsilon(1) >= 0 is
    floor((budget - tail_alpha) / rdp_alpha); spend is a min over orders,
    so tau* is the max of those. Each floor is moved at most one step to
    agree with spend's own rounding.
    """
    if not math.isfinite(eps_budget):
        raise InvalidParameterError(f"eps_budget={eps_budget} must be finite")
    eps_one = state.epsilon(1, tight_conversion)
    if eps_one > eps_budget:
        raise BudgetInfeasibleError(
            f"budget {eps_budget} does not cover a single charged iteration "
            f"(epsilon {eps_one:.6g} at q={state.q:.6g}, sigma={state.sigma})"
        )
    rdp = state.rdp
    tail = _tail(_ALPHAS, state.delta, tight_conversion)
    if np.any((rdp == 0.0) & (tail <= eps_budget)):
        raise InvalidParameterError(
            f"the per-step cost at q={state.q:.6g}, sigma={state.sigma} is 0, "
            f"so budget {eps_budget} never binds"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.floor(np.where(rdp > 0.0, (eps_budget - tail) / rdp, 0.0))
    steps = np.maximum(steps, 0.0)
    steps -= state.epsilons(steps, tight_conversion) > eps_budget
    steps += state.epsilons(steps + 1, tight_conversion) <= eps_budget
    return int(steps.max())
