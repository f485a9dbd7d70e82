"""Renyi-DP accountant for the subsampled Gaussian mechanism.

One curve holds the per-step RDP cost at every integer order of the grid,
from the moment sum of the subsampled Gaussian, summed in the log domain
with numpy alone: exact log-binomials and np.logaddexp.reduce. At q = 1 the
mechanism is the plain Gaussian and the curve its closed form.
Charged iterations compose linearly, so after tau steps epsilon = min over
orders of conv(tau * rdp_alpha, delta), where conv is one of the two
RDP-to-DP conversions. Each conversion adds an order-dependent tail, so the
budget inverts in closed form, order by order. An AccountantState fixes
(q, sigma, delta, conversion) for a run; tau is an argument of every query.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetInfeasibleError, SadpError

DEFAULT_ALPHA_GRID = tuple(range(2, 65))
_ALPHAS = np.array(DEFAULT_ALPHA_GRID, dtype=np.float64)
_ALPHAS.flags.writeable = False


def _log_binomials(alphas: tuple[int, ...]) -> np.ndarray:
    """log C(alpha, k) for k = 2..max(alphas) down the rows, one column per
    order, from exact integers; -inf where k > alpha."""
    table = np.full((max(alphas) - 1, len(alphas)), -np.inf)
    for j, alpha in enumerate(alphas):
        table[: alpha - 1, j] = [math.log(math.comb(alpha, k)) for k in range(2, alpha + 1)]
    return table


_LOG_BINOMIALS = _log_binomials(DEFAULT_ALPHA_GRID)
_LOG_BINOMIALS.flags.writeable = False


def _rdp_curve(q: float, sigma: float) -> np.ndarray:
    """Per-step RDP epsilon of the subsampled Gaussian at each order of
    DEFAULT_ALPHA_GRID, for q in (0, 1].

    At q = 1 the mechanism is the Gaussian itself, whose RDP is alpha/(2 sigma^2).
    Below it the moment sum

        A_alpha = sum_{k=0}^{alpha} C(alpha,k) (1-q)^(alpha-k) q^k exp((k^2-k)/(2 sigma^2))

    is 1 + O(q^2): its binomial weights sum to 1 and the k = 0, 1 terms
    carry no exponent. So log A_alpha is taken as log1p of

        A_alpha - 1 = sum_{k>=2} C(alpha,k) (1-q)^(alpha-k) q^k expm1((k^2-k)/(2 sigma^2)),

    summed by np.logaddexp.reduce down the k axis of a (63, 63) array whose
    entries with k > alpha are -inf. The log domain keeps the result finite
    for large alpha and small sigma, and the log1p form keeps full relative
    precision at small q. The log-binomials are exact (from integer
    binomials), read from a table built at import. What is left is the
    rounding of each term's exponent, about an ulp of its largest piece:
    where k log q and the Gaussian exponent nearly cancel, the relative
    error reaches a few 1e-14.
    """
    alpha = _ALPHAS
    if q == 1.0:
        # inf where 2 sigma^2 underflows, 0 where it overflows
        with np.errstate(over="ignore", divide="ignore"):
            return alpha / (2.0 * sigma * sigma)
    k = np.arange(2, alpha.max() + 1)[:, None]
    # c underflows to 0 only at huge sigma (the curve is 0) and overflows to
    # inf at tiny sigma (the curve is inf, and k > alpha reads -inf + inf)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = (k * k - k) / (2.0 * sigma * sigma)
        terms = (
            _LOG_BINOMIALS + (alpha - k) * math.log1p(-q) + k * math.log(q)
            + c + np.log(-np.expm1(-c))      # log expm1(c), without overflow
        )
    log_a_minus_1 = np.logaddexp.reduce(np.where(k <= alpha, terms, -np.inf), axis=0)
    return np.logaddexp(0.0, log_a_minus_1) / (alpha - 1)


@dataclass(frozen=True)
class AccountantState:
    """What is fixed for a run: the mechanism (q, sigma), delta and the
    RDP-to-DP conversion. Every query takes the charged step count tau."""

    q: float
    sigma: float
    delta: float
    tight_conversion: bool = False

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise SadpError(f"sampling rate q={self.q} must be in (0, 1]")
        if not self.sigma > 0.0:
            raise SadpError(f"noise multiplier sigma={self.sigma} must be > 0")
        if not 0.0 < self.delta < 1.0:
            raise SadpError(f"delta={self.delta} must be in (0, 1)")

    @cached_property
    def rdp(self) -> np.ndarray:
        """Per-step RDP at each order of DEFAULT_ALPHA_GRID, built once per state."""
        curve = _rdp_curve(self.q, self.sigma)
        curve.flags.writeable = False
        return curve

    @cached_property
    def _tail(self) -> np.ndarray:
        """What the RDP-to-DP conversion adds to the RDP epsilon per order, before
        the tight clamp at 0: log(1/delta)/(alpha-1) for the standard conversion
        (the default, which published tables assume), log((alpha-1)/alpha) -
        (log delta + log alpha)/(alpha-1) for the tight one."""
        alpha = _ALPHAS
        if self.tight_conversion:
            log_delta_alpha = math.log(self.delta) + np.log(alpha)
            return np.log((alpha - 1) / alpha) - log_delta_alpha / (alpha - 1)
        return math.log(1.0 / self.delta) / (alpha - 1)

    def epsilons(self, tau) -> np.ndarray:
        """(epsilon, delta)-DP epsilon at each order after tau charged steps,
        tau * rdp_alpha plus the conversion's tail, clamped at 0 by the tight
        conversion; tau is one count or one count per order. No charged step
        costs 0 at any per-step cost, and a cost past float range is inf."""
        with np.errstate(over="ignore", invalid="ignore"):
            eps = np.where(tau == 0, 0.0, tau * self.rdp) + self._tail
        return np.maximum(eps, 0.0) if self.tight_conversion else eps

    def epsilon(self, tau) -> float:
        """epsilon after tau charged steps: the min over orders."""
        return float(self.epsilons(tau).min())


@dataclass(frozen=True)
class PrivacySpend:
    """(epsilon, delta) over the charged steps, epsilon's best order, and
    epsilon_computed over every computed release, charged or not."""

    epsilon: float
    delta: float
    best_alpha: int
    epsilon_computed: float


def spend(state: AccountantState, tau: int, computed: int | None = None) -> PrivacySpend:
    """Total (epsilon, delta) after tau charged iterations.

    Minimizes over the order grid; ties break toward the first order.
    `computed` counts every noisy release a run computed (at least tau);
    epsilon_computed composes them all, and is epsilon when computed is
    None, i.e. when every computed release is charged.
    """
    if tau < 0:
        raise SadpError(f"tau={tau} must be >= 0")
    if tau > sys.float_info.max:
        raise SadpError(f"tau={tau} is past float range")
    eps = state.epsilons(tau)
    best = int(np.argmin(eps))
    return PrivacySpend(
        epsilon=float(eps[best]), delta=state.delta,
        best_alpha=DEFAULT_ALPHA_GRID[best],
        epsilon_computed=float(eps[best]) if computed is None else state.epsilon(computed),
    )


def max_steps_within(state: AccountantState, eps_budget: float) -> int:
    """Largest tau whose spend stays within eps_budget.

    At each order epsilon is tau * rdp_alpha plus the conversion's tail, so
    the last tau within a budget of at least epsilon(1) >= 0 is
    floor((budget - tail_alpha) / rdp_alpha); spend is a min over orders,
    so tau* is the max of those. Each floor is moved at most one step to
    agree with spend's own rounding. The config read checks eps_budget is finite.
    """
    eps_one = state.epsilon(1)
    if eps_one > eps_budget:
        raise BudgetInfeasibleError(
            f"budget {eps_budget} does not cover a single charged iteration "
            f"(epsilon {eps_one:.6g} at q={state.q:.6g}, sigma={state.sigma})"
        )
    rdp, tail = state.rdp, state._tail
    if np.any((rdp == 0.0) & (tail <= eps_budget)):
        raise SadpError(
            f"the per-step cost at q={state.q:.6g}, sigma={state.sigma} is 0, "
            f"so budget {eps_budget} never binds"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.floor(np.where(rdp > 0.0, (eps_budget - tail) / rdp, 0.0))
    steps = np.maximum(steps, 0.0)
    steps -= state.epsilons(steps) > eps_budget
    steps += state.epsilons(steps + 1) <= eps_budget
    return int(steps.max())
