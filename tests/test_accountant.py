import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sadp.accountant import (
    DEFAULT_ALPHA_GRID,
    AccountantState,
    BudgetInfeasibleError,
    InvalidParameterError,
    max_steps_within,
    rdp_per_step,
    rdp_to_dp,
    rdp_to_dp_tight,
    spend,
)

MNIST_Q = 512 / 60000


class TestRdpPerStep:
    def test_full_sampling_is_gaussian_limit(self):
        # q=1 leaves only the top term of the moment sum: alpha / (2 sigma^2)
        assert rdp_per_step(1.0, 2.0, 4) == pytest.approx(0.5, abs=1e-12)

    def test_zero_sampling_rate_costs_nothing(self):
        assert rdp_per_step(0.0, 1.0, 8) == 0.0

    def test_matches_high_precision_oracle(self, golden_rdp):
        expected = golden_rdp[(0.0085333333333333, 1.23, 16)]
        got = rdp_per_step(MNIST_Q, 1.23, 16)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_log_domain_survives_large_alpha_small_sigma(self, golden_rdp):
        # naive summation overflows here; the log-domain path must not
        got = rdp_per_step(0.01, 0.5, 64)
        assert math.isfinite(got)
        assert got == pytest.approx(golden_rdp[(0.01, 0.5, 64)], rel=1e-6)

    @pytest.mark.parametrize(
        "q,sigma", [(1e-4, 4.0), (1e-4, 0.8), (1e-3, 8.0), (MNIST_Q, 1.23), (0.01, 2.0), (0.05, 0.6)]
    )
    def test_full_relative_precision_at_small_q(self, q, sigma):
        # the moment sum is 1 + O(q^2); a plain log of it loses ~1e-10 here
        mpmath = pytest.importorskip("mpmath")
        got = AccountantState(q=q, sigma=sigma, delta=1e-5).rdp
        with mpmath.workprec(240):
            mq, two_var = mpmath.mpf(q), 2 * mpmath.mpf(sigma) ** 2
            for alpha, value in zip(DEFAULT_ALPHA_GRID, got):
                moment = mpmath.fsum(
                    mpmath.binomial(alpha, k) * (1 - mq) ** (alpha - k) * mq**k
                    * mpmath.exp((k * k - k) / two_var)
                    for k in range(alpha + 1)
                )
                expected = float(mpmath.log(moment) / (alpha - 1))
                assert abs(value - expected) <= 1e-12 * expected, alpha

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [2, 3, 17, 64])
    def test_analytic_limit_across_orders(self, sigma, alpha):
        assert rdp_per_step(1.0, sigma, alpha) == pytest.approx(
            alpha / (2 * sigma**2), abs=1e-9
        )

    def test_nondecreasing_in_q(self):
        qs = [0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0]
        for sigma in (0.5, 1.23, 4.0):
            for alpha in (2, 16, 64):
                vals = [rdp_per_step(q, sigma, alpha) for q in qs]
                assert vals == sorted(vals)

    def test_nonincreasing_in_sigma(self):
        sigmas = [0.3, 0.5, 1.0, 2.0, 4.0, 8.0]
        for q in (0.01, 0.5, 1.0):
            for alpha in (2, 16, 64):
                vals = [rdp_per_step(q, sigma, alpha) for sigma in sigmas]
                assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize(
        "q,sigma,alpha",
        [(-0.1, 1.0, 2), (1.5, 1.0, 2), (0.5, 0.0, 2), (0.5, -1.0, 2), (0.5, 1.0, 1)],
    )
    def test_rejects_bad_parameters(self, q, sigma, alpha):
        with pytest.raises(InvalidParameterError):
            rdp_per_step(q, sigma, alpha)


@pytest.mark.parametrize("tight, convert", [(False, rdp_to_dp), (True, rdp_to_dp_tight)])
@pytest.mark.parametrize("tau", [0, 1, 100, 4698, 10**6])
def test_spend_is_min_over_orders_of_converted_composition(tau, tight, convert):
    # ties go to the smallest order, as min() keeps the first
    eps, alpha = min(
        (convert(a, tau * rdp_per_step(MNIST_Q, 1.23, a), 1e-5), a)
        for a in DEFAULT_ALPHA_GRID
    )
    result = spend(AccountantState(q=MNIST_Q, sigma=1.23, delta=1e-5, tau=tau), tight)
    assert (result.epsilon, result.best_alpha) == (eps, alpha)


class TestConversions:
    def test_standard_tail_term(self):
        assert rdp_to_dp(2, 0.0, math.exp(-1)) == pytest.approx(1.0)

    def test_standard_large_order(self):
        assert rdp_to_dp(64, 0.0, 1e-5) == pytest.approx(math.log(1e5) / 63)
        assert rdp_to_dp(64, 0.0, 1e-5) == pytest.approx(0.18274, abs=1e-5)

    def test_standard_additivity_of_terms(self):
        assert rdp_to_dp(11, 2.0, 1e-5) == pytest.approx(2.0 + math.log(1e5) / 10)

    def test_tight_clamps_at_zero(self):
        # the unclamped value is -log 2
        assert rdp_to_dp_tight(2, 0.0, 0.5) == 0.0

    def test_tight_beats_standard_when_delta_small(self):
        # closed-form check, independent arithmetic
        alpha, eps, delta = 64, 1.0, 1e-5
        expected = (
            1.0 + math.log(63 / 64) - (math.log(1e-5) + math.log(64)) / 63
        )
        assert rdp_to_dp_tight(alpha, eps, delta) == pytest.approx(expected)

    def test_tight_never_worse_on_random_sweep(self):
        import random

        rnd = random.Random(7)
        for _ in range(500):
            alpha = rnd.randint(2, 64)
            eps = rnd.uniform(0, 5)
            delta = rnd.uniform(1e-9, 1 / alpha)
            assert rdp_to_dp_tight(alpha, eps, delta) <= rdp_to_dp(alpha, eps, delta)

    def test_elementwise_over_orders(self):
        alphas = np.array([2, 9, 64])
        for convert in (rdp_to_dp, rdp_to_dp_tight):
            got = convert(alphas, np.array([0.0, 0.5, 3.0]), 0.01)
            assert list(got) == [convert(a, e, 0.01) for a, e in zip(alphas, (0.0, 0.5, 3.0))]

    def test_rejects_bad_delta(self):
        with pytest.raises(InvalidParameterError):
            rdp_to_dp(2, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            rdp_to_dp_tight(2, 0.0, 1.0)


class TestSpend:
    def test_zero_tau_floor_at_largest_order(self):
        state = AccountantState(q=MNIST_Q, sigma=1.23, delta=1e-5, tau=0)
        result = spend(state)
        assert result.best_alpha == 64
        assert result.epsilon == pytest.approx(math.log(1e5) / 63)

    def test_monotone_in_tau(self):
        state = AccountantState(q=MNIST_Q, sigma=1.23, delta=1e-5)
        eps = [spend(state.with_tau(tau)).epsilon for tau in (0, 10, 100, 1000, 5000)]
        assert eps == sorted(eps)

    def test_monotone_in_q_and_sigma(self):
        eps_q = [
            spend(AccountantState(q=q, sigma=1.23, delta=1e-5, tau=500)).epsilon
            for q in (0.001, 0.01, 0.1, 0.5)
        ]
        assert eps_q == sorted(eps_q)
        eps_s = [
            spend(AccountantState(q=0.01, sigma=s, delta=1e-5, tau=500)).epsilon
            for s in (0.5, 1.0, 2.0, 4.0)
        ]
        assert eps_s == sorted(eps_s, reverse=True)

    def test_tie_goes_to_smallest_order(self):
        # with delta = 0.5 the tight conversion clamps several orders to 0
        state = AccountantState(q=0.01, sigma=1.0, delta=0.5)
        assert list(state.epsilons(0, tight_conversion=True)[:2]) == [0.0, 0.0]
        result = spend(state, tight_conversion=True)
        assert (result.epsilon, result.best_alpha) == (0.0, 2)

    def test_deterministic_with_smallest_alpha_tie_break(self):
        state = AccountantState(q=0.01, sigma=1.0, delta=1e-3, tau=200)
        assert spend(state) == spend(state)


class TestMaxStepsWithin:
    STATE = AccountantState(q=MNIST_Q, sigma=1.23, delta=1e-5)

    def test_budget_below_floor_is_infeasible(self):
        with pytest.raises(BudgetInfeasibleError):
            max_steps_within(self.STATE, 0.1)

    def test_defining_property(self):
        budget = 1.5
        tau = max_steps_within(self.STATE, budget)
        assert spend(self.STATE.with_tau(tau)).epsilon <= budget
        assert spend(self.STATE.with_tau(tau + 1)).epsilon > budget

    def test_matches_oracle_crossing(self):
        # frozen from the arbitrary-precision sweep in scripts/
        assert max_steps_within(self.STATE, 3.0) == 4698

    def test_budget_below_one_charged_step_is_infeasible(self):
        # above the tau=0 conversion floor, below a single charged step
        floor = spend(self.STATE).epsilon
        one = spend(self.STATE.with_tau(1)).epsilon
        with pytest.raises(BudgetInfeasibleError):
            max_steps_within(self.STATE, (floor + one) / 2)
        assert max_steps_within(self.STATE, one) >= 1

    @pytest.mark.parametrize("budget", [math.inf, math.nan])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(InvalidParameterError):
            max_steps_within(self.STATE, budget)

    def test_budget_that_never_binds_rejected(self):
        # infinite noise costs nothing per step
        state = AccountantState(q=0.5, sigma=math.inf, delta=1e-5)
        with pytest.raises(InvalidParameterError):
            max_steps_within(state, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        q=st.floats(1e-4, 1.0),
        sigma=st.floats(0.3, 10.0),
        delta=st.floats(1e-10, 0.5),
        budget=st.floats(0.0, 50.0),
        tight=st.booleans(),
    )
    def test_inverts_spend_exactly(self, q, sigma, delta, budget, tight):
        state = AccountantState(q=q, sigma=sigma, delta=delta)
        try:
            tau = max_steps_within(state, budget, tight)
        except BudgetInfeasibleError:
            assert spend(state.with_tau(1), tight).epsilon > budget
            return
        assert spend(state.with_tau(tau), tight).epsilon <= budget
        assert spend(state.with_tau(tau + 1), tight).epsilon > budget

    @settings(max_examples=300, deadline=None)
    @given(
        q=st.floats(1e-4, 1.0),
        sigma=st.floats(0.3, 10.0),
        delta=st.floats(1e-10, 0.5),
        tau0=st.integers(1, 10**6),
        ulps=st.sampled_from([-1, 0, 1]),
        tight=st.booleans(),
    )
    def test_inverts_spend_at_the_rounding_edge(self, q, sigma, delta, tau0, ulps, tight):
        # a budget on, or one ulp either side of, an attained epsilon is
        # where a floor computed in floats lands one step off
        state = AccountantState(q=q, sigma=sigma, delta=delta)
        budget = float(spend(state.with_tau(tau0), tight).epsilon)
        budget = float(np.nextafter(budget, ulps * math.inf)) if ulps else budget
        try:
            tau = max_steps_within(state, budget, tight)
        except BudgetInfeasibleError:
            assert spend(state.with_tau(1), tight).epsilon > budget
            return
        assert spend(state.with_tau(tau), tight).epsilon <= budget
        assert spend(state.with_tau(tau + 1), tight).epsilon > budget
        assert (tau >= tau0) == (ulps >= 0)


class TestAccountantState:
    def test_rejects_invalid_fields(self):
        with pytest.raises(InvalidParameterError):
            AccountantState(q=0.0, sigma=1.0, delta=1e-5)
        with pytest.raises(InvalidParameterError):
            AccountantState(q=0.5, sigma=1.0, delta=1.5)
        with pytest.raises(InvalidParameterError):
            AccountantState(q=0.5, sigma=1.0, delta=1e-5, tau=-1)


def test_privacy_demo_prints_budget_crossing():
    root = pathlib.Path(__file__).parent.parent
    out = subprocess.run(
        [sys.executable, str(root / "demos" / "01_privacy_accounting.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert "Largest tau that stays within epsilon <= 3.0: 4698" in out
