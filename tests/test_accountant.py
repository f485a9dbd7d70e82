import dataclasses
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
    SadpError,
    max_steps_within,
    spend,
)

MNIST_Q = 512 / 60000


def _mpmath_rdp(q, sigma, alpha):
    """Per-step RDP at one order in 240-bit arithmetic, and the relative
    error float64 evaluation may make there.

    Each term of the moment sum is exp of k log q + (alpha-k) log(1-q) +
    c_k + log C(alpha, k); rounding each piece costs about an ulp of its
    magnitude, and where k log q and c_k nearly cancel that is far more
    than an ulp of the term. The bound is 4 ulps of the terms' magnitudes,
    weighted by their share of A - 1 and carried through log1p, plus 4 ulps.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(240):
        mq, two_var = mpmath.mpf(q), 2 * mpmath.mpf(sigma) ** 2
        log_q, log_1mq = mpmath.log(mq), mpmath.log1p(-mq)
        terms = [
            (
                math.comb(alpha, k) * mpmath.exp((alpha - k) * log_1mq + k * log_q)
                * mpmath.expm1((k * k - k) / two_var),
                -k * log_q - (alpha - k) * log_1mq + (k * k - k) / two_var
                + math.log(math.comb(alpha, k)),
            )
            for k in range(2, alpha + 1)
        ]
        a_minus_1 = mpmath.fsum(t for t, _ in terms)
        log_a = mpmath.log1p(a_minus_1)
        magnitude = mpmath.fsum(t * m for t, m in terms) / (1 + a_minus_1) / log_a
        return float(log_a / (alpha - 1)), float(4 * 2.0**-53 * (magnitude + 1))


class TestRdpCurve:
    def test_full_sampling_is_gaussian_limit(self):
        # q=1 leaves only the top term of the moment sum: alpha / (2 sigma^2)
        assert AccountantState(1.0, 2.0, 1e-5).rdp[4 - 2] == pytest.approx(0.5, abs=1e-12)

    def test_matches_high_precision_oracle(self, golden_rdp):
        expected = golden_rdp[(0.0085333333333333, 1.23, 16)]
        got = AccountantState(MNIST_Q, 1.23, 1e-5).rdp[16 - 2]
        assert got == pytest.approx(expected, rel=1e-9)

    def test_log_domain_survives_large_alpha_small_sigma(self, golden_rdp):
        # naive summation overflows here; the log-domain path must not
        got = AccountantState(0.01, 0.5, 1e-5).rdp[64 - 2]
        assert math.isfinite(got)
        assert got == pytest.approx(golden_rdp[(0.01, 0.5, 64)], rel=1e-6)

    @pytest.mark.parametrize(
        "q,sigma",
        [
            (1e-4, 4.0), (1e-4, 0.8), (1e-3, 8.0), (MNIST_Q, 1.23), (0.01, 2.0), (0.05, 0.6),
            (0.2, 0.4), (0.3, 8.0), (0.5, 1.0), (0.9, 3.0),
        ],
    )
    def test_full_relative_precision_at_small_q(self, q, sigma):
        # the moment sum is 1 + O(q^2); a plain log of it loses ~1e-10 here,
        # and log-gamma binomials err by up to ~5 times the bound below
        got = AccountantState(q=q, sigma=sigma, delta=1e-5).rdp
        for alpha, value in zip(DEFAULT_ALPHA_GRID, got):
            expected, bound = _mpmath_rdp(q, sigma, alpha)
            assert abs(value - expected) <= bound * expected, alpha

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [2, 3, 17, 64])
    def test_analytic_limit_across_orders(self, sigma, alpha):
        assert AccountantState(1.0, sigma, 1e-5).rdp[alpha - 2] == alpha / (2 * sigma**2)

    def test_full_sampling_is_the_gaussian_closed_form_bit_for_bit(self):
        for sigma in np.geomspace(1e-3, 1e3, 61):
            want = [alpha / (2 * float(sigma) ** 2) for alpha in DEFAULT_ALPHA_GRID]
            assert list(AccountantState(1.0, float(sigma), 1e-5).rdp) == want, sigma

    @pytest.mark.parametrize("q", [1e-3, 0.5, 1.0])
    def test_huge_sigma_costs_nothing_and_tiny_sigma_everything(self, q):
        # RuntimeWarnings are errors under pytest: neither end may warn
        assert not AccountantState(q, 1e200, 1e-5).rdp.any()
        assert np.all(AccountantState(q, 1e-300, 1e-5).rdp == math.inf)
        # at 1e-154, 1/sigma^2 is 1e308: alpha = 2 costs that, and more orders overflow
        assert np.all(AccountantState(q, 1e-154, 1e-5).rdp >= 1e308)

    def test_seeded_sweep_within_the_oracle_bound(self):
        # (1.13e-3, 2.0) is where k log q and the Gaussian exponent nearly
        # cancel, and the error is largest relative to an ulp
        rnd = np.random.default_rng(32)
        points = [(1.13e-3, 2.0)] + [
            (float(10 ** rnd.uniform(-4, -0.05)), float(10 ** rnd.uniform(-0.4, 1))) for _ in range(7)
        ]
        for q, sigma in points:
            got = AccountantState(q, sigma, 1e-5).rdp
            for alpha in (2, 5, 16, 33, 64):
                expected, bound = _mpmath_rdp(q, sigma, alpha)
                assert abs(got[alpha - 2] - expected) <= bound * expected, (q, sigma, alpha)

    def test_nondecreasing_in_q(self):
        qs = [0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0]
        for sigma in (0.5, 1.23, 4.0):
            for alpha in (2, 16, 64):
                vals = [AccountantState(q, sigma, 1e-5).rdp[alpha - 2] for q in qs]
                assert vals == sorted(vals)

    def test_nonincreasing_in_sigma(self):
        sigmas = [0.3, 0.5, 1.0, 2.0, 4.0, 8.0]
        for q in (0.01, 0.5, 1.0):
            for alpha in (2, 16, 64):
                vals = [AccountantState(q, sigma, 1e-5).rdp[alpha - 2] for sigma in sigmas]
                assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize(
        "q,sigma", [(-0.1, 1.0), (1.5, 1.0), (0.0, 1.0), (0.5, 0.0), (0.5, -1.0)]
    )
    def test_rejects_bad_parameters(self, q, sigma):
        with pytest.raises(SadpError, match=r"\b(q|sigma)=\S+ must be"):
            AccountantState(q, sigma, 1e-5)


def standard_conversion(alpha, rdp_eps, delta):
    """eps_RDP + log(1/delta)/(alpha-1), in scalar floats: a reference."""
    return rdp_eps + math.log(1.0 / delta) / (alpha - 1)


def tight_conversion(alpha, rdp_eps, delta):
    """eps_RDP + log((alpha-1)/alpha) - (log delta + log alpha)/(alpha-1),
    clamped below at 0, in scalar floats: a reference."""
    tail = math.log((alpha - 1) / alpha) - (math.log(delta) + math.log(alpha)) / (alpha - 1)
    return max(rdp_eps + tail, 0.0)


@pytest.mark.parametrize(
    "tight, convert", [(False, standard_conversion), (True, tight_conversion)]
)
@pytest.mark.parametrize("tau", [0, 1, 100, 4698, 10**6])
def test_spend_is_min_over_orders_of_converted_composition(tau, tight, convert):
    state = AccountantState(MNIST_Q, 1.23, 1e-5, tight)
    rdp = AccountantState(MNIST_Q, 1.23, 1e-5).rdp
    expected = [convert(a, tau * rdp[a - 2], 1e-5) for a in DEFAULT_ALPHA_GRID]
    np.testing.assert_allclose(state.epsilons(tau), expected, rtol=1e-14, atol=0.0)
    # ties go to the smallest order, as min() keeps the first
    eps, alpha = min(zip(state.epsilons(tau), DEFAULT_ALPHA_GRID))
    assert eps == pytest.approx(min(expected), rel=1e-14)
    result = spend(state, tau)
    assert (result.epsilon, result.best_alpha) == (eps, alpha)


class TestConversions:
    """Each conversion as AccountantState.epsilons applies it, order by order,
    against the formula written out above."""

    @staticmethod
    def epsilon_at(alpha, tau, delta, tight=False, q=MNIST_Q, sigma=1.23):
        state = AccountantState(q, sigma, delta, tight)
        return state.epsilons(tau)[alpha - 2], tau * state.rdp[alpha - 2]

    def test_standard_tail_term(self):
        assert self.epsilon_at(2, 0, math.exp(-1))[0] == pytest.approx(1.0)

    def test_standard_large_order(self):
        eps, _ = self.epsilon_at(64, 0, 1e-5)
        assert eps == pytest.approx(math.log(1e5) / 63)
        assert eps == pytest.approx(0.18274, abs=1e-5)

    def test_standard_additivity_of_terms(self):
        eps, rdp = self.epsilon_at(11, 1000, 1e-5)
        assert rdp > 0
        assert eps == pytest.approx(rdp + math.log(1e5) / 10)
        assert eps == pytest.approx(standard_conversion(11, rdp, 1e-5), rel=1e-15)

    def test_tight_clamps_at_zero(self):
        # the unclamped value is -log 2
        assert self.epsilon_at(2, 0, 0.5, tight=True)[0] == 0.0

    def test_tight_beats_standard_when_delta_small(self):
        # closed-form check, independent arithmetic
        eps, rdp = self.epsilon_at(64, 1000, 1e-5, tight=True)
        expected = rdp + math.log(63 / 64) - (math.log(1e-5) + math.log(64)) / 63
        assert eps == pytest.approx(expected)
        assert eps < self.epsilon_at(64, 1000, 1e-5)[0]

    def test_tight_never_worse_on_random_sweep(self):
        import random

        rnd = random.Random(7)
        for _ in range(100):
            q, sigma = rnd.uniform(1e-4, 1.0), rnd.uniform(0.3, 8.0)
            delta, tau = rnd.uniform(1e-9, 0.5), rnd.randint(0, 10**4)
            standard = AccountantState(q, sigma, delta).epsilons(tau)
            tight = AccountantState(q, sigma, delta, tight_conversion=True).epsilons(tau)
            assert np.all(tight <= standard)
            for alpha in (2, 9, 64):
                rdp = tau * AccountantState(q, sigma, 1e-5).rdp[alpha - 2]
                want_tight = tight_conversion(alpha, rdp, delta)
                want_standard = standard_conversion(alpha, rdp, delta)
                assert tight[alpha - 2] == pytest.approx(want_tight, rel=1e-12, abs=1e-15)
                assert standard[alpha - 2] == pytest.approx(want_standard, rel=1e-12)

    def test_elementwise_over_orders(self):
        # max_steps_within asks for each order at its own tau
        taus = np.arange(len(DEFAULT_ALPHA_GRID)) * 37.0
        for tight in (False, True):
            state = AccountantState(0.01, 1.0, 0.01, tight)
            got = state.epsilons(taus)
            assert list(got) == [state.epsilons(t)[i] for i, t in enumerate(taus)]

    def test_no_charged_step_costs_nothing_at_any_per_step_cost(self):
        # at tau = 0 epsilon is the conversion's tail alone, also where the
        # per-step cost is infinite (0 * inf) or its multiple overflows
        for tight in (False, True):
            want = AccountantState(0.5, 1.0, 1e-5, tight).epsilons(0)
            for q, sigma in ((1.0, 1e-300), (0.5, 1e-154)):
                state = AccountantState(q, sigma, 1e-5, tight)
                assert list(state.epsilons(0)) == list(want)
                assert list(state.epsilons(np.zeros(len(DEFAULT_ALPHA_GRID)))) == list(want)
                assert state.epsilon(10) == math.inf

    def test_rejects_bad_delta(self):
        for delta in (0.0, 1.0, -1e-5, math.nan):
            for tight in (False, True):
                with pytest.raises(SadpError, match=r"must be in \(0, 1\)$"):
                    AccountantState(0.5, 1.0, delta, tight)


class TestSpend:
    def test_zero_tau_floor_at_largest_order(self):
        result = spend(AccountantState(q=MNIST_Q, sigma=1.23, delta=1e-5), 0)
        assert result.best_alpha == 64
        assert result.epsilon == pytest.approx(math.log(1e5) / 63)

    def test_monotone_in_tau(self):
        state = AccountantState(q=MNIST_Q, sigma=1.23, delta=1e-5)
        eps = [spend(state, tau).epsilon for tau in (0, 10, 100, 1000, 5000)]
        assert eps == sorted(eps)

    def test_monotone_in_q_and_sigma(self):
        eps_q = [
            spend(AccountantState(q=q, sigma=1.23, delta=1e-5), 500).epsilon
            for q in (0.001, 0.01, 0.1, 0.5)
        ]
        assert eps_q == sorted(eps_q)
        eps_s = [
            spend(AccountantState(q=0.01, sigma=s, delta=1e-5), 500).epsilon
            for s in (0.5, 1.0, 2.0, 4.0)
        ]
        assert eps_s == sorted(eps_s, reverse=True)

    def test_tie_goes_to_smallest_order(self):
        # with delta = 0.5 the tight conversion clamps several orders to 0
        state = AccountantState(q=0.01, sigma=1.0, delta=0.5, tight_conversion=True)
        assert list(state.epsilons(0)[:2]) == [0.0, 0.0]
        result = spend(state, 0)
        assert (result.epsilon, result.best_alpha) == (0.0, 2)

    def test_deterministic_with_smallest_alpha_tie_break(self):
        state = AccountantState(q=0.01, sigma=1.0, delta=1e-3)
        assert spend(state, 200) == spend(state, 200)


class TestMaxStepsWithin:
    STATE = AccountantState(q=MNIST_Q, sigma=1.23, delta=1e-5)

    def test_budget_below_floor_is_infeasible(self):
        with pytest.raises(BudgetInfeasibleError):
            max_steps_within(self.STATE, 0.1)

    def test_defining_property(self):
        budget = 1.5
        tau = max_steps_within(self.STATE, budget)
        assert spend(self.STATE, tau).epsilon <= budget
        assert spend(self.STATE, tau + 1).epsilon > budget

    def test_matches_oracle_crossing(self):
        # frozen from the arbitrary-precision sweep in scripts/
        assert max_steps_within(self.STATE, 3.0) == 4698

    def test_budget_below_one_charged_step_is_infeasible(self):
        # above the tau=0 conversion floor, below a single charged step
        floor = spend(self.STATE, 0).epsilon
        one = spend(self.STATE, 1).epsilon
        with pytest.raises(BudgetInfeasibleError):
            max_steps_within(self.STATE, (floor + one) / 2)
        assert max_steps_within(self.STATE, one) >= 1

    def test_budget_that_never_binds_rejected(self):
        # infinite noise costs nothing per step
        state = AccountantState(q=0.5, sigma=math.inf, delta=1e-5)
        with pytest.raises(SadpError, match=r"is 0, so budget 1.0 never binds$"):
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
        state = AccountantState(q, sigma, delta, tight)
        try:
            tau = max_steps_within(state, budget)
        except BudgetInfeasibleError:
            assert spend(state, 1).epsilon > budget
            return
        assert spend(state, tau).epsilon <= budget
        assert spend(state, tau + 1).epsilon > budget

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
        state = AccountantState(q, sigma, delta, tight)
        budget = float(spend(state, tau0).epsilon)
        budget = float(np.nextafter(budget, ulps * math.inf)) if ulps else budget
        try:
            tau = max_steps_within(state, budget)
        except BudgetInfeasibleError:
            assert spend(state, 1).epsilon > budget
            return
        assert spend(state, tau).epsilon <= budget
        assert spend(state, tau + 1).epsilon > budget
        assert (tau >= tau0) == (ulps >= 0)


class TestAccountantState:
    def test_rejects_invalid_fields(self):
        with pytest.raises(SadpError, match=r"^sampling rate q=0.0 must be in \(0, 1\]$"):
            AccountantState(q=0.0, sigma=1.0, delta=1e-5)
        with pytest.raises(SadpError, match=r"^delta=1.5 must be in \(0, 1\)$"):
            AccountantState(q=0.5, sigma=1.0, delta=1.5)
        # tau is an argument of each query, checked there
        with pytest.raises(SadpError, match=r"^tau=-1 must be >= 0$"):
            spend(AccountantState(q=0.5, sigma=1.0, delta=1e-5), -1)

    def test_fields_are_what_is_fixed_for_a_run(self):
        assert [f.name for f in dataclasses.fields(AccountantState)] == [
            "q", "sigma", "delta", "tight_conversion"
        ]


def test_privacy_demo_prints_budget_crossing():
    root = pathlib.Path(__file__).parent.parent
    out = subprocess.run(
        [sys.executable, str(root / "demos" / "01_privacy_accounting.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert "Largest tau that stays within epsilon <= 3.0: 4698" in out
