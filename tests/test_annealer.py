import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sadp.annealer import (
    AnnealerState,
    Decision,
    acceptance_probability,
    advance,
    decide,
)


def fresh_state(Q0=10.0, mu0=10, energy=1.0):
    return AnnealerState.initial(Q0, mu0, energy=energy)


class TestAcceptanceProbability:
    def test_improvement_always_accepted(self):
        assert acceptance_probability(-0.3, 50.0) == 1.0

    def test_exponential_form(self):
        assert acceptance_probability(0.1, 10.0) == pytest.approx(math.exp(-1))

    def test_zero_temperature_accepts_everything(self):
        # arises whenever no update has been accepted yet (tau = 0)
        assert acceptance_probability(0.1, 0.0) == 1.0

    def test_nonincreasing_in_delta_e_and_q(self):
        probs = [acceptance_probability(d, 5.0) for d in (0.01, 0.1, 1.0, 10.0)]
        assert probs == sorted(probs, reverse=True)
        probs = [acceptance_probability(0.5, q) for q in (0.0, 1.0, 10.0, 100.0)]
        assert probs == sorted(probs, reverse=True)


class TestDecide:
    def test_forced_acceptance_at_rejection_cap(self):
        state = fresh_state(mu0=10)
        state = dataclasses.replace(state, mu=10)
        d = decide(1e6, state, np.random.default_rng(0))
        assert d.accepted and d.forced

    def test_improvement_accepted_unforced(self):
        d = decide(-1.0, fresh_state(), np.random.default_rng(0))
        assert d.accepted and not d.forced and d.probability == 1.0

    def test_empirical_acceptance_rate(self):
        # delta_e * Q = 1, so the acceptance probability is e^-1
        state = fresh_state(Q0=20.0)
        rng = np.random.default_rng(123)
        n = 100_000
        hits = sum(decide(0.05, state, rng).accepted for _ in range(n))
        p = math.exp(-1)
        assert abs(hits / n - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_one_uniform_consumed_even_when_forced(self):
        capped = fresh_state(mu0=1)
        capped = dataclasses.replace(capped, mu=1)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        decide(5.0, capped, rng_a)
        decide(5.0, fresh_state(), rng_b)
        # both streams must be at the same position afterwards
        assert rng_a.uniform() == rng_b.uniform()

    def test_nan_energy_change_is_rejected(self):
        d = decide(math.nan, fresh_state(), np.random.default_rng(0))
        assert not d.accepted and d.probability == 0.0

    def test_infinite_energy_change_is_rejected_at_zero_temperature(self):
        # Q = 0 before the first acceptance, where exp(-inf * 0) would be NaN
        cold_start = dataclasses.replace(fresh_state(), Q=0.0)
        d = decide(math.inf, cold_start, np.random.default_rng(0))
        assert not d.accepted and d.probability == 0.0


class TestAdvance:
    def test_accept_from_start(self):
        state = fresh_state(Q0=10.0)
        out = advance(state, Decision(True, False, 1.0), new_energy=0.5)
        assert (out.t, out.tau, out.mu, out.Q, out.energy) == (1, 1, 0, 10.0, 0.5)

    def test_reject_from_start_zeroes_temperature(self):
        state = fresh_state(Q0=10.0)
        out = advance(state, Decision(False, False, 0.1), new_energy=2.0)
        assert (out.t, out.tau, out.mu, out.Q) == (1, 0, 1, 0.0)
        assert out.energy == state.energy

    def test_rejection_cap_forces_eleventh_decision(self):
        state = fresh_state(mu0=10)
        rng = np.random.default_rng(0)
        for _ in range(10):
            state = advance(state, Decision(False, False, 0.0), new_energy=9.9)
        assert state.mu == 10
        d = decide(1e9, state, rng)
        assert d.accepted and d.forced


class TestTrajectoryInvariants:
    def run_trajectory(self, seed, steps=10_000, mu0=7):
        rng = np.random.default_rng(seed)
        state = fresh_state(Q0=2.0, mu0=mu0, energy=1.0)
        accepts = 0
        history = []
        for _ in range(steps):
            delta_e = float(rng.normal(scale=0.5))
            d = decide(delta_e, state, rng)
            state = advance(state, d, state.energy + delta_e)
            accepts += d.accepted
            history.append((state, d, delta_e))
        return history, accepts

    def test_bookkeeping_identities(self):
        for seed in range(5):
            history, accepts = self.run_trajectory(seed)
            for state, d, _ in history:
                assert 0 <= state.tau <= state.t
                assert 0 <= state.mu <= state.mu0
                assert state.Q == state.Q0 * state.tau
            assert history[-1][0].tau == accepts

    def test_improvements_never_forced_to_matter(self):
        rng = np.random.default_rng(11)
        state = fresh_state()
        for _ in range(500):
            delta_e = -abs(float(rng.normal()))
            d = decide(delta_e, state, rng)
            assert d.accepted
            state = advance(state, d, state.energy + delta_e)

    def test_energy_rises_only_at_risky_acceptances(self):
        # every increase comes through the exponential branch (delta_e > 0)
        # or a forced acceptance, never through an improving move or a
        # rejection; probability 1.0 with delta_e > 0 only in the Q=0 regime
        for seed in range(3):
            history, _ = self.run_trajectory(seed)
            prev = (fresh_state(Q0=2.0, mu0=7), None, 0.0)
            prev_energy = 1.0
            for state, d, delta_e in history:
                if state.energy > prev_energy:
                    assert d.accepted
                    assert delta_e > 0
                    assert d.probability < 1.0 or d.forced or prev[0].Q == 0.0
                prev_energy = state.energy
                prev = (state, d, delta_e)


def test_initial_state_validation():
    with pytest.raises(ValueError):
        AnnealerState.initial(Q0=0.0, mu0=10)
    with pytest.raises(ValueError):
        AnnealerState.initial(Q0=1.0, mu0=0)


def test_screening_demo_prints_acceptance_probabilities():
    root = pathlib.Path(__file__).parent.parent
    out = subprocess.run(
        [sys.executable, str(root / "demos" / "02_annealed_screening.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert "  tau =   5: P(accept delta_E=0.05) = 0.28650\n" in out
