import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sadp.annealer import acceptance_probability, decide


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
        assert decide(1e6, 10.0, 10, 10, np.random.default_rng(0)) == (True, True, 1.0)

    def test_improvement_accepted_unforced(self):
        assert decide(-1.0, 10.0, 0, 10, np.random.default_rng(0)) == (True, False, 1.0)

    def test_empirical_acceptance_rate(self):
        # delta_e * Q = 1, so the acceptance probability is e^-1
        rng = np.random.default_rng(123)
        n = 100_000
        hits = sum(decide(0.05, 20.0, 0, 10, rng)[0] for _ in range(n))
        p = math.exp(-1)
        assert abs(hits / n - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_one_uniform_consumed_even_when_forced(self):
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        decide(5.0, 10.0, 1, 1, rng_a)
        decide(5.0, 10.0, 0, 10, rng_b)
        # both streams must be at the same position afterwards
        assert rng_a.uniform() == rng_b.uniform()

    def test_nan_energy_change_is_rejected(self):
        assert decide(math.nan, 10.0, 0, 10, np.random.default_rng(0)) == (False, False, 0.0)

    def test_infinite_energy_change_is_rejected_at_zero_temperature(self):
        # Q = 0 before the first acceptance, where exp(-inf * 0) would be NaN
        assert decide(math.inf, 0.0, 0, 10, np.random.default_rng(0)) == (False, False, 0.0)

    def test_improvements_never_forced_to_matter(self):
        rng = np.random.default_rng(11)
        for mu in range(500):
            delta_e = -abs(float(rng.normal()))
            assert decide(delta_e, 10.0 * mu, mu % 10, 10, rng) == (True, False, 1.0)


def test_screening_demo_prints_acceptance_probabilities():
    root = pathlib.Path(__file__).parent.parent
    out = subprocess.run(
        [sys.executable, str(root / "demos" / "02_annealed_screening.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert "  tau =   5: P(accept delta_E=0.05) = 0.28650\n" in out
