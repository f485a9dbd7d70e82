import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sadp import errors, models
from sadp.dp_optimizer import (
    ClipPolicy,
    SadpError,
    noisy_average,
    sgd_step,
)

from oracles import clip_batch
from test_models import ABADI, AUTO_S

vectors = hnp.arrays(
    np.float64,
    st.integers(1, 50),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


class TestClip:
    def test_abadi_rescales_above_threshold(self):
        np.testing.assert_allclose(clip_batch(np.array([[3.0, 4.0]]), ABADI)[0], [0.6, 0.8])

    def test_abadi_identity_below_threshold(self):
        policy = ClipPolicy("abadi", clip_norm=10.0)
        np.testing.assert_array_equal(clip_batch(np.array([[3.0, 4.0]]), policy)[0], [3.0, 4.0])

    def test_auto_s_zero_maps_to_zero(self):
        np.testing.assert_array_equal(clip_batch(np.zeros((1, 2)), AUTO_S)[0], np.zeros(2))

    def test_rejects_non_finite(self):
        with pytest.raises(SadpError, match=r"^gradient batch has non-finite entries$"):
            clip_batch(np.array([[1.0, np.nan]]), ABADI)
        with pytest.raises(SadpError, match=r"^gradient batch has non-finite entries$"):
            clip_batch(np.array([[1.0, np.inf]]), ABADI)

    @given(g=vectors)
    def test_abadi_norm_bound(self, g):
        clipped = clip_batch(g[None], ABADI)[0]
        norm = np.linalg.norm(clipped)
        assert norm <= ABADI.clip_norm * (1 + 1e-12)
        if np.linalg.norm(g) <= ABADI.clip_norm:
            np.testing.assert_array_equal(clipped, g)

    @given(g=vectors)
    def test_auto_s_exact_norm(self, g):
        norm = np.linalg.norm(g)
        expected = AUTO_S.clip_norm * norm / (norm + AUTO_S.gamma)
        assert np.linalg.norm(clip_batch(g[None], AUTO_S)[0]) == pytest.approx(expected, abs=1e-12)
        assert np.linalg.norm(clip_batch(g[None], AUTO_S)[0]) < AUTO_S.clip_norm

    @given(g=vectors, lam=st.floats(0.01, 100))
    def test_clip_preserves_direction(self, g, lam):
        for policy in (ABADI, AUTO_S):
            scaled = clip_batch((lam * g)[None], policy)[0]
            # parallel: cross terms vanish
            assert abs(
                float(scaled @ g) - np.linalg.norm(scaled) * np.linalg.norm(g)
            ) <= 1e-6 * max(1.0, np.linalg.norm(g) ** 2)

    def test_large_dimension_norm_bound(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=10_000)
        assert np.linalg.norm(clip_batch(g[None], ABADI)[0]) <= 1.0 + 1e-12

    def test_clip_batch_matches_single_rows(self):
        rng = np.random.default_rng(1)
        grads = rng.normal(size=(20, 7), scale=3.0)
        for policy in (ABADI, AUTO_S):
            batch = clip_batch(grads, policy)
            for row, g in zip(batch, grads):
                np.testing.assert_allclose(row, clip_batch(g[None], policy)[0], atol=1e-15)


def test_error_types_are_shared_across_modules():
    assert SadpError is errors.SadpError is models.SadpError
    assert errors.DataFileError is models.DataFileError


class TestNoisyAverage:
    def test_near_noiseless_average(self):
        out = noisy_average(np.array([1.0, 1.0]), 1e-12, 2, np.random.default_rng(0))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-9)

    def test_empty_batch_is_pure_noise(self):
        out = noisy_average(np.zeros(100_000), 1.0, 2, np.random.default_rng(0))
        assert out.std() == pytest.approx(1.0 / 2, rel=0.02)

    def test_noise_scale_matches_specification(self):
        # per-coordinate std must be sigma * C / B
        sigma, c, b = 2.0, 0.5, 4
        out = noisy_average(np.zeros(100_000), sigma * c, b, np.random.default_rng(42))
        assert out.std() == pytest.approx(sigma * c / b, rel=0.02)

    def test_deterministic_per_seed(self):
        total = np.ones(5)
        a = noisy_average(total, 1.0, 2, np.random.default_rng(9))
        b = noisy_average(total, 1.0, 2, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_replacing_one_gradient_moves_sum_at_most_2c(self):
        rng = np.random.default_rng(4)
        c = 1.0
        for _ in range(50):
            grads = clip_batch(rng.normal(size=(8, 6), scale=5.0), ABADI)
            alt = clip_batch(rng.normal(size=(1, 6), scale=5.0), ABADI)[0]
            swapped = grads.copy()
            swapped[3] = alt
            diff = np.linalg.norm(grads.sum(axis=0) - swapped.sum(axis=0))
            assert diff <= 2 * c + 1e-12
            # add/remove adjacency: dropping one row moves the sum by <= C
            assert np.linalg.norm(grads[3]) <= c + 1e-12


class TestSgdStep:
    def test_zero_gradient_fixed_point(self):
        np.testing.assert_array_equal(
            sgd_step(np.array([1.0, 1.0]), np.zeros(2), 0.5), [1.0, 1.0]
        )

    def test_arithmetic(self):
        np.testing.assert_allclose(
            sgd_step(np.array([1.0, 1.0]), np.array([2.0, -2.0]), 0.5), [0.0, 2.0]
        )

    def test_reproduces_plain_gradient_descent_on_quadratic(self):
        # f(w) = 0.5 w' diag(a) w has the closed-form iterate
        # w_k = (1 - eta a)^k w_0
        a = np.array([1.0, 2.0, 0.5])
        eta = 0.1
        w = w0 = np.array([1.0, -2.0, 3.0])
        for k in range(1, 51):
            w = sgd_step(w, a * w, eta)
            np.testing.assert_allclose(w, (1 - eta * a) ** k * w0, rtol=1e-12)


class TestPolicies:
    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            ClipPolicy("median", 1.0)
        with pytest.raises(ValueError):
            ClipPolicy("abadi", 0.0)
        with pytest.raises(ValueError):
            ClipPolicy("auto_s", 1.0, gamma=0.0)
