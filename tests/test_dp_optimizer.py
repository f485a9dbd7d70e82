import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sadp import errors, models
from sadp.dp_optimizer import (
    ClipPolicy,
    SadpError,
    clipped_grad_sum,
    noisy_average,
    sgd_step,
)
from sadp.models import ModelSpec, init_params

from oracles import clip_batch, per_example_losses_grads
from test_models import ALL_SPECS

ABADI = ClipPolicy("abadi", clip_norm=1.0)
AUTO_S = ClipPolicy("auto_s", clip_norm=1.0, gamma=0.01)

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


def spec_id(spec):
    return f"{spec.architecture}-{spec.activation}-{'x'.join(map(str, spec.layer_widths))}"


def random_batch(spec, rng, n):
    """Rows on scales from 0.01 to 30, so gradient norms spread widely."""
    X = rng.normal(size=(n, spec.input_dim)) * rng.uniform(0.01, 30.0, size=(n, 1))
    if spec.architecture == "linear_regression":
        return X, rng.normal(scale=10.0, size=n)
    return X, rng.integers(spec.output_dim, size=n)


class TestClippedGradSum:
    @pytest.mark.parametrize("policy", [ABADI, AUTO_S], ids=lambda p: p.kind)
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    def test_matches_materialized_oracle(self, spec, policy):
        rng = np.random.default_rng(11)
        w = init_params(spec, rng)
        X, y = random_batch(spec, rng, 40)
        grads = per_example_losses_grads(spec, w, X, y)[1]
        # a threshold at the median norm clips half the rows and keeps half
        policy = dataclasses.replace(
            policy, clip_norm=float(np.median(np.linalg.norm(grads, axis=1)))
        )
        expected = clip_batch(grads, policy).sum(axis=0)
        got = clipped_grad_sum(spec, w, X, y, policy)
        assert got.shape == (spec.n_params,)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("policy", [ABADI, AUTO_S], ids=lambda p: p.kind)
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    def test_neighbouring_batches_bound_sensitivity(self, spec, policy):
        # replace-one adjacency moves the sum by <= 2C, add/remove by <= C
        rng = np.random.default_rng(12)
        c = policy.clip_norm
        for _ in range(10):
            w = init_params(spec, rng)
            X, y = random_batch(spec, rng, 9)
            X_alt, y_alt = random_batch(spec, rng, 1)
            full = clipped_grad_sum(spec, w, X, y, policy)
            swapped_X, swapped_y = X.copy(), y.copy()
            swapped_X[3], swapped_y[3] = X_alt[0], y_alt[0]
            swapped = clipped_grad_sum(spec, w, swapped_X, swapped_y, policy)
            dropped = clipped_grad_sum(
                spec, w, np.delete(X, 3, axis=0), np.delete(y, 3), policy
            )
            assert np.linalg.norm(full - swapped) <= 2 * c * (1 + 1e-12)
            assert np.linalg.norm(full - dropped) <= c * (1 + 1e-12)

    @pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.architecture != "linear_regression"], ids=spec_id)
    def test_byte_rows_sum_bitwise_like_their_float_rows(self, spec):
        # pixel bytes are widened into the model inputs as bytes / 255
        rng = np.random.default_rng(23)
        w = init_params(spec, rng)
        pixels = rng.integers(0, 256, size=(33, spec.input_dim), dtype=np.uint8)
        y = rng.integers(spec.output_dim, size=33)
        floats = pixels.astype(np.float64)
        floats /= 255.0
        got = clipped_grad_sum(spec, w, pixels, y, ABADI)
        assert got.tobytes() == clipped_grad_sum(spec, w, floats, y, ABADI).tobytes()

    def test_empty_batch_sums_to_zero(self):
        spec = ALL_SPECS[4]
        w = init_params(spec, np.random.default_rng(13))
        out = clipped_grad_sum(
            spec, w, np.zeros((0, spec.input_dim)), np.zeros(0, dtype=int), ABADI
        )
        np.testing.assert_array_equal(out, np.zeros(spec.n_params))

    def test_rejects_non_finite_inputs_and_gradients(self):
        spec = ALL_SPECS[0]
        w = init_params(spec, np.random.default_rng(14))
        X, y = np.ones((3, spec.input_dim)), np.zeros(3)
        bad_X = X.copy()
        bad_X[1, 0] = np.nan
        bad_y = y.copy()
        bad_y[2] = np.inf       # finite inputs, infinite output gradient
        for X_, y_ in ((bad_X, y), (X, bad_y)):
            with pytest.raises(SadpError, match=r"^layer inputs or gradients have non-finite entries$"):
                clipped_grad_sum(spec, w, X_, y_, ABADI)
            # the materialized path rejects the same batches
            with pytest.raises(SadpError, match=r"^gradient batch has non-finite entries$"):
                clip_batch(per_example_losses_grads(spec, w, X_, y_)[1], ABADI)

    def test_rejects_infinite_input_whose_output_gradient_is_zero(self):
        # +inf saturates every tanh unit of row 1, so its first-layer output
        # gradient is exactly zero and its norm is inf * 0 = nan, not inf
        spec = ALL_SPECS[2]
        w = init_params(spec, np.random.default_rng(15))
        X, y = np.random.default_rng(16).uniform(size=(4, spec.input_dim)), np.arange(4) % 3
        X[1, 0] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            (h_in, delta), _ = models._backprop(spec, w, models.to_batch(spec, X, y))
        assert h_in.shape == (spec.input_dim + 1, 4) and delta.shape == (8, 4)
        assert np.isinf(h_in[0, 1]) and not delta[:, 1].any()
        for policy in (ABADI, AUTO_S):
            with pytest.raises(SadpError, match=r"^layer inputs or gradients have non-finite entries$"):
                clipped_grad_sum(spec, w, X, y, policy)

    def test_finite_input_whose_norm_overflows_contributes_zero(self):
        spec = ALL_SPECS[1]
        w = init_params(spec, np.random.default_rng(17))
        X = np.random.default_rng(18).uniform(size=(5, spec.input_dim))
        X[2] = 1e200
        # the row's logits pick one class; labelling it with the other keeps
        # its output gradient nonzero, so its squared norm is +inf
        y = np.zeros(5, dtype=int)
        y[2] = 1 - np.argmax(X[2] @ models._weights(spec, w)[0][:-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = clipped_grad_sum(spec, w, X, y, ABADI)
            without = clipped_grad_sum(spec, w, np.delete(X, 2, axis=0), np.delete(y, 2), ABADI)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, without, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("policy", [ABADI, AUTO_S], ids=lambda p: p.kind)
    @pytest.mark.parametrize(
        "spec",
        [ModelSpec("softmax_regression", 4, 3), ModelSpec("mlp", 4, 3, layer_widths=(5,))],
        ids=spec_id,
    )
    def test_overflowing_input_with_zero_output_gradient_matches_oracle(self, spec, policy):
        # row 2 is 1e200 everywhere: its softmax is exactly one-hot on its
        # own label, or it saturates every tanh unit, so its first-layer
        # output gradient is exactly zero and inf * 0 = nan in its norm
        w = init_params(spec, np.random.default_rng(19))
        X = np.random.default_rng(20).uniform(size=(5, spec.input_dim))
        X[2] = 1e200
        y = np.arange(5) % 3
        if spec.architecture == "softmax_regression":
            y[2] = np.argmax(X[2] @ models._weights(spec, w)[0][:-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (h_in, delta), *_ = models._backprop(spec, w, models.to_batch(spec, X, y))
            expected = clip_batch(per_example_losses_grads(spec, w, X, y)[1], policy).sum(axis=0)
            got = clipped_grad_sum(spec, w, X, y, policy)
        assert h_in.shape == (5, 5) and delta.shape[1] == 5 and (h_in[-1] == 1.0).all()
        assert not delta[:, 2].any() and np.isinf(np.einsum("ij,ij->j", h_in, h_in)[2])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


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
