import math

import numpy as np
import pytest

from sadp import models
from sadp.dp_optimizer import ClipPolicy, clipped_grad_sum
from sadp.models import (
    BOUNDED_TANH,
    RECTIFIER,
    DimensionMismatchError,
    EmptyDatasetError,
    ModelSpec,
    NonFiniteParametersError,
    evaluate,
    init_params,
    load_checkpoint,
    per_example_losses_grads,
    save_checkpoint,
    unpack,
)

LINREG = ModelSpec("linear_regression", input_dim=3, output_dim=1)
SOFTMAX2 = ModelSpec("softmax_regression", input_dim=4, output_dim=2)
ALL_SPECS = [
    LINREG,
    SOFTMAX2,
    ModelSpec("mlp", 5, 3, layer_widths=(8,), activation=BOUNDED_TANH),
    ModelSpec("mlp", 5, 3, layer_widths=(8,), activation=RECTIFIER),
    ModelSpec("mlp", 6, 4, layer_widths=(7, 5), activation=BOUNDED_TANH),
    ModelSpec("mlp", 6, 4, layer_widths=(7, 5), activation=RECTIFIER),
]


def finite_difference_grad(spec, w, x, y, step=1e-5):
    grad = np.empty_like(w)
    for j in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[j] += step
        wm[j] -= step
        lp, _ = per_example_losses_grads(spec, wp, x[None], np.array([y]))
        lm, _ = per_example_losses_grads(spec, wm, x[None], np.array([y]))
        grad[j] = (lp[0] - lm[0]) / (2 * step)
    return grad


class TestPerExampleGrads:
    def test_linreg_perfect_fit_at_origin(self):
        w = np.zeros(LINREG.n_params)
        losses, grads = per_example_losses_grads(
            LINREG, w, np.array([[1.0, 2.0, 3.0]]), np.array([0.0])
        )
        loss, grad = losses[0], grads[0]
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(w))

    def test_softmax_uniform_at_zero_weights(self):
        w = np.zeros(SOFTMAX2.n_params)
        x = np.array([0.5, -1.0, 2.0, 0.25])
        losses, grads = per_example_losses_grads(SOFTMAX2, w, x[None], np.array([1]))
        loss, grad = losses[0], grads[0]
        assert loss == pytest.approx(math.log(2))
        # hand-derived: (p - onehot) outer x for weights, (p - onehot) for bias
        p = np.array([0.5, 0.5])
        resid = p - np.array([0.0, 1.0])
        expected_w = np.outer(x, resid).ravel()
        np.testing.assert_allclose(grad[:8], expected_w, atol=1e-12)
        np.testing.assert_allclose(grad[8:], resid, atol=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.architecture}-{s.activation}")
    def test_matches_finite_differences(self, spec):
        rng = np.random.default_rng(5)
        for _ in range(5):
            w = init_params(spec, rng) + rng.normal(scale=0.1, size=spec.n_params)
            x = rng.normal(size=spec.input_dim)
            y = (
                float(rng.normal())
                if spec.architecture == "linear_regression"
                else int(rng.integers(spec.output_dim))
            )
            _, grads = per_example_losses_grads(spec, w, x[None], np.array([y]))
            fd = finite_difference_grad(spec, w, x, y)
            scale = np.maximum(np.abs(fd), 1e-3)
            np.testing.assert_array_less(np.abs(grads[0] - fd) / scale, 1e-4)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.architecture}-{s.activation}")
    def test_mean_gradient_sum_rule(self, spec):
        rng = np.random.default_rng(6)
        w = init_params(spec, rng)
        X = rng.normal(size=(10, spec.input_dim))
        if spec.architecture == "linear_regression":
            y = rng.normal(size=10)
        else:
            y = rng.integers(spec.output_dim, size=10)
        _, grads = per_example_losses_grads(spec, w, X, y)
        # the row mean equals the factored batch sum with clipping disabled
        no_clip = ClipPolicy("abadi", clip_norm=1e300)
        mean_grad = clipped_grad_sum(spec, w, X, y, no_clip) / len(X)
        np.testing.assert_allclose(grads.mean(axis=0), mean_grad, atol=1e-12)

    def test_deterministic_forward_backward(self):
        spec = ALL_SPECS[4]
        rng = np.random.default_rng(7)
        w = init_params(spec, rng)
        X = rng.normal(size=(4, spec.input_dim))
        y = rng.integers(spec.output_dim, size=4)
        a = per_example_losses_grads(spec, w, X, y)
        b = per_example_losses_grads(spec, w, X, y)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_dimension_and_finiteness_errors(self):
        w = np.zeros(LINREG.n_params)
        with pytest.raises(DimensionMismatchError):
            per_example_losses_grads(LINREG, w, np.zeros((2, 5)), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            per_example_losses_grads(LINREG, np.zeros(99), np.zeros((2, 3)), np.zeros(2))
        bad = w.copy()
        bad[0] = np.nan
        with pytest.raises(NonFiniteParametersError):
            per_example_losses_grads(LINREG, bad, np.zeros((2, 3)), np.zeros(2))


class TestActivations:
    def test_hidden_activation_ranges(self):
        rng = np.random.default_rng(8)
        for activation, check in (
            (BOUNDED_TANH, lambda a: np.all((a > -1) & (a < 1))),
            (RECTIFIER, lambda a: np.all(a >= 0)),
        ):
            spec = ModelSpec("mlp", 5, 3, layer_widths=(16,), activation=activation)
            w = init_params(spec, rng)
            X = rng.normal(size=(20, 5))
            _, _, inputs = models._forward(spec, w, X)
            assert inputs[1].shape == (16, 20)
            assert check(inputs[1])


class TestEvaluate:
    def test_confident_perfect_classification(self):
        # logits strongly favor the true class for each example
        spec = SOFTMAX2
        w = np.zeros(spec.n_params)
        w[: spec.input_dim * 2] = np.tile([20.0, -20.0], spec.input_dim)
        X = np.eye(2, 4) + 1.0  # positive features
        loss, acc = evaluate(spec, w, X, np.array([0, 0]))
        assert acc == 1.0
        assert loss < 1e-6

    def test_zero_weights_loss_is_log_k(self):
        for k in (2, 5, 10):
            spec = ModelSpec("softmax_regression", 3, k)
            rng = np.random.default_rng(0)
            X = rng.normal(size=(7, 3))
            y = rng.integers(k, size=7)
            loss, _ = evaluate(spec, np.zeros(spec.n_params), X, y)
            assert loss == pytest.approx(math.log(k))

    def test_regression_reports_no_accuracy(self):
        loss, acc = evaluate(
            LINREG, np.zeros(LINREG.n_params), np.zeros((3, 3)), np.zeros(3)
        )
        assert acc is None

    def test_least_squares_optimum_matches_normal_equations(self):
        from sadp.data import synth_linear

        ds = synth_linear(100, np.array([2.0, -3.0]), noise_std=0.1, seed=3)
        # closed-form optimum with intercept column
        A = np.hstack([ds.features, np.ones((ds.n, 1))])
        w_star, *_ = np.linalg.lstsq(A, ds.labels, rcond=None)
        resid = A @ w_star - ds.labels
        expected = float(np.mean(0.5 * resid**2))
        loss, _ = evaluate(
            ModelSpec("linear_regression", 2, 1), w_star, ds.features, ds.labels
        )
        assert loss == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.architecture}-{s.activation}")
    def test_loss_is_mean_of_oracle_losses(self, spec):
        rng = np.random.default_rng(9)
        w = init_params(spec, rng) + rng.normal(scale=0.3, size=spec.n_params)
        X = rng.normal(size=(50, spec.input_dim))
        if spec.architecture == "linear_regression":
            y = rng.normal(size=50)
        else:
            y = rng.integers(spec.output_dim, size=50)
        loss, _ = evaluate(spec, w, X, y)
        losses, _ = per_example_losses_grads(spec, w, X, y)
        assert loss == pytest.approx(losses.mean(), rel=1e-12, abs=0)

    def test_tied_logits_predict_first_class(self):
        # zero weights tie every class, and ties go to the lowest index
        spec = ModelSpec("mlp", 3, 4, layer_widths=(5,))
        y = np.array([0, 1, 2, 3, 0, 3, 0, 2])
        loss, acc = evaluate(spec, np.zeros(spec.n_params), np.ones((8, 3)), y)
        assert acc == 3 / 8
        # plain floats, so trace rows print as numbers
        assert type(loss) is float and type(acc) is float

    def test_memory_layout_of_features_does_not_matter(self):
        spec = ALL_SPECS[5]
        rng = np.random.default_rng(10)
        w = init_params(spec, rng)
        wide = rng.normal(size=(60, 2 * spec.input_dim))
        y = rng.integers(spec.output_dim, size=30)
        X = np.ascontiguousarray(wide[::2, : spec.input_dim])
        variants = [X, np.asfortranarray(X), wide[::2, : spec.input_dim]]
        assert not variants[2].flags.c_contiguous and not variants[2].flags.f_contiguous
        results = [evaluate(spec, w, V, y) for V in variants]
        assert results[1] == results[0] and results[2] == results[0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            evaluate(LINREG, np.zeros(LINREG.n_params), np.zeros((0, 3)), np.zeros(0))


class TestPacking:
    def test_parameter_counts(self):
        assert LINREG.n_params == 4
        assert SOFTMAX2.n_params == 10
        mlp = ModelSpec("mlp", 784, 10, layer_widths=(128,))
        assert mlp.n_params == 784 * 128 + 128 + 128 * 10 + 10

    def test_unpack_layout_weights_then_biases(self):
        spec = ModelSpec("mlp", 2, 2, layer_widths=(3,))
        w = np.arange(spec.n_params, dtype=np.float64)
        (W1, b1), (W2, b2) = unpack(spec, w)
        np.testing.assert_array_equal(W1, np.arange(6).reshape(2, 3))
        np.testing.assert_array_equal(b1, [6, 7, 8])
        np.testing.assert_array_equal(W2, np.arange(9, 15).reshape(3, 2))
        np.testing.assert_array_equal(b2, [15, 16])

    def test_init_is_seeded_and_in_glorot_range(self):
        spec = ModelSpec("mlp", 10, 4, layer_widths=(6,))
        a = init_params(spec, np.random.default_rng(1))
        b = init_params(spec, np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)
        (W1, b1), _ = unpack(spec, a)
        assert np.all(np.abs(W1) <= math.sqrt(6 / 16))
        np.testing.assert_array_equal(b1, np.zeros(6))


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        w = np.random.default_rng(2).normal(size=137)
        path = tmp_path / "model.params"
        save_checkpoint(path, w)
        np.testing.assert_array_equal(load_checkpoint(path), w)
        assert path.stat().st_size == 16 + 8 * 137

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.params"
        save_checkpoint(path, np.zeros(10))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_checkpoint(path)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("cnn", 3, 2)
    with pytest.raises(ValueError):
        ModelSpec("linear_regression", 3, 2)
    with pytest.raises(ValueError):
        ModelSpec("mlp", 3, 2, layer_widths=())
    with pytest.raises(ValueError):
        ModelSpec("mlp", 3, 2, layer_widths=(4,), activation="swish")
