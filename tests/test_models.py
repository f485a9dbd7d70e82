import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest

from sadp import data, models
from sadp.dp_optimizer import ClipPolicy
from sadp.models import (
    BOUNDED_TANH,
    RECTIFIER,
    DataFileError,
    ModelSpec,
    SadpError,
    clipped_grad_sum,
    evaluate,
    init_params,
    load_checkpoint,
    save_checkpoint,
    to_batch,
)

from oracles import clip_batch, per_example_losses_grads

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
ABADI = ClipPolicy("abadi", clip_norm=1.0)
AUTO_S = ClipPolicy("auto_s", clip_norm=1.0, gamma=0.01)


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
        mean_grad = clipped_grad_sum(spec, w, to_batch(spec, X, y), no_clip.scale) / len(X)
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

    def test_non_finite_parameters_rejected(self):
        bad = np.zeros(LINREG.n_params)
        bad[0] = np.nan
        with pytest.raises(SadpError, match=r"^parameter vector has non-finite entries$"):
            per_example_losses_grads(LINREG, bad, np.zeros((2, 3)), np.zeros(2))


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
        got = clipped_grad_sum(spec, w, to_batch(spec, X, y), policy.scale)
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
            full = clipped_grad_sum(spec, w, to_batch(spec, X, y), policy.scale)
            swapped_X, swapped_y = X.copy(), y.copy()
            swapped_X[3], swapped_y[3] = X_alt[0], y_alt[0]
            swapped = clipped_grad_sum(
                spec, w, to_batch(spec, swapped_X, swapped_y), policy.scale
            )
            dropped = clipped_grad_sum(
                spec, w, to_batch(spec, np.delete(X, 3, axis=0), np.delete(y, 3)), policy.scale
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
        got = clipped_grad_sum(spec, w, to_batch(spec, pixels, y), ABADI.scale)
        assert got.tobytes() == clipped_grad_sum(
            spec, w, to_batch(spec, floats, y), ABADI.scale
        ).tobytes()

    def test_empty_batch_sums_to_zero(self):
        spec = ALL_SPECS[4]
        w = init_params(spec, np.random.default_rng(13))
        out = clipped_grad_sum(
            spec, w, to_batch(spec, np.zeros((0, spec.input_dim)), np.zeros(0, dtype=int)),
            ABADI.scale,
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
                clipped_grad_sum(spec, w, to_batch(spec, X_, y_), ABADI.scale)
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
                clipped_grad_sum(spec, w, to_batch(spec, X, y), policy.scale)

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
            got = clipped_grad_sum(spec, w, to_batch(spec, X, y), ABADI.scale)
            without = clipped_grad_sum(
                spec, w, to_batch(spec, np.delete(X, 2, axis=0), np.delete(y, 2)), ABADI.scale
            )
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
            got = clipped_grad_sum(spec, w, to_batch(spec, X, y), policy.scale)
        assert h_in.shape == (5, 5) and delta.shape[1] == 5 and (h_in[-1] == 1.0).all()
        assert not delta[:, 2].any() and np.isinf(np.einsum("ij,ij->j", h_in, h_in)[2])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


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
            _, inputs, _ = models._forward(spec, w, to_batch(spec, X, np.zeros(20, int)).inputs)
            # feature-major with the bias's row of ones last
            assert inputs[1].shape == (17, 20) and inputs[1].flags.c_contiguous
            np.testing.assert_array_equal(inputs[1][-1], np.ones(20))
            assert check(inputs[1][:-1])


class TestEvaluate:
    def test_confident_perfect_classification(self):
        # logits strongly favor the true class for each example
        spec = SOFTMAX2
        w = np.zeros(spec.n_params)
        w[: spec.input_dim * 2] = np.tile([20.0, -20.0], spec.input_dim)
        X = np.eye(2, 4) + 1.0  # positive features
        loss, acc = evaluate(spec, w, to_batch(spec, X, np.array([0, 0])))
        assert acc == 1.0
        assert loss < 1e-6

    def test_zero_weights_loss_is_log_k(self):
        for k in (2, 5, 10):
            spec = ModelSpec("softmax_regression", 3, k)
            rng = np.random.default_rng(0)
            X = rng.normal(size=(7, 3))
            y = rng.integers(k, size=7)
            loss, _ = evaluate(spec, np.zeros(spec.n_params), to_batch(spec, X, y))
            assert loss == pytest.approx(math.log(k))

    def test_regression_reports_no_accuracy(self):
        loss, acc = evaluate(
            LINREG, np.zeros(LINREG.n_params), to_batch(LINREG, np.zeros((3, 3)), np.zeros(3))
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
        spec = ModelSpec("linear_regression", 2, 1)
        loss, _ = evaluate(spec, w_star, to_batch(spec, ds.features, ds.labels))
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
        loss, _ = evaluate(spec, w, to_batch(spec, X, y))
        losses, _ = per_example_losses_grads(spec, w, X, y)
        assert loss == pytest.approx(losses.mean(), rel=1e-12, abs=0)

    def test_tied_logits_predict_first_class(self):
        # zero weights tie every class, and ties go to the lowest index
        spec = ModelSpec("mlp", 3, 4, layer_widths=(5,))
        y = np.array([0, 1, 2, 3, 0, 3, 0, 2])
        loss, acc = evaluate(spec, np.zeros(spec.n_params), to_batch(spec, np.ones((8, 3)), y))
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
        results = [evaluate(spec, w, to_batch(spec, V, y)) for V in variants]
        assert results[1] == results[0] and results[2] == results[0]


def logit_model(k):
    """A softmax model whose logits are its inputs, exactly: [W; b] = [I; 0]."""
    spec = ModelSpec("softmax_regression", k, k)
    return spec, np.concatenate([np.eye(k).ravel(), np.zeros(k)])


def mp_cross_entropy(logits, labels):
    """Mean -log softmax in 200-bit mpmath, each loss capped at -log(1e-300)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        losses = [
            min(
                mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(v)) for v in z)) - mpmath.mpf(z[y]),
                mpmath.mpf(-math.log(1e-300)),
            )
            for z, y in zip(logits.tolist(), labels.tolist())
        ]
        return float(mpmath.fsum(losses) / len(losses))


class TestFusedEvaluate:
    """evaluate's single max pass against a naive per-example oracle."""

    @pytest.mark.parametrize("k, scale", [(2, 1.0), (7, 5.0), (10, 40.0)])
    def test_random_logits_match_mpmath(self, k, scale):
        rng = np.random.default_rng(k)
        logits = rng.normal(scale=scale, size=(300, k))
        labels = rng.integers(k, size=300)
        spec, w = logit_model(k)
        loss, acc = evaluate(spec, w, to_batch(spec, logits, labels))
        assert loss == pytest.approx(mp_cross_entropy(logits, labels), rel=1e-14, abs=0)
        assert acc == np.mean(np.argmax(logits, axis=1) == labels)

    def test_exact_ties_go_to_the_first_class(self):
        logits = np.array([[1.0, 3.0, 3.0, 0.0]] * 4 + [[2.0, 2.0, 2.0, 2.0]] * 4 + [[0.0, 1.0, 2.0, 5.0]])
        labels = np.array([1, 2, 0, 3, 0, 1, 2, 3, 3])
        spec, w = logit_model(4)
        loss, acc = evaluate(spec, w, to_batch(spec, logits, labels))
        # class 1 wins the first four examples, class 0 the next four
        assert acc == 3 / 9
        assert loss == pytest.approx(mp_cross_entropy(logits, labels), rel=1e-14, abs=0)

    def test_clamp_binds_at_a_label_probability_of_1e300(self):
        spec, w = logit_model(3)
        far = np.array([[0.0, -800.0, 5.0]])
        loss, acc = evaluate(spec, w, to_batch(spec, far, np.array([1])))
        assert loss == -math.log(1e-300) and acc == 0.0
        logits = np.vstack([far, [[1.0, 2.0, 3.0]], [[-700.0, 0.0, 0.0]]])
        labels = np.array([1, 2, 0])
        loss, acc = evaluate(spec, w, to_batch(spec, logits, labels))
        assert loss == pytest.approx(mp_cross_entropy(logits, labels), rel=1e-14, abs=0)
        assert acc == 1 / 3

    def test_single_class(self):
        spec = ModelSpec("softmax_regression", 3, 1)
        rng = np.random.default_rng(21)
        w = rng.normal(size=spec.n_params)
        loss, acc = evaluate(spec, w, to_batch(spec, rng.normal(size=(9, 3)), np.zeros(9, int)))
        assert loss == 0.0 and acc == 1.0

    def test_linear_regression_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(22)
        X, y = rng.normal(size=(50, 3)), rng.normal(scale=4.0, size=50)
        w = rng.normal(size=LINREG.n_params)
        loss, acc = evaluate(LINREG, w, to_batch(LINREG, X, y))
        with mpmath.workprec(200):
            preds = [mpmath.fsum(mpmath.mpf(a) * mpmath.mpf(b) for a, b in zip(x, w[:3])) + w[3] for x in X.tolist()]
            want = mpmath.fsum((p - t) ** 2 / 2 for p, t in zip(preds, y.tolist())) / len(y)
        assert acc is None
        assert loss == pytest.approx(float(want), rel=1e-12, abs=0)


class TestFloat32Energy:
    """A float32 Batch runs the forward GEMMs in float32 and the loss in
    float64; a loss float32 alone makes non-finite is evaluated in float64."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.architecture}-{s.activation}")
    def test_float32_batch_agrees_with_float64_batch(self, spec):
        rng = np.random.default_rng(23)
        w = init_params(spec, rng) + rng.normal(scale=0.3, size=spec.n_params)
        X = rng.random((200, spec.input_dim))
        if spec.architecture == "linear_regression":
            y = rng.normal(size=200)
        else:
            y = rng.integers(spec.output_dim, size=200)
        batch32 = to_batch(spec, X, y, np.float32)
        assert batch32.inputs.dtype == np.float32
        _, inputs, _ = models._forward(spec, w, batch32.inputs)
        assert all(h.dtype == np.float32 for h in inputs)
        loss32, acc32 = evaluate(spec, w, batch32)
        loss64, acc64 = evaluate(spec, w, to_batch(spec, X, y))
        assert type(loss32) is float
        assert loss32 == pytest.approx(loss64, rel=1e-6, abs=0)
        assert acc32 == acc64

    @pytest.mark.parametrize("spec, weight", [
        (SOFTMAX2, 1e39),                                                  # inf in float32
        (ModelSpec("mlp", 5, 3, layer_widths=(8,), activation=RECTIFIER), 1e39),
        (SOFTMAX2, 3e38),                                                  # finite, logits overflow
    ], ids=["softmax-1e39", "relu-mlp-1e39", "softmax-3e38"])
    def test_float32_overflow_is_evaluated_in_float64(self, spec, weight):
        rng = np.random.default_rng(24)
        w = np.full(spec.n_params, weight)
        X = rng.random((20, spec.input_dim))
        X[:, 0] = 0.0                        # inf * 0 is NaN in float32
        y = rng.integers(spec.output_dim, size=20)
        with np.errstate(over="ignore", invalid="ignore"):
            out32 = models._forward(spec, w, to_batch(spec, X, y, np.float32).inputs)[0]
        assert not np.isfinite(out32).all()
        # the float64 result on the same (float32) inputs, with no warning
        want = evaluate(spec, w, to_batch(spec, X.astype(np.float32).astype(np.float64), y))
        got = evaluate(spec, w, to_batch(spec, X, y, np.float32))
        assert got == want and math.isfinite(got[0])

    def test_non_finite_float64_energy_and_capped_loss_are_kept(self):
        X = np.ones((4, 3))
        with np.errstate(over="ignore"):
            assert evaluate(LINREG, np.full(4, 1e200), to_batch(LINREG, X, np.zeros(4), np.float32)) == (
                math.inf, None
            )
        spec, w = logit_model(3)
        far = np.array([[0.0, -800.0, 5.0]])
        loss, acc = evaluate(spec, w, to_batch(spec, far, np.array([1]), np.float32))
        assert loss == -math.log(1e-300) and acc == 0.0

    def test_every_byte_widens_to_the_float64_widening_rounded(self):
        pixels = np.arange(256, dtype=np.uint8).reshape(1, 256)
        want = data.widen(pixels, np.empty((1, 256))).astype(np.float32)
        got = data.widen(pixels, np.empty((1, 256), dtype=np.float32))
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        spec = ModelSpec("softmax_regression", 256, 2)
        inputs = to_batch(spec, pixels, np.zeros(1, int), np.float32).inputs
        assert inputs[:-1, 0].tobytes() == want[0].tobytes()


class TestPacking:
    def test_parameter_counts(self):
        assert LINREG.n_params == 4
        assert SOFTMAX2.n_params == 10
        mlp = ModelSpec("mlp", 784, 10, layer_widths=(128,))
        assert mlp.n_params == 784 * 128 + 128 + 128 * 10 + 10

    def test_layout_weights_then_biases(self):
        spec = ModelSpec("mlp", 2, 2, layer_widths=(3,))
        w = np.arange(spec.n_params, dtype=np.float64)
        # each layer's [W; b] is a (fan_in + 1, fan_out) view of the vector
        Wb1, Wb2 = models._weights(spec, w)
        assert Wb1.base is w and Wb2.base is w
        np.testing.assert_array_equal(Wb1[:-1], np.arange(6).reshape(2, 3))
        np.testing.assert_array_equal(Wb1[-1], [6, 7, 8])
        np.testing.assert_array_equal(Wb2[:-1], np.arange(9, 15).reshape(3, 2))
        np.testing.assert_array_equal(Wb2[-1], [15, 16])

    def test_init_is_seeded_and_in_glorot_range(self):
        spec = ModelSpec("mlp", 10, 4, layer_widths=(6,))
        a = init_params(spec, np.random.default_rng(1))
        b = init_params(spec, np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)
        Wb1, _ = models._weights(spec, a)
        assert np.all(np.abs(Wb1[:-1]) <= math.sqrt(6 / 16))
        np.testing.assert_array_equal(Wb1[-1], np.zeros(6))


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

    @pytest.mark.parametrize("length", [2**61, 2**40, 4], ids=["2^61", "2^40", "one_short"])
    def test_truncation_rejected(self, tmp_path, length):
        # three values on disk; the header claims more, up to more than any
        # memory holds, and is checked against the file's size before a read
        path = tmp_path / "model.params"
        header = models.CHECKPOINT_MAGIC + struct.pack("<IQ", models.CHECKPOINT_VERSION, length)
        path.write_bytes(header + np.zeros(3).tobytes())
        with pytest.raises(DataFileError, match="truncated checkpoint$"):
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
    for architecture, k in (("softmax_regression", 2), ("linear_regression", 1)):
        with pytest.raises(ValueError, match="mlp only"):
            ModelSpec(architecture, 3, k, layer_widths=(4,))
