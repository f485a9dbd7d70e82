"""End-to-end acceptance gate.

One test per criterion, each printing a PASS line with its headline
numbers. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import dataclasses
import math
import statistics
import time
import zlib

import numpy as np

from sadp import data
from sadp.accountant import AccountantState, max_steps_within, spend
from sadp.annealer import decide
from sadp.dp_optimizer import ClipPolicy
from sadp.harness import TrainConfig, emit_trace, train
from sadp.models import (
    BOUNDED_TANH,
    LINEAR_REGRESSION,
    ModelSpec,
    clipped_grad_sum,
    init_params,
    to_batch,
)

from oracles import clip_batch, per_example_losses_grads
from test_models import ALL_SPECS, finite_difference_grad

MNIST_Q = 512 / 60000


def report(criterion, elapsed, limit, detail):
    assert elapsed < limit, f"criterion {criterion} took {elapsed:.1f}s (limit {limit}s)"
    print(f"\n[criterion {criterion:2d}] PASS ({elapsed:.2f}s): {detail}")


def run_counts(records):
    """(t, tau, rejected candidates) at the end of one run."""
    return records[-1].t, records[-1].tau, sum(not r.accepted for r in records)


def mean_counts(counts):
    """Each method's mean t, tau and rejected count over its runs."""
    return "; ".join(
        "{} mean t {:.1f}, tau {:.1f}, rejected {:.1f}".format(
            method, *(statistics.fmean(c) for c in zip(*runs))
        )
        for method, runs in counts.items()
    )


def test_01_accountant_analytic_limit():
    start = time.perf_counter()
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0):
        rdp = AccountantState(1.0, sigma, 1e-5).rdp
        for alpha in range(2, 65):
            err = abs(rdp[alpha - 2] - alpha / (2 * sigma**2))
            worst = max(worst, err)
    assert worst <= 1e-9
    report(1, time.perf_counter() - start, 1.0, f"max |error| = {worst:.2e}")


def test_02_accountant_oracle_equivalence(golden_rdp):
    start = time.perf_counter()
    qs = [0.001, 0.00853, 0.05, 0.5, 1.0]
    sigmas = [0.5, 1.0, 1.23, 2.15, 4.0]
    alphas = [2, 8, 16, 32, 64]
    worst = 0.0
    checked = 0
    for q in qs:
        for sigma in sigmas:
            for alpha in alphas:
                expected = golden_rdp[(q, sigma, alpha)]
                got = AccountantState(q, sigma, 1e-5).rdp[alpha - 2]
                rel = abs(got - expected) / max(abs(expected), 1e-300)
                worst = max(worst, rel)
                checked += 1
    assert worst <= 1e-6
    report(2, time.perf_counter() - start, 10.0,
           f"{checked} grid points, max rel error = {worst:.2e}")


def test_03_budget_inversion_consistency():
    start = time.perf_counter()
    state = AccountantState(q=MNIST_Q, sigma=1.23, delta=1e-5)
    tau_star = max_steps_within(state, 3.0)
    assert tau_star == 4698  # frozen from the arbitrary-precision sweep
    eps_at = spend(state, tau_star).epsilon
    eps_next = spend(state, tau_star + 1).epsilon
    assert eps_at <= 3.0 < eps_next
    report(3, time.perf_counter() - start, 5.0,
           f"tau* = {tau_star}, eps = {eps_at:.6f} <= 3.0 < {eps_next:.6f}")


def test_04_clipping_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    c, gamma = 1.0, 0.01
    abadi = ClipPolicy("abadi", c)
    auto_s = ClipPolicy("auto_s", c, gamma)
    for _ in range(1000):
        dim = int(rng.integers(1, 10_001))
        g = rng.normal(scale=rng.uniform(0.01, 5.0), size=dim)
        norm = np.linalg.norm(g)
        clipped = clip_batch(g[None], abadi)[0]
        assert np.linalg.norm(clipped) <= c * (1 + 1e-12)
        if norm <= c:
            np.testing.assert_array_equal(clipped, g)
        expected = c * norm / (norm + gamma)
        assert abs(np.linalg.norm(clip_batch(g[None], auto_s)[0]) - expected) <= 1e-12
        if dim >= 2:
            # the path training runs: one linear-regression example at w = 0,
            # whose gradient [x * r; r] with residual r = -y is g
            spec = ModelSpec(LINEAR_REGRESSION, dim - 1, 1)
            x, y = g[None, :-1] / g[-1], -g[-1:]
            summed = {}
            for policy in (abadi, auto_s):
                summed[policy.kind] = clipped_grad_sum(
                    spec, np.zeros(dim), to_batch(spec, x, y), policy.scale
                )
                reference = clip_batch(g[None], policy)[0]
                assert np.linalg.norm(summed[policy.kind] - reference) <= (
                    1e-12 * np.linalg.norm(reference)
                )
            assert np.linalg.norm(summed["abadi"]) <= c * (1 + 1e-12)
            assert abs(np.linalg.norm(summed["auto_s"]) - expected) <= 1e-12
    report(4, time.perf_counter() - start, 5.0,
           "1000 vectors per policy, dims 1..10^4, also through clipped_grad_sum from dim 2")


def test_05_acceptance_rate_statistics():
    start = time.perf_counter()
    n = 100_000
    rng = np.random.default_rng(777)
    # Q = 20, no rejection cap in reach
    hits = sum(decide(0.05, 20.0, 0, 10**9, rng)[0] for _ in range(n))
    p = math.exp(-1)
    tol = 3 * math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= tol
    improving = sum(decide(-0.05, 20.0, 0, 10**9, rng)[0] for _ in range(1000))
    assert improving == 1000
    report(5, time.perf_counter() - start, 5.0,
           f"rate {hits / n:.5f} vs e^-1 = {p:.5f} (tol {tol:.5f}); improvements 1000/1000")


def test_06_annealer_bookkeeping():
    start = time.perf_counter()
    # a tiny noisy regression keeps 10^4 candidates cheap
    base = TrainConfig(
        method="sa_dpsgd", model="linear_regression", dataset="synth_linear",
        synth_n=200, lot_size=20, sigma=20.0, eps_budget=None, max_iters=10_000,
        q0=3.0, mu0=8,
    )
    for seed in range(3):
        _, _, records, _ = train(dataclasses.replace(base, seed=seed))
        assert len(records) == 10_000
        for r in records:
            assert r.tau <= r.t
            assert r.mu <= base.mu0
            assert r.Q == base.q0 * r.tau
        assert records[-1].tau == sum(r.accepted for r in records)
    report(6, time.perf_counter() - start, 5.0, "3 x 10^4-candidate harness.train traces")


# a +-1e-5 weight step moves a hidden pre-activation by far less than this
KINK_MARGIN = 1e-3


def hidden_preactivations(spec, w, x):
    """Each hidden unit's input before its activation, for one example x."""
    pre, h, offset = [], x, 0
    for fan_in, fan_out in spec.layer_dims[:-1]:
        Wb = w[offset : offset + (fan_in + 1) * fan_out].reshape(fan_in + 1, fan_out)
        offset += Wb.size
        pre.append(np.append(h, 1.0) @ Wb)
        h = np.tanh(pre[-1]) if spec.activation == BOUNDED_TANH else np.maximum(pre[-1], 0.0)
    return np.concatenate(pre) if pre else np.empty(0)


def test_07_gradient_checks():
    start = time.perf_counter()
    worst = 0.0
    for spec in ALL_SPECS:
        rng = np.random.default_rng(zlib.crc32(repr(spec).encode()))
        for _ in range(20):
            # a central difference across a rectifier kink measures neither
            # side's slope: redraw points with a hidden unit within reach of 0
            preactivations = np.zeros(1)
            while np.any(np.abs(preactivations) < KINK_MARGIN):
                w = init_params(spec, rng) + rng.normal(scale=0.1, size=spec.n_params)
                x = rng.normal(size=spec.input_dim)
                preactivations = hidden_preactivations(spec, w, x)
            y = (
                float(rng.normal())
                if spec.architecture == "linear_regression"
                else int(rng.integers(spec.output_dim))
            )
            _, grads = per_example_losses_grads(spec, w, x[None], np.array([y]))
            fd = finite_difference_grad(spec, w, x, y)
            rel = np.abs(grads[0] - fd) / np.maximum(np.abs(fd), 1e-3)
            worst = max(worst, float(rel.max()))
    assert worst <= 1e-4
    report(7, time.perf_counter() - start, 30.0,
           f"{len(ALL_SPECS)} spec variants x 20 pairs, max rel error = {worst:.2e}")


def test_08_linear_regression_directional():
    start = time.perf_counter()
    base = TrainConfig(
        method="sa_dpsgd", model="linear_regression", dataset="synth_linear",
        synth_n=1000, synth_weights=(2.0, -3.0), synth_noise_std=0.1,
        sigma=1.0, clip_norm=0.1, eta=0.5, lot_size=50,
        eps_budget=None, max_iters=300, q0=10.0, mu0=10,
    )
    finals, counts = {}, {}
    for method in ("sa_dpsgd", "dpsgd"):
        losses = []
        for seed in range(20):
            _, _, records, _ = train(
                dataclasses.replace(base, method=method, seed=seed)
            )
            losses.append(records[-1].eval_loss)
            counts.setdefault(method, []).append(run_counts(records))
            if method == "sa_dpsgd":
                prev_energy, prev_q = math.inf, None
                for r in records:
                    if r.eval_loss > prev_energy:
                        assert r.P < 1.0 or r.forced or prev_q == 0.0
                    prev_energy, prev_q = r.eval_loss, r.Q
        finals[method] = statistics.fmean(losses)
    assert finals["sa_dpsgd"] <= finals["dpsgd"]
    report(8, time.perf_counter() - start, 120.0,
           f"mean final loss sa_dpsgd {finals['sa_dpsgd']:.6f} "
           f"<= dpsgd {finals['dpsgd']:.6f} (20 seeds); {mean_counts(counts)}")


def test_09_desk_scale_utility_ordering(tmp_path):
    import pathlib

    start = time.perf_counter()
    mnist = pathlib.Path("data/mnist")
    if (mnist / "train-images-idx3-ubyte").exists():
        train_ds = data.load_idx(
            mnist / "train-images-idx3-ubyte", mnist / "train-labels-idx1-ubyte"
        )
        train_ds = data.LabeledDataset(
            train_ds.features[:10_000], train_ds.labels[:10_000]
        )
        test_ds = data.load_idx(
            mnist / "t10k-images-idx3-ubyte", mnist / "t10k-labels-idx1-ubyte"
        )
        source = "mnist"
    else:
        # no MNIST files available: deterministic 10-class 28x28 surrogate,
        # pushed through the same IDX files and loader
        train_ds = data.synth_blobs(10_000, 10, 784, seed=100)
        test_ds = data.synth_blobs(2_000, 10, 784, seed=101)
        source = "surrogate"
    data.save_idx(train_ds, tmp_path / "tri", tmp_path / "trl", 28, 28)
    data.save_idx(test_ds, tmp_path / "tei", tmp_path / "tel", 28, 28)

    base = TrainConfig(
        method="sa_dpsgd", model="softmax_regression", dataset="idx",
        idx_train_images=str(tmp_path / "tri"), idx_train_labels=str(tmp_path / "trl"),
        idx_test_images=str(tmp_path / "tei"), idx_test_labels=str(tmp_path / "tel"),
        lot_size=128, sigma=1.23, delta=1e-5, eps_budget=3.0,
        eta=0.5, clip_norm=0.1, q0=10.0, mu0=10,
    )
    result, counts, per_seed = {}, {}, {}
    for method in ("sa_dpsgd", "dpsgd"):
        accs, epss = [], []
        for seed in range(5):
            # screened on held-out training rows, scored on the test files
            _, spend_, records, (_, test_accuracy) = train(
                dataclasses.replace(base, method=method, seed=seed)
            )
            accs.append(test_accuracy)
            counts.setdefault(method, []).append(run_counts(records))
            epss.append(spend_.epsilon)
        result[method] = (statistics.fmean(accs), max(epss))
        per_seed[method] = " ".join(f"{a:.4f}" for a in accs)
    assert result["sa_dpsgd"][0] >= result["dpsgd"][0]
    assert result["sa_dpsgd"][1] <= 3.0
    assert result["dpsgd"][1] <= 3.0
    report(9, time.perf_counter() - start, 900.0,
           f"[{source}] mean acc on the untouched test split (screened on held-out "
           f"training rows) sa_dpsgd {result['sa_dpsgd'][0]:.4f} "
           f">= dpsgd {result['dpsgd'][0]:.4f}; eps <= 3.0 for both; "
           f"per-seed test acc sa_dpsgd [{per_seed['sa_dpsgd']}], dpsgd [{per_seed['dpsgd']}]; "
           f"{mean_counts(counts)}")


def test_10_reproducibility(tmp_path):
    start = time.perf_counter()
    cfg = TrainConfig(
        method="sa_dpsgd", model="softmax_regression", dataset="synth_blobs",
        synth_n=600, blob_classes=5, blob_dim=32, lot_size=64,
        eps_budget=None, max_iters=80, seed=42,
    )
    for name in ("a.csv", "b.csv"):
        _, _, records, _ = train(cfg)
        emit_trace(records, tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    report(10, time.perf_counter() - start, 60.0, "byte-identical traces")
