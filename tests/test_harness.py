import dataclasses
import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sadp import accountant, data, harness, models
from sadp.harness import (
    TRACE_COLUMNS,
    InvalidConfigError,
    IterationRecord,
    TrainConfig,
    compare,
    emit_trace,
    load_config,
    parse_config_text,
    read_trace,
    train,
)

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"

LINREG_CFG = TrainConfig(
    method="sa_dpsgd",
    model="linear_regression",
    dataset="synth_linear",
    synth_n=1000,
    synth_weights=(2.0, -3.0),
    synth_noise_std=0.1,
    eta=0.5,
    lot_size=50,
    clip_norm=0.1,
    sigma=1.0,
    eps_budget=None,
    max_iters=300,
    q0=10.0,
    mu0=10,
    seed=0,
)


class TestConfigParsing:
    def test_mnist_preset_matches_published_hyperparameters(self):
        cfg = load_config(CONFIGS / "mnist.cfg")
        assert cfg.eta == 0.5
        assert cfg.lot_size == 512
        assert cfg.clip_norm == 0.1
        assert cfg.sigma == 1.23
        assert (cfg.eps_budget, cfg.delta) == (3.0, 1e-5)
        assert cfg.q0 == 10.0
        assert cfg.mu0 == 10
        assert cfg.method == "sa_dpsgd"

    def test_all_shipped_presets_parse(self):
        for path in sorted(CONFIGS.glob("*.cfg")):
            load_config(path)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# comment\n\neta = 1.5  # trailing\nmu0 = 5\n")
        assert cfg.eta == 1.5
        assert cfg.mu0 == 5

    @pytest.mark.parametrize(
        "text",
        [
            "bogus_key = 1",
            "eta",
            "eta = fast",
            "method = dp_magic",
            "sigma = -1",
            "eval_set = validation",
        ],
    )
    def test_bad_configs_rejected(self, text):
        with pytest.raises(InvalidConfigError):
            parse_config_text(text)


class TestTrain:
    def test_near_noiseless_convex_run_approaches_optimum(self):
        # cold chain (large q0) so worsening moves are rejected outright;
        # large n keeps the train/eval generalization gap well below 1%
        from sadp.harness import _load_splits

        for seed in range(3):
            cfg = dataclasses.replace(
                LINREG_CFG, sigma=1e-12, clip_norm=10.0, max_iters=400,
                synth_n=10_000, lot_size=100, q0=1000.0, seed=seed,
            )
            _, _, records = train(cfg)
            # least-squares optimum of the energy-evaluation split
            _, eval_set, _ = _load_splits(cfg)
            A = np.hstack([eval_set.features, np.ones((eval_set.n, 1))])
            w_star, *_ = np.linalg.lstsq(A, eval_set.labels, rcond=None)
            opt = float(np.mean(0.5 * (A @ w_star - eval_set.labels) ** 2))
            assert records[-1].eval_loss <= opt * 1.01

    def test_accepted_energy_monotone_except_risky_acceptances(self):
        cfg = dataclasses.replace(LINREG_CFG, sigma=1e-12, clip_norm=10.0)
        _, _, records = train(cfg)
        prev_energy = math.inf
        prev_q = None
        for r in records:
            if r.eval_loss > prev_energy:
                assert r.accepted
                assert r.P < 1.0 or r.forced or prev_q == 0.0
            prev_energy = r.eval_loss
            prev_q = r.Q
        assert any(r.accepted for r in records)

    def test_methods_share_the_candidate_pipeline(self):
        # when the first candidate improves the loss both methods accept it,
        # so the resulting parameters after one iteration must be identical
        one = dataclasses.replace(LINREG_CFG, max_iters=1)
        for seed in range(5):
            w_sa, _, recs_sa = train(dataclasses.replace(one, seed=seed))
            w_dp, _, recs_dp = train(
                dataclasses.replace(one, method="dpsgd", seed=seed)
            )
            assert recs_sa[0].delta_E == recs_dp[0].delta_E
            if recs_sa[0].accepted:
                np.testing.assert_array_equal(w_sa, w_dp)

    def test_dpsgd_charges_and_accepts_every_iteration(self):
        cfg = dataclasses.replace(LINREG_CFG, method="dpsgd", max_iters=50)
        _, _, records = train(cfg)
        for r in records:
            assert r.accepted and not r.forced
            assert r.tau == r.t

    @pytest.mark.parametrize("tight", [False, True])
    def test_final_spend_matches_independent_recompute(self, tight):
        cfg = dataclasses.replace(LINREG_CFG, max_iters=80, tight_conversion=tight)
        _, spend_, records = train(cfg)
        state = accountant.AccountantState(
            q=min(cfg.lot_size / 900, 1.0),  # 1000 minus the 10% held-out split
            sigma=cfg.sigma,
            delta=cfg.delta,
            tau=records[-1].tau,
        )
        recomputed = accountant.spend(state, tight)
        assert records[-1].epsilon_so_far == spend_.epsilon == recomputed.epsilon

    def test_epsilon_nondecreasing_and_capped_by_budget(self):
        cfg = dataclasses.replace(
            LINREG_CFG, eps_budget=2.0, max_iters=100_000, sigma=2.0
        )
        _, spend_, records = train(cfg)
        assert records  # some iterations actually ran
        eps = [r.epsilon_so_far for r in records]
        assert eps == sorted(eps)
        assert all(e <= 2.0 for e in eps)
        assert spend_.epsilon <= 2.0
        # ran until the budget, not the iteration cap
        assert len(records) < 100_000
        assert records[-1].tau == 149  # charged-step cap for q=1/18, sigma=2

    def test_sa_dpsgd_rejects_non_finite_candidates_until_one_is_forced(self):
        # every candidate's energy overflows; mu0 = 10 voluntary rejections
        # come first, and the 11th candidate is forced, applied and raised
        cfg = dataclasses.replace(LINREG_CFG, eta=1e200, max_iters=10)
        _, _, records = train(cfg)
        assert [(r.accepted, r.forced, r.P, r.delta_E) for r in records] == [
            (False, False, 0.0, math.inf)
        ] * 10
        assert records[-1].tau == 0 and math.isfinite(records[-1].eval_loss)
        with pytest.raises(harness.NonFiniteParametersError, match="candidate 11"):
            train(dataclasses.replace(cfg, max_iters=11))

    def test_budget_below_floor_raises(self):
        cfg = dataclasses.replace(LINREG_CFG, eps_budget=0.01)
        with pytest.raises(accountant.BudgetInfeasibleError):
            train(cfg)

    def test_budget_below_single_step_raises(self):
        # above the tau=0 conversion floor but below one charged iteration
        cfg = dataclasses.replace(LINREG_CFG, eps_budget=2.0, lot_size=200)
        with pytest.raises(accountant.BudgetInfeasibleError):
            train(cfg)


class TestTraces:
    def test_trace_round_trip(self, tmp_path):
        cfg = dataclasses.replace(LINREG_CFG, max_iters=20)
        _, _, records = train(cfg)
        path = tmp_path / "trace.csv"
        emit_trace(records, path)
        back = read_trace(path)
        assert len(back) == len(records)
        for a, b in zip(back, records):
            for col in TRACE_COLUMNS:
                va, vb = getattr(a, col), getattr(b, col)
                assert va == vb or (
                    isinstance(va, float) and math.isnan(va) and math.isnan(vb)
                )

    def test_malformed_boolean_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            ",".join(TRACE_COLUMNS) + "\n1,1,0,10.0,-0.5,1.0,yes,false,0.5,nan,0.1\n"
        )
        with pytest.raises(ValueError):
            read_trace(path)

    def test_numpy_scalars_written_as_plain_numbers(self, tmp_path):
        plain = IterationRecord(
            t=3, tau=2, mu=1, Q=20.0, delta_E=-0.125, P=0.5, accepted=True,
            forced=False, eval_loss=0.2259375, eval_accuracy=math.nan,
            epsilon_so_far=1.5,
        )
        numpy_scalars = IterationRecord(
            t=np.int64(3), tau=np.int64(2), mu=np.int64(1), Q=np.float64(20.0),
            delta_E=np.float64(-0.125), P=np.float32(0.5), accepted=np.bool_(True),
            forced=np.bool_(False), eval_loss=np.float64(0.2259375),
            eval_accuracy=np.float64(np.nan), epsilon_so_far=np.float64(1.5),
        )
        emit_trace([plain], tmp_path / "plain.csv")
        emit_trace([numpy_scalars], tmp_path / "numpy.csv")
        assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        (back,) = read_trace(tmp_path / "numpy.csv")
        for col in TRACE_COLUMNS:
            va, vb = getattr(back, col), getattr(plain, col)
            assert va == vb or (math.isnan(va) and math.isnan(vb))

    def test_header_only_for_empty_run(self, tmp_path):
        path = tmp_path / "trace.csv"
        emit_trace([], path)
        content = path.read_text()
        assert content == ",".join(TRACE_COLUMNS) + "\n"

    def test_trace_has_eleven_columns(self):
        assert len(TRACE_COLUMNS) == 11
        assert TRACE_COLUMNS == [
            "t", "tau", "mu", "Q", "delta_E", "P", "accepted", "forced",
            "eval_loss", "eval_accuracy", "epsilon_so_far",
        ]

    def test_identical_config_and_seed_give_byte_identical_traces(self, tmp_path):
        cfg = dataclasses.replace(LINREG_CFG, max_iters=30)
        for name in ("a.csv", "b.csv"):
            _, _, records = train(cfg)
            emit_trace(records, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestCompare:
    def test_single_run_summary_equals_final_record(self):
        cfg = dataclasses.replace(LINREG_CFG, max_iters=25)
        _, spend_, records = train(dataclasses.replace(cfg, seed=3))
        (summary,) = compare([cfg], seeds=[3])
        assert summary["mean_final_loss"] == records[-1].eval_loss
        assert summary["mean_final_epsilon"] == spend_.epsilon
        assert summary["std_final_loss"] == 0.0

    def test_identical_configs_identical_summaries(self):
        cfg = dataclasses.replace(LINREG_CFG, max_iters=25)
        a, b = compare([cfg, dataclasses.replace(cfg)], seeds=[0, 1])
        a.pop("config_index"), b.pop("config_index")
        assert a == b

    def test_requires_configs_and_seeds(self):
        with pytest.raises(ValueError):
            compare([], [1])
        with pytest.raises(ValueError):
            compare([LINREG_CFG], [])


class TestClassification:
    def test_blobs_run_produces_accuracy_and_checkpointable_model(self, tmp_path):
        cfg = TrainConfig(
            method="sa_dpsgd", model="softmax_regression", dataset="synth_blobs",
            synth_n=500, blob_classes=3, blob_dim=16, lot_size=64,
            eps_budget=None, max_iters=60, seed=1,
        )
        w, _, records = train(cfg)
        assert 0.0 <= records[-1].eval_accuracy <= 1.0
        path = tmp_path / "final.params"
        models.save_checkpoint(path, w)
        np.testing.assert_array_equal(models.load_checkpoint(path), w)

    def test_mlp_variants_train(self):
        for activation in ("bounded_tanh", "rectifier"):
            cfg = TrainConfig(
                model="mlp", layer_widths=(12,), activation=activation,
                dataset="synth_blobs", synth_n=300, blob_classes=3, blob_dim=8,
                lot_size=32, eps_budget=None, max_iters=20, seed=2,
            )
            _, _, records = train(cfg)
            assert len(records) == 20

    def test_auto_s_clipping_trains(self):
        cfg = dataclasses.replace(LINREG_CFG, clip_kind="auto_s", max_iters=20)
        _, _, records = train(cfg)
        assert len(records) == 20

    def test_clamp_tau_floor_keeps_temperature_positive(self):
        cfg = dataclasses.replace(LINREG_CFG, clamp_tau_floor=True, max_iters=50)
        _, _, records = train(cfg)
        assert all(r.Q >= cfg.q0 for r in records)


def write_random_idx(path_prefix, n, dim, seed):
    """An IDX pair of n random byte images of dim pixels and 10 classes."""
    rng = np.random.default_rng(seed)
    images, labels = pathlib.Path(f"{path_prefix}-images"), pathlib.Path(f"{path_prefix}-labels")
    images.write_bytes(
        struct.pack(">IIII", 0x803, n, 1, dim) + rng.integers(0, 256, n * dim, dtype=np.uint8).tobytes()
    )
    labels.write_bytes(struct.pack(">II", 0x801, n) + rng.integers(0, 10, n, dtype=np.uint8).tobytes())
    return str(images), str(labels)


class TestIdxSplits:
    @pytest.mark.parametrize(
        "n, eval_fraction, seed", [(2, 0.5, 1), (10, 0.1, 0), (37, 0.3, 5), (500, 0.1, 2), (1000, 0.75, 9)]
    )
    def test_held_out_split_equals_split_of_loaded_floats(self, tmp_path, n, eval_fraction, seed):
        images, labels = write_random_idx(tmp_path / "train", n, 12, seed)
        cfg = TrainConfig(
            dataset="idx", idx_train_images=images, idx_train_labels=labels,
            eval_fraction=eval_fraction, seed=seed,
        )
        expected = data.split(data.load_idx(images, labels), eval_fraction, seed)
        train_set, eval_set, test_set = harness._load_splits(cfg)
        assert test_set is None
        for got, want in zip((train_set, eval_set), expected):
            assert got.features.dtype == np.float64 and got.features.flags.c_contiguous
            assert got.features.tobytes() == want.features.tobytes()
            np.testing.assert_array_equal(got.labels, want.labels)
            assert got.labels.dtype == want.labels.dtype

    @pytest.mark.parametrize("seed", [0, 3])
    def test_test_split_equals_loaded_floats(self, tmp_path, seed):
        train_files = write_random_idx(tmp_path / "train", 50, 12, seed)
        test_files = write_random_idx(tmp_path / "test", 20, 12, seed + 1)
        cfg = TrainConfig(
            dataset="idx", eval_set="test", seed=seed,
            idx_train_images=train_files[0], idx_train_labels=train_files[1],
            idx_test_images=test_files[0], idx_test_labels=test_files[1],
        )
        got = harness._load_splits(cfg)
        expected = (data.load_idx(*train_files), data.load_idx(*test_files), data.load_idx(*test_files))
        for g, want in zip(got, expected):
            assert g.features.dtype == np.float64 and g.features.flags.c_contiguous
            assert g.features.tobytes() == want.features.tobytes()
            np.testing.assert_array_equal(g.labels, want.labels)

    def test_held_out_split_never_holds_the_full_float_matrix(self, tmp_path):
        # numpy reports its buffers to tracemalloc; the two float64 splits
        # alone are 1.0x the full float64 matrix
        n, dim = 20_000, 784
        images, labels = write_random_idx(tmp_path / "train", n, dim, 0)
        cfg = TrainConfig(dataset="idx", idx_train_images=images, idx_train_labels=labels)
        tracemalloc.start()
        try:
            splits = harness._load_splits(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(ds.n for ds in splits[:2]) == n
        assert peak < 1.25 * n * dim * 8


def test_train_and_compare_demo_prints_both_methods():
    root = pathlib.Path(__file__).parent.parent
    out = subprocess.run(
        [sys.executable, str(root / "demos" / "03_train_and_compare.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert re.search(
        r"^dpsgd   : mean final eval loss \d\.\d{6} over 5 seeds \(300 iterations each\)$",
        out, re.M,
    )
