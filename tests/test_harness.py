import collections
import csv
import dataclasses
import itertools
import math
import operator
import os
import pathlib
import re
import struct
import subprocess
import sys
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sadp import accountant, cli, data, harness, models
from sadp.annealer import acceptance_probability
from sadp.harness import (
    TRACE_COLUMNS,
    IterationRecord,
    SadpError,
    TrainConfig,
    compare,
    emit_trace,
    load_config,
    parse_config_text,
    train,
)
from test_cli import UNSET_PATHS

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


# each config text and the message that rejects it when the config is read
BAD_CONFIGS = {
    "bogus_key = 1": r"^line 1: unknown key 'bogus_key'$",
    "eta": r"^line 1: expected key = value$",
    "eta = fast": r"^line 1: bad value for eta: 'fast'$",
    "method = dp_magic": r"^unknown method 'dp_magic'$",
    "sigma = -1": r"^noise multiplier sigma=-1.0 must be > 0$",
    "eval_set = validation": r"^unknown eval_set 'validation'$",
    "eval_set = test": r"^eval_set = test is retired: a run screens on held-out training rows$",
    "clip_kind = foo": r"^unknown clip kind 'foo'$",
    "activation = relu": r"^unknown activation 'relu'$",
    "delta = 1.5": r"^delta=1.5 must be in \(0, 1\)$",
    "q0 = 0": r"^q0 must be > 0$",
    "mu0 = 0": r"^mu0 must be >= 1$",
    "sigma = 1e-200\nclip_norm = 1e-200": r"^sigma \* clip_norm = 0.0 must be > 0$",
    # rules of the data settings, decided by the config alone: no file is opened
    "dataset = synth_linear": r"^regression targets require model=linear_regression$",
    "synth_noise_std = -0.1": r"^synth_noise_std must be >= 0$",
    **{
        text: rf"^{re.escape(text.splitlines()[0])} needs {key}, which is not set$"
        for text, key in UNSET_PATHS.values()
    },
}

# the values a config line may hold: arbitrary one-line text (no character
# str.splitlines breaks at), and text of each field type's form
ONE_LINE = st.text(st.characters(exclude_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
CONFIG_VALUES = st.one_of(
    ONE_LINE,
    st.integers().map(str),
    st.floats().map(repr),
    st.lists(st.floats(allow_nan=False).map(repr), max_size=3).map(",".join),
    st.sampled_from([
        "none", "true", "false", "idx", "csv", "synth_linear", "synth_blobs", "dpsgd",
        "linear_regression", "softmax_regression", "mlp", "rectifier", "auto_s", "held_out",
    ]),
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

    def test_repeated_key_takes_its_last_value(self):
        cfg = parse_config_text("eta = 1.5\nmu0 = 5\neta = 0.25\n")
        assert (cfg.eta, cfg.mu0) == (0.25, 5)
        # a later value is parsed, and checked, as the only one
        cfg = parse_config_text("eps_budget = 3.0\neps_budget = none\n")
        assert cfg.eps_budget is None
        with pytest.raises(SadpError, match=r"^mu0 must be >= 1$"):
            parse_config_text("mu0 = 5\nmu0 = 0\n")
        # an overridden value must still parse
        with pytest.raises(SadpError, match=r"^line 1: bad value for eta: 'fast'$"):
            parse_config_text("eta = fast\neta = 1.5\n")

    @pytest.mark.parametrize("text", list(BAD_CONFIGS))
    def test_bad_configs_rejected(self, text):
        with pytest.raises(SadpError, match=BAD_CONFIGS[text]):
            parse_config_text(text)

    def test_readme_config_table_lists_exactly_the_config_keys(self):
        # the key column's backticked names, each once, against TrainConfig
        readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8").splitlines()
        start = readme.index("| key | meaning |") + 2
        rows = itertools.takewhile(lambda line: line.startswith("|"), readme[start:])
        keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
        assert len(keys) == len(set(keys))
        assert set(keys) == {f.name for f in dataclasses.fields(TrainConfig)}

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from([f.name for f in dataclasses.fields(TrainConfig)]),
                  CONFIG_VALUES),
        max_size=4,
    ))
    def test_config_text_gives_a_config_or_a_sadp_error(self, lines):
        text = "".join(f"{key} = {value}\n" for key, value in lines)
        try:
            config = parse_config_text(text)
        except SadpError:
            return
        assert isinstance(config, TrainConfig)

    def test_a_config_cannot_change_after_its_check(self):
        cfg = TrainConfig()
        for f in dataclasses.fields(TrainConfig):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))
        # a changed copy is checked as a new config
        for change, message in [
            ({"eta": -1.0}, r"^eta must be > 0$"),
            ({"max_iters": 0}, r"^max_iters must be >= 1$"),
            ({"mu0": 0, "q0": -5.0}, r"^q0 must be > 0$"),
            ({"dataset": "csv"}, r"^dataset = csv needs csv_path, which is not set$"),
        ]:
            with pytest.raises(SadpError, match=message):
                dataclasses.replace(cfg, **change)

    def test_clamp_tau_floor_is_an_unknown_key(self):
        # Q = Q0 * tau has no opt-out: the old floor on tau is not a key
        with pytest.raises(SadpError, match=r"^line 1: unknown key 'clamp_tau_floor'$"):
            parse_config_text("clamp_tau_floor = true")


class TestTrain:
    def test_near_noiseless_convex_run_approaches_optimum(self):
        # cold chain (large q0) so worsening moves are rejected outright;
        # large n keeps the train/eval generalization gap well below 1%
        for seed in range(3):
            cfg = dataclasses.replace(
                LINREG_CFG, sigma=1e-12, clip_norm=10.0, max_iters=400,
                synth_n=10_000, lot_size=100, q0=1000.0, seed=seed,
            )
            _, _, records, _ = train(cfg)
            # least-squares optimum of the energy-evaluation split: its
            # Batch inputs are the features over a row of ones
            batch = harness._prepare(cfg)[3]
            A = batch.inputs.T
            w_star, *_ = np.linalg.lstsq(A, batch.targets, rcond=None)
            opt = float(np.mean(0.5 * (A @ w_star - batch.targets) ** 2))
            assert records[-1].eval_loss <= opt * 1.01

    def test_accepted_energy_monotone_except_risky_acceptances(self):
        cfg = dataclasses.replace(LINREG_CFG, sigma=1e-12, clip_norm=10.0)
        _, _, records, _ = train(cfg)
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
            w_sa, _, recs_sa, _ = train(dataclasses.replace(one, seed=seed))
            w_dp, _, recs_dp, _ = train(
                dataclasses.replace(one, method="dpsgd", seed=seed)
            )
            assert recs_sa[0].delta_E == recs_dp[0].delta_E
            if recs_sa[0].accepted:
                np.testing.assert_array_equal(w_sa, w_dp)

    @pytest.mark.parametrize("synth_n", [200, 15_000])   # both of numpy's subset regimes
    def test_methods_draw_the_same_lots(self, monkeypatch, synth_n):
        # the sample stream feeds poisson_sample alone, so its lots depend on
        # (n, q) and the seed, never on which candidates were applied
        cfg = dataclasses.replace(LINREG_CFG, synth_n=synth_n, lot_size=20, sigma=50.0,
                                  max_iters=100, q0=5.0, mu0=3)
        poisson_sample, lots = data.poisson_sample, {}

        def recorded(n, q, rng):
            lots[method].append(poisson_sample(n, q, rng))
            return lots[method][-1]

        monkeypatch.setattr(data, "poisson_sample", recorded)
        for method in ("sa_dpsgd", "dpsgd"):
            lots[method] = []
            _, _, records, _ = train(dataclasses.replace(cfg, method=method))
            if method == "sa_dpsgd":
                assert not all(r.accepted for r in records)   # the parameters part ways
        assert len(lots["sa_dpsgd"]) == len(lots["dpsgd"]) == cfg.max_iters
        for sa, dp in zip(lots["sa_dpsgd"], lots["dpsgd"]):
            np.testing.assert_array_equal(sa, dp)

    def test_dpsgd_charges_and_accepts_every_iteration(self):
        cfg = dataclasses.replace(LINREG_CFG, method="dpsgd", max_iters=50)
        _, _, records, _ = train(cfg)
        for r in records:
            assert r.accepted and not r.forced
            assert r.tau == r.t

    def test_sa_dpsgd_trace_rows_follow_the_chain_rules(self):
        # loud noise and a short rejection cap: every path of the chain occurs
        cfg = dataclasses.replace(LINREG_CFG, synth_n=200, lot_size=20, sigma=50.0,
                                  max_iters=200, q0=5.0, mu0=3)
        paths = collections.Counter()
        for seed in range(3):
            _, _, records, _ = train(dataclasses.replace(cfg, seed=seed))
            paths.update(assert_chain_rules(cfg, records))
        assert {"improving", "risky", "rejected", "forced", "first_rejected"} <= set(paths)

    def test_dpsgd_trace_rows_follow_the_chain_rules(self):
        cfg = dataclasses.replace(LINREG_CFG, method="dpsgd", synth_n=200, lot_size=20,
                                  sigma=50.0, max_iters=200, q0=5.0, mu0=3)
        for seed in range(3):
            _, _, records, _ = train(dataclasses.replace(cfg, seed=seed))
            paths = assert_chain_rules(cfg, records)
            assert all(r.accepted and not r.forced and r.P == 1.0 for r in records)
            assert paths["risky"] > 0 and "rejected" not in paths

    @pytest.mark.parametrize("tight", [False, True])
    def test_final_spend_matches_independent_recompute(self, tight):
        cfg = dataclasses.replace(LINREG_CFG, max_iters=80, tight_conversion=tight)
        _, spend_, records, _ = train(cfg)
        state = accountant.AccountantState(
            q=min(cfg.lot_size / 900, 1.0),  # 1000 minus the 10% held-out split
            sigma=cfg.sigma,
            delta=cfg.delta,
            tight_conversion=tight,
        )
        recomputed = accountant.spend(state, records[-1].tau)
        assert records[-1].epsilon_so_far == spend_.epsilon == recomputed.epsilon

    def test_epsilon_nondecreasing_and_capped_by_budget(self):
        cfg = dataclasses.replace(
            LINREG_CFG, eps_budget=2.0, max_iters=100_000, sigma=2.0
        )
        _, spend_, records, _ = train(cfg)
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
        _, _, records, _ = train(cfg)
        assert [(r.accepted, r.forced, r.P, r.delta_E) for r in records] == [
            (False, False, 0.0, math.inf)
        ] * 10
        assert records[-1].tau == 0 and math.isfinite(records[-1].eval_loss)
        with pytest.raises(SadpError, match=r"^the run diverged: non-finite energy .* candidate 11$"):
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

    def test_lot_size_over_training_rows_rejected(self):
        # 100 rows less the 10 % held out leave 90 training rows
        cfg = dataclasses.replace(LINREG_CFG, synth_n=100, lot_size=512, max_iters=5)
        with pytest.raises(SadpError, match=r"^lot_size 512 exceeds the 90 training rows$"):
            train(cfg)
        # a lot of every training row is the largest: q = 1
        _, spend_, records, _ = train(dataclasses.replace(cfg, lot_size=90))
        full_batch = accountant.AccountantState(1.0, cfg.sigma, cfg.delta)
        assert len(records) == 5 and spend_.epsilon == full_batch.epsilon(records[-1].tau)


def assert_chain_rules(cfg, records) -> collections.Counter:
    """Checks each trace row against the row before it (the chain's start
    before the first) and counts the paths the rows took: improving, risky,
    rejected and forced, and first_rejected when the first candidate is
    rejected."""
    paths = collections.Counter()
    tau, mu, Q, energy, epsilon = 0, 0, cfg.q0, None, None
    for t, r in enumerate(records, start=1):
        assert r.t == t
        assert r.tau == tau + r.accepted
        assert r.mu == (0 if r.accepted else mu + 1) <= cfg.mu0
        assert r.forced == (cfg.method == "sa_dpsgd" and mu == cfg.mu0)
        assert r.Q == cfg.q0 * r.tau
        if r.forced:
            paths["forced"] += 1
            assert r.accepted and r.P == 1.0
        else:
            assert r.P == (1.0 if cfg.method == "dpsgd" else acceptance_probability(r.delta_E, Q))
            if r.accepted:
                paths["improving" if r.delta_E <= 0 else "risky"] += 1
            else:
                paths["rejected"] += 1
        if energy is not None:
            if r.accepted:
                assert r.eval_loss == pytest.approx(energy + r.delta_E, rel=1e-12, abs=1e-15)
            else:
                assert r.eval_loss == energy
        if t == 2 and not records[0].accepted:
            # a first-candidate rejection leaves Q = 0, where any finite
            # change is accepted with probability 1
            paths["first_rejected"] += 1
            assert Q == 0.0 and r.P == 1.0
        if r.tau == tau and t > 1:
            assert r.epsilon_so_far == epsilon
        tau, mu, Q, energy, epsilon = r.tau, r.mu, r.Q, r.eval_loss, r.epsilon_so_far
    return paths


def assert_trace_holds(path, records):
    """trace.csv holds the header, then one row per record whose every field
    parses back to the record's value: repr round-trips every float."""
    header, *rows = pathlib.Path(path).read_text().splitlines()
    assert header.split(",") == TRACE_COLUMNS and len(rows) == len(records)
    for row, record in zip(rows, records):
        fields = row.split(",")
        assert len(fields) == len(TRACE_COLUMNS)
        for text, (name, hint) in zip(fields, typing.get_type_hints(IterationRecord).items()):
            want = getattr(record, name)
            if hint is bool:
                assert text == ("true" if want else "false"), name
            elif hint is int:
                assert int(text) == want, name
            else:
                got = float(text)
                assert got == want or (math.isnan(got) and math.isnan(want)), name


def last_row(path) -> dict[str, str]:
    """The last row of a trace file, as text by column."""
    return dict(zip(TRACE_COLUMNS, pathlib.Path(path).read_text().splitlines()[-1].split(",")))


class TestTraces:
    def test_trace_round_trip(self, tmp_path):
        cfg = dataclasses.replace(LINREG_CFG, max_iters=20)
        _, _, records, _ = train(cfg)
        path = tmp_path / "trace.csv"
        emit_trace(records, path)
        assert_trace_holds(path, records)

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
        assert_trace_holds(tmp_path / "numpy.csv", [plain])

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
            _, _, records, _ = train(cfg)
            emit_trace(records, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestCompare:
    def test_single_run_summary_equals_final_record(self):
        cfg = dataclasses.replace(LINREG_CFG, max_iters=25)
        _, spend_, records, (test_loss, test_accuracy) = train(dataclasses.replace(cfg, seed=3))
        (summary,) = compare([cfg], seeds=[3])
        assert summary["mean_final_loss"] == records[-1].eval_loss
        # the synth_seed + 1 test set's loss; a regression run has no accuracy
        assert summary["mean_final_test_loss"] == test_loss
        assert test_accuracy is None and math.isnan(summary["mean_final_test_accuracy"])
        assert summary["mean_final_epsilon"] == spend_.epsilon
        assert summary["mean_final_epsilon_computed"] == spend_.epsilon_computed
        assert summary["std_final_loss"] == 0.0

    def test_epsilon_over_all_computed_candidates(self):
        # dpsgd charges every candidate; the screen leaves some uncharged
        cfg = dataclasses.replace(LINREG_CFG, max_iters=60, eta=5.0)
        dp, sa = compare([dataclasses.replace(cfg, method="dpsgd"), cfg], seeds=[0, 1])
        assert dp["mean_final_epsilon_computed"] == dp["mean_final_epsilon"]
        assert dp["std_final_epsilon_computed"] == dp["std_final_epsilon"]
        assert sa["mean_final_epsilon_computed"] > sa["mean_final_epsilon"]
        # every run computes 60 candidates, so eps(t) is the dpsgd epsilon
        assert sa["mean_final_epsilon_computed"] == dp["mean_final_epsilon"]

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
        w, _, records, _ = train(cfg)
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
            _, _, records, _ = train(cfg)
            assert len(records) == 20

    def test_auto_s_clipping_trains(self):
        cfg = dataclasses.replace(LINREG_CFG, clip_kind="auto_s", max_iters=20)
        _, _, records, _ = train(cfg)
        assert len(records) == 20


def write_random_idx(path_prefix, n, dim, seed):
    """An IDX pair of n random byte images of dim pixels and 10 classes."""
    rng = np.random.default_rng(seed)
    images, labels = pathlib.Path(f"{path_prefix}-images"), pathlib.Path(f"{path_prefix}-labels")
    images.write_bytes(
        struct.pack(">IIII", 0x803, n, 1, dim) + rng.integers(0, 256, n * dim, dtype=np.uint8).tobytes()
    )
    labels.write_bytes(struct.pack(">II", 0x801, n) + rng.integers(0, 10, n, dtype=np.uint8).tobytes())
    return str(images), str(labels)


def assert_same_rows(got, want):
    """Bitwise equal features of the same dtype, C-contiguous; equal labels."""
    assert got.features.dtype == want.features.dtype and got.features.flags.c_contiguous
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.labels.dtype == want.labels.dtype


def widened(dataset):
    features = dataset.features
    return data.LabeledDataset(data.widen(features, np.empty(features.shape)), dataset.labels)


def rows_of(dataset, idx):
    return data.LabeledDataset(dataset.features[idx], dataset.labels[idx])


def assert_batch_holds(batch, floats, dtype=np.float64):
    """Batch inputs of `dtype` are bitwise the float rows cast to it,
    transposed, over a last row of ones; its targets are their labels."""
    inputs = batch.inputs
    assert inputs.dtype == dtype and inputs.flags.c_contiguous
    assert inputs[:-1].shape == floats.features.T.shape
    assert inputs[:-1].tobytes() == np.ascontiguousarray(floats.features.T.astype(dtype)).tobytes()
    assert (inputs[-1] == 1.0).all()
    np.testing.assert_array_equal(batch.targets, floats.labels)


def assert_widens_to(rows, floats):
    """Byte rows laid out as model inputs are bitwise the float rows."""
    spec = models.ModelSpec("softmax_regression", rows.dim, 10)
    assert_batch_holds(models.to_batch(spec, rows.features, rows.labels), floats)


# a regression model takes any integer labels as targets, so a split's
# evaluation rows need no label in the training rows' class range; each use
# sets its dataset with the data paths that dataset needs
SPLIT_CFG = TrainConfig(model="linear_regression", lot_size=1)


class TestIdxSplits:
    @pytest.mark.parametrize(
        "n, eval_fraction, seed", [(2, 0.5, 1), (10, 0.1, 0), (37, 0.3, 5), (500, 0.1, 2), (1000, 0.75, 9)]
    )
    def test_held_out_training_rows_stay_bytes(self, tmp_path, n, eval_fraction, seed):
        images, labels = write_random_idx(tmp_path / "train", n, 12, seed)
        cfg = dataclasses.replace(
            SPLIT_CFG, dataset="idx", idx_train_images=images, idx_train_labels=labels,
            eval_fraction=eval_fraction, seed=seed, eps_budget=None,
        )
        dataset, train_rows, _, batch, test, _, _ = harness._prepare(cfg)
        # no test pair is given, so the run has no test split
        assert test is None
        # the training split is a row index into the mapped bytes as read
        assert not dataset.features.flags.writeable
        assert_same_rows(dataset, data.read_idx(images, labels))
        perm = np.random.default_rng(seed).permutation(n)
        n_eval = int(n * eval_fraction)
        np.testing.assert_array_equal(train_rows, perm[n_eval:])
        train_set = rows_of(dataset, train_rows)
        assert_same_rows(train_set, rows_of(dataset, perm[n_eval:]))
        floats = data.load_idx(images, labels)
        float_train, float_eval = rows_of(floats, perm[n_eval:]), rows_of(floats, perm[:n_eval])
        # the evaluation rows are the held-out byte rows, widened once into
        # the float32 Batch: bitwise the float64 rows rounded to float32
        assert_batch_holds(batch, float_eval, np.float32)
        # all rows, a Poisson batch and an empty batch widen to the float rows
        rng = np.random.default_rng(seed)
        sample = data.poisson_sample(train_set.n, 0.3, rng)
        for idx in (np.arange(train_set.n), sample, np.array([], dtype=np.intp)):
            assert_same_rows(widened(rows_of(train_set, idx)), rows_of(float_train, idx))
            assert_widens_to(rows_of(train_set, idx), rows_of(float_train, idx))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_test_split_stays_bytes_and_out_of_the_eval_set(self, tmp_path, monkeypatch, seed):
        train_files = write_random_idx(tmp_path / "train", 50, 12, seed)
        test_files = write_random_idx(tmp_path / "test", 20, 12, seed + 1)
        cfg = dataclasses.replace(
            SPLIT_CFG, dataset="idx", seed=seed,
            idx_train_images=train_files[0], idx_train_labels=train_files[1],
            idx_test_images=test_files[0], idx_test_labels=test_files[1],
        )
        train_bytes, train_floats = data.read_idx(*train_files), data.load_idx(*train_files)
        test_floats = data.load_idx(*test_files)
        read_idx, reads = data.read_idx, []

        def recorded(*paths):
            reads.append(paths)
            return read_idx(*paths)

        monkeypatch.setattr(data, "read_idx", recorded)
        dataset, train_rows, _, batch, test, _, _ = harness._prepare(cfg)
        assert reads == [train_files, test_files]
        # the training split and the held-out Batch are the training pair's
        # rows; the test split is the test pair's bytes as read, unwidened
        perm = np.random.default_rng(seed).permutation(50)
        np.testing.assert_array_equal(train_rows, perm[5:])
        assert_same_rows(rows_of(dataset, train_rows), rows_of(train_bytes, perm[5:]))
        assert_batch_holds(batch, rows_of(train_floats, perm[:5]), np.float32)
        assert not test.features.flags.writeable
        assert_same_rows(test, data.read_idx(*test_files))
        assert_same_rows(widened(test), test_floats)

    def test_held_out_split_never_holds_the_full_float_matrix(self, tmp_path):
        # numpy reports its buffers to tracemalloc; the mapped bytes are not
        # allocated, the row indices take 8 bytes a row, and the evaluation
        # float32 Batch, with the byte rows gathered for it, is 0.07x the
        # float64 matrix
        n, dim = 20_000, 784
        images, labels = write_random_idx(tmp_path / "train", n, dim, 0)
        cfg = TrainConfig(dataset="idx", idx_train_images=images, idx_train_labels=labels)
        tracemalloc.start()
        try:
            _, train_rows, _, batch, _, _, _ = harness._prepare(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(train_rows) + len(batch) == n
        assert peak < 0.5 * n * dim * 8

    def test_training_never_holds_a_float_training_matrix(self, tmp_path):
        n, dim = 20_000, 784
        images, labels = write_random_idx(tmp_path / "train", n, dim, 1)
        cfg = TrainConfig(
            dataset="idx", idx_train_images=images, idx_train_labels=labels,
            model="mlp", layer_widths=(16,), lot_size=512, eps_budget=None, max_iters=5,
        )
        tracemalloc.start()
        try:
            _, _, records, _ = train(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 5
        assert peak < 0.5 * n * dim * 8


class TestTestScore:
    """train scores its final parameters once on the test split, which the
    screen never sees."""

    @pytest.mark.parametrize("dataset", ["idx", "csv", "synth_blobs"])
    def test_score_is_evaluate_on_independently_widened_test_rows(self, tmp_path, dataset):
        train_files = write_random_idx(tmp_path / "train", 300, 12, 0)
        test_files = write_random_idx(tmp_path / "test", 60, 12, 1)
        rng = np.random.default_rng(2)
        table = np.column_stack([rng.normal(size=(300, 12)), rng.integers(0, 10, 300)])
        np.savetxt(tmp_path / "table.csv", table, delimiter=",")
        cfg = TrainConfig(
            dataset=dataset, model="softmax_regression", lot_size=16, eta=2.0,
            eps_budget=None, max_iters=30, seed=3, synth_n=300, blob_dim=12,
            idx_train_images=train_files[0], idx_train_labels=train_files[1],
            idx_test_images=test_files[0], idx_test_labels=test_files[1],
            csv_path=str(tmp_path / "table.csv"),
        )
        w, _, _, test = train(cfg)
        if dataset == "idx":
            rows = data.load_idx(*test_files)
        elif dataset == "csv":
            whole = data.load_csv(tmp_path / "table.csv")
            rows = rows_of(whole, data.split(whole.n, cfg.eval_fraction, cfg.seed)[1])
        else:
            rows = data.synth_blobs(60, 10, 12, cfg.synth_seed + 1)
        spec = models.ModelSpec("softmax_regression", 12, 10)
        assert test == models.evaluate(spec, w, models.to_batch(spec, rows.features, rows.labels))

    def test_run_without_a_test_split_scores_none(self, tmp_path):
        images, labels = write_random_idx(tmp_path / "train", 100, 12, 0)
        cfg = TrainConfig(
            dataset="idx", idx_train_images=images, idx_train_labels=labels,
            lot_size=8, eps_budget=None, max_iters=5,
        )
        assert train(cfg)[3] is None
        (summary,) = compare([cfg], seeds=[0, 1])
        for stat in ("mean", "std"):
            assert math.isnan(summary[f"{stat}_final_test_loss"])
            assert math.isnan(summary[f"{stat}_final_test_accuracy"])
        assert 0.0 <= summary["mean_final_accuracy"] <= 1.0


class TestByteResidentExactness:
    """A run on byte rows widened per batch writes the same files as the
    same run on float64-resident rows (data.read_idx widened at once)."""

    @pytest.mark.parametrize("extra", [
        "model = softmax_regression\n",
        "model = mlp\nlayer_widths = 16\n",
        "model = mlp\nlayer_widths = 8\nclip_kind = auto_s\n",
    ], ids=["softmax", "mlp", "mlp-auto_s"])
    def test_float_resident_rows_give_identical_outputs(self, tmp_path, monkeypatch, extra):
        train_files = write_random_idx(tmp_path / "train", 600, 49, 4)
        test_files = write_random_idx(tmp_path / "test", 120, 49, 5)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "dataset = idx\n"
            f"idx_train_images = {train_files[0]}\nidx_train_labels = {train_files[1]}\n"
            f"idx_test_images = {test_files[0]}\nidx_test_labels = {test_files[1]}\n"
            "lot_size = 64\neta = 1.0\nclip_norm = 0.5\nsigma = 0.8\n"
            "eps_budget = none\nmax_iters = 80\nseed = 2\n" + extra
        )
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "bytes")]) == 0
        read_idx = data.read_idx
        monkeypatch.setattr(data, "read_idx", lambda *paths: widened(read_idx(*paths)))
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "floats")]) == 0
        for name in ("trace.csv", "final.params"):
            got = (tmp_path / "bytes" / name).read_bytes()
            assert got == (tmp_path / "floats" / name).read_bytes()
        # the run screened candidates: some accepted, some rejected
        last = last_row(tmp_path / "bytes" / "trace.csv")
        assert 0 < int(last["tau"]) < int(last["t"]) == 80


class TestMappedIndexExactness:
    """A run on mapped pixels and an index-resident training split writes
    the same files as the same run on in-memory rows with the training
    rows copied out, as the split used to hand them over."""

    @pytest.mark.parametrize("extra", [
        "dataset = idx\nmodel = softmax_regression\n",
        "dataset = idx\nmodel = mlp\nlayer_widths = 16\n",
        "dataset = idx\nmodel = mlp\nlayer_widths = 8\nclip_kind = auto_s\n",
        "dataset = csv\nmodel = softmax_regression\n",
    ], ids=["softmax", "mlp", "mlp-auto_s", "csv"])
    def test_copied_rows_give_identical_outputs(self, tmp_path, monkeypatch, extra):
        train_files = write_random_idx(tmp_path / "train", 600, 49, 6)
        test_files = write_random_idx(tmp_path / "test", 120, 49, 7)
        rng = np.random.default_rng(8)
        table = np.column_stack([rng.normal(size=(700, 6)), rng.integers(0, 4, 700)])
        np.savetxt(tmp_path / "table.csv", table, delimiter=",", header="a,b,c,d,e,f,label")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"idx_train_images = {train_files[0]}\nidx_train_labels = {train_files[1]}\n"
            f"idx_test_images = {test_files[0]}\nidx_test_labels = {test_files[1]}\n"
            f"csv_path = {tmp_path / 'table.csv'}\n"
            "lot_size = 64\neta = 1.0\nclip_norm = 0.5\nsigma = 0.8\n"
            "eps_budget = none\nmax_iters = 80\nseed = 3\n" + extra
        )
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "mapped")]) == 0
        read_idx, prepare = data.read_idx, harness._prepare

        def in_memory(*paths):
            ds = read_idx(*paths)
            return data.LabeledDataset(np.array(ds.features), ds.labels)

        def copied_out(config):
            dataset, train_rows, *rest = prepare(config)
            return rows_of(dataset, train_rows), np.arange(len(train_rows)), *rest

        monkeypatch.setattr(data, "read_idx", in_memory)
        monkeypatch.setattr(harness, "_prepare", copied_out)
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "copied")]) == 0
        for name in ("trace.csv", "final.params"):
            got = (tmp_path / "mapped" / name).read_bytes()
            assert got == (tmp_path / "copied" / name).read_bytes()
        last = last_row(tmp_path / "mapped" / "trace.csv")
        assert 0 < int(last["tau"]) < int(last["t"]) == 80


class TestFloat32Screening:
    """An IDX run screened on its float32 evaluation Batch makes every
    decision the same run screened on a float64 Batch makes, and ends at the
    same parameters: only the energy's last digits move. Every other run
    screens in float64."""

    @pytest.mark.parametrize("model", [
        "model = softmax_regression\nseed = 2\n",
        "model = mlp\nlayer_widths = 16\nseed = 1\n",
    ], ids=["idx", "idx-mlp"])
    def test_decisions_and_parameters_match_float64_screening(self, tmp_path, monkeypatch, model):
        images, labels = tmp_path / "images", tmp_path / "labels"
        data.save_idx(data.synth_blobs(800, 10, 49, 1), images, labels, 7, 7)
        cfg = parse_config_text(
            f"dataset = idx\nidx_train_images = {images}\nidx_train_labels = {labels}\n" + model
            + "lot_size = 64\neta = 2.0\nclip_norm = 0.5\nsigma = 0.8\n"
            "eps_budget = none\nmax_iters = 400\n"
        )
        w32, _, screened32, _ = train(cfg)
        to_batch, dtypes = models.to_batch, []

        def float64_batch(spec, X, y, dtype=np.float64):
            dtypes.append(dtype)
            return to_batch(spec, X, y)

        monkeypatch.setattr(models, "to_batch", float64_batch)
        w64, _, screened64, _ = train(cfg)
        assert dtypes[0] == np.float32             # the evaluation Batch, made float64
        chain = operator.attrgetter("t", "tau", "mu", "accepted", "forced")
        assert list(map(chain, screened32)) == list(map(chain, screened64))
        assert w32.tobytes() == w64.tobytes()
        for a, b in zip(screened32, screened64):
            assert a.eval_loss == pytest.approx(b.eval_loss, rel=1e-6, abs=0)
        # the run screened candidates: some accepted, some rejected
        assert 0 < screened32[-1].tau < screened32[-1].t == 400

    def test_features_past_float32_range_are_screened_in_float64(self, tmp_path):
        # a float32 batch would hold inf for 1e39; a CSV run screens in
        # float64 at 1e39 and at 1e29 alike, in range of float32 or not
        rng = np.random.default_rng(11)
        table = np.column_stack([rng.normal(size=(100, 3)), rng.integers(0, 2, 100)])
        cfg = TrainConfig(dataset="csv", csv_path=str(tmp_path / "table.csv"), lot_size=8)
        for scale, least in [(1e39, 1e38), (1e-10, 1e28)]:
            table[:, 0] *= scale
            np.savetxt(tmp_path / "table.csv", table, delimiter=",")
            inputs = harness._prepare(cfg)[3].inputs
            assert inputs.dtype == np.float64
            assert np.isfinite(inputs).all() and np.abs(inputs[0]).max() > least

    @pytest.mark.parametrize("dataset, dtype", [
        ("csv", np.float64), ("synth_linear", np.float64), ("synth_blobs", np.float64),
        ("idx", np.float32),
    ])
    def test_evaluation_batch_is_float32_exactly_for_idx_pixels(self, tmp_path, dataset, dtype):
        images, labels = write_random_idx(tmp_path / "train", 60, 12, 0)
        rng = np.random.default_rng(12)
        table = np.column_stack([rng.random((60, 3)), rng.integers(0, 2, 60)])
        np.savetxt(tmp_path / "table.csv", table, delimiter=",")
        cfg = dataclasses.replace(
            SPLIT_CFG, dataset=dataset, idx_train_images=images, idx_train_labels=labels,
            csv_path=str(tmp_path / "table.csv"), synth_n=60, blob_dim=12,
        )
        assert harness._prepare(cfg)[3].inputs.dtype == dtype

    def test_regression_energy_at_the_optimum_is_float64(self):
        # a tight fit's squared error is a small residual of large
        # predictions: float32 GEMMs put it 1.2e-5 relative off here
        cfg = TrainConfig(
            dataset="synth_linear", model="linear_regression", synth_n=1000,
            synth_weights=(2.0, -3.0), synth_noise_std=0.001, synth_seed=3, lot_size=8,
        )
        dataset, train_rows, spec, batch, _, _, _ = harness._prepare(cfg)
        X, y = dataset.features, dataset.labels
        w, *_ = np.linalg.lstsq(np.column_stack([X, np.ones(len(X))])[train_rows], y[train_rows])
        held = data.split(dataset.n, cfg.eval_fraction, cfg.seed)[1]
        loss, _ = models.evaluate(spec, w, batch)
        want, _ = models.evaluate(spec, w, models.to_batch(spec, X[held], y[held]))
        assert loss == pytest.approx(want, rel=1e-12, abs=0)


def run_trace_diff(a, b):
    script = pathlib.Path(__file__).parent.parent / "scripts" / "trace_diff.py"
    return subprocess.run(
        [sys.executable, str(script), str(a), str(b)], capture_output=True, text=True, timeout=60
    )


def test_trace_diff_script_checks_decision_columns(tmp_path):
    _, _, records, _ = train(dataclasses.replace(LINREG_CFG, max_iters=20))
    emit_trace(records, tmp_path / "a.csv")
    emit_trace([r._replace(eval_loss=r.eval_loss * (1 + 4e-16)) for r in records], tmp_path / "b.csv")
    flipped = records[3]._replace(accepted=not records[3].accepted)
    emit_trace([*records[:3], flipped, *records[4:]], tmp_path / "c.csv")
    # an accuracy is an output, not a decision: it is reported like a loss
    scored = [r._replace(eval_accuracy=0.5) for r in records]
    emit_trace(scored, tmp_path / "d.csv")
    emit_trace([*scored[:5], scored[5]._replace(eval_accuracy=0.25), *scored[6:]], tmp_path / "e.csv")

    def diff(other, base="a.csv"):
        return run_trace_diff(tmp_path / base, tmp_path / other)

    moved = diff("b.csv")
    assert moved.returncode == 0 and "decision columns identical" in moved.stdout
    assert re.search(r"^eval_loss: max relative difference [1-9]", moved.stdout, re.M)
    changed = diff("c.csv")
    assert changed.returncode == 1 and "accepted: 1 rows differ, first at t=4" in changed.stdout
    accuracy = diff("e.csv", "d.csv")
    assert accuracy.returncode == 0 and "decision columns identical" in accuracy.stdout
    assert "eval_accuracy: max relative difference 0.5\n" in accuracy.stdout
    # run directories: the traces as above, then final.params
    w = np.array([0.25, -1.5, 3.0])
    for run, trace, params in [
        ("run_a", "a.csv", w), ("run_same", "a.csv", w), ("run_moved", "b.csv", w * (1 + 4e-16)),
        ("run_longer", "a.csv", np.append(w, 0.0)), ("run_flipped", "c.csv", w),
    ]:
        (tmp_path / run).mkdir()
        (tmp_path / run / "trace.csv").write_bytes((tmp_path / trace).read_bytes())
        models.save_checkpoint(tmp_path / run / "final.params", params)
    same = diff("run_same", "run_a")
    assert same.returncode == 0 and "final.params: byte-equal" in same.stdout
    moved = diff("run_moved", "run_a")
    assert moved.returncode == 0 and "decision columns identical" in moved.stdout
    assert re.search(r"^final.params: max relative difference [1-9]", moved.stdout, re.M)
    longer = diff("run_longer", "run_a")
    assert longer.returncode == 1 and "parameter counts differ: 3 vs 4" in longer.stdout
    flipped = diff("run_flipped", "run_a")
    assert flipped.returncode == 1 and "final.params: byte-equal" in flipped.stdout
    assert diff("run_a", "a.csv").returncode == 2
    # final.params is read as a checkpoint: a bad magic or a cut file exits 2 naming it
    good = (tmp_path / "run_a" / "final.params").read_bytes()
    for run, params, message in [
        ("run_junk", b"JUNK" + good[4:], "not a parameter checkpoint"),
        ("run_cut", good[:36], "truncated checkpoint"),
    ]:
        (tmp_path / run).mkdir()
        (tmp_path / run / "trace.csv").write_bytes((tmp_path / "a.csv").read_bytes())
        (tmp_path / run / "final.params").write_bytes(params)
        bad = diff(run, "run_a")
        assert bad.returncode == 2
        assert bad.stderr == f"error: {tmp_path / run / 'final.params'}: {message}\n"


HEADER = ",".join(TRACE_COLUMNS)
GOOD_ROW = "1,1,0,10.0,-0.5,1.0,true,false,0.5,nan,0.1"


@pytest.mark.parametrize(
    "text, where, message",
    [
        (b"", "", "unexpected trace header"),
        (b"a,b\n1,2", "", "unexpected trace header"),
        (b"t,tau\n1,1\n", "", "unexpected trace header"),
        (f"{HEADER}\n{GOOD_ROW}\n1,1,0,10.0".encode(), ":3", "4 fields, expected 11"),
        (f"{HEADER}\n{GOOD_ROW}\n{GOOD_ROW},7\n".encode(), ":3", "12 fields, expected 11"),
        (f"{HEADER}\n1,1,0,10.0,abc,1.0,true,false,0.5,nan,0.1\n".encode(), ":2",
         "could not convert string to float: 'abc'"),
        (f"{HEADER}\n1,x,0,10.0,-0.5,1.0,true,false,0.5,nan,0.1\n".encode(), ":2",
         "invalid literal for int() with base 10: 'x'"),
        (f"{HEADER}\n1,1,0,10.0,-0.5,1.0,yes,false,0.5,nan,0.1\n".encode(), ":2",
         "not a boolean: 'yes'"),
        (f"{HEADER}\n".encode() + b"\x80\x81,\xff\n", "",
         "not UTF-8 text (invalid start byte at byte 76)"),
    ],
    ids=["empty", "foreign_header", "short_header", "4_fields", "12_fields", "bad_float",
         "bad_int", "bad_boolean", "not_utf8"],
)
def test_trace_diff_script_rejects_malformed_trace(tmp_path, text, where, message):
    # exit 2 with one error line naming the file, and the line of a bad row,
    # not 1 as if the traces differed; either side of the comparison is read
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(f"{HEADER}\n{GOOD_ROW}\n")
    bad.write_bytes(text)
    for a, b in [(bad, bad), (good, bad), (bad, good)]:
        run = run_trace_diff(a, b)
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr == f"error: {bad}{where}: {message}\n"


def test_trace_diff_script_rejects_cut_run_trace(tmp_path):
    # a trace.csv cut mid-row, in a run directory, is named with its line
    _, _, records, _ = train(dataclasses.replace(LINREG_CFG, max_iters=20))
    for run in ("run_a", "run_cut"):
        (tmp_path / run).mkdir()
        emit_trace(records, tmp_path / run / "trace.csv")
        models.save_checkpoint(tmp_path / run / "final.params", np.array([0.25, -1.5, 3.0]))
    cut = tmp_path / "run_cut" / "trace.csv"
    cut.write_bytes(cut.read_bytes()[:300])
    lines = cut.read_text().splitlines()
    line, fields = len(lines), len(lines[-1].split(","))
    assert 1 < line and fields < len(TRACE_COLUMNS)
    for a, b in [("run_cut", "run_cut"), ("run_a", "run_cut")]:
        run = run_trace_diff(tmp_path / a, tmp_path / b)
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr == f"error: {cut}:{line}: {fields} fields, expected 11\n"


def test_trace_diff_script_names_a_missing_file(tmp_path):
    emit_trace([], tmp_path / "a.csv")
    run = run_trace_diff(tmp_path / "a.csv", tmp_path / "missing.csv")
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error: ") and str(tmp_path / "missing.csv") in run.stderr


# the float tolerances of the reproducibility contract across BLAS thread
# counts, fixed before the test first ran: eval_loss and the parameters are
# relative, delta_E absolute (a difference of two energies, each within the
# eval_loss tolerance); P = min(1, exp(-delta_E * Q)) moves at most Q times
# as far as delta_E, and an accuracy by at most one evaluation row
CROSS_THREAD_EVAL_LOSS_REL = 1e-6
CROSS_THREAD_DELTA_E_ABS = 1e-5
CROSS_THREAD_PARAMS_REL = 1e-8


def test_traces_keep_the_trace_diff_contract_across_blas_thread_counts(tmp_path):
    # class clusters as IDX pixels: float32 screening GEMMs, whose summation
    # order OpenBLAS may change with its thread count
    rng = np.random.default_rng(20221114)
    n, side = 4000, 28
    centers = rng.uniform(0.2, 0.8, size=(10, side * side))
    labels = rng.integers(0, 10, size=n)
    pixels = np.clip(centers[labels] + rng.normal(0.0, 1.0, size=(n, side * side)), 0.0, 1.0)
    data.save_idx(data.LabeledDataset(pixels, labels), tmp_path / "images", tmp_path / "labels",
                  rows=side, cols=side)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"model = softmax_regression\ndataset = idx\nidx_train_images = {tmp_path / 'images'}\n"
        f"idx_train_labels = {tmp_path / 'labels'}\nlot_size = 128\nclip_norm = 0.1\n"
        "eta = 2.0\neps_budget = none\nmax_iters = 300\nseed = 1\n"
    )
    root = pathlib.Path(__file__).parent.parent
    for threads in ("1", "2"):
        subprocess.run(
            [sys.executable, "-m", "sadp.cli", "train", "--config", str(cfg),
             "--out", str(tmp_path / f"threads_{threads}")],
            env={**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=120, check=True,
        )
    one, two = tmp_path / "threads_1", tmp_path / "threads_2"
    run = run_trace_diff(one, two)
    assert run.returncode == 0, run.stdout
    assert "decision columns identical" in run.stdout
    params = re.search(r"^final.params: (byte-equal|max relative difference (\S+))$", run.stdout, re.M)
    assert params.group(1) == "byte-equal" or float(params.group(2)) <= CROSS_THREAD_PARAMS_REL

    def columns(run_dir):
        with open(run_dir / "trace.csv") as f:
            rows = list(csv.DictReader(f))
        floats = {name: np.array([float(r[name]) for r in rows])
                  for name in ("Q", "delta_E", "P", "eval_loss", "eval_accuracy")}
        return floats, sum(r["accepted"] == "false" for r in rows)

    (a, rejected), (b, _) = columns(one), columns(two)
    assert rejected > 0       # the screen has decisions to keep
    np.testing.assert_array_equal(a["Q"], b["Q"])
    np.testing.assert_allclose(a["eval_loss"], b["eval_loss"], rtol=CROSS_THREAD_EVAL_LOSS_REL, atol=0)
    assert np.abs(a["delta_E"] - b["delta_E"]).max() <= CROSS_THREAD_DELTA_E_ABS
    # each row's P used the Q before it: Q0 = 10 at the first candidate
    q_used = np.concatenate([[10.0], a["Q"][:-1]])
    assert np.all(np.abs(a["P"] - b["P"]) <= q_used * CROSS_THREAD_DELTA_E_ABS)
    # one evaluation row's worth: the held-out carve is int(n * 0.1) rows
    assert np.abs(a["eval_accuracy"] - b["eval_accuracy"]).max() <= 1 / int(n * 0.1)


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


def test_image_pipeline_demo_prints_its_test_accuracy():
    root = pathlib.Path(__file__).parent.parent
    out = subprocess.run(
        [sys.executable, str(root / "demos" / "04_image_pipeline.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    t, tau, accuracy, epsilon = re.fullmatch(
        r"iterations run: +(\d+)\nupdates accepted: +(\d+)\n"
        r"final test accuracy: (\d\.\d{4})\n"
        r"privacy spent: +epsilon = (\d\.\d{4}) \(budget 3\.0\)\n",
        out,
    ).groups()
    assert 0 < int(tau) <= int(t)
    assert 0.0 <= float(accuracy) <= 1.0 and float(epsilon) <= 3.0
