import dataclasses
import json
import os
import pathlib
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sadp import accountant, cli, errors, harness, models
from sadp.data import LabeledDataset, save_idx

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"

SMALL_CFG = """
method = sa_dpsgd
model = linear_regression
dataset = synth_linear
synth_n = 200
synth_weights = 2,-3
synth_noise_std = 0.1
lot_size = 20
clip_norm = 0.1
sigma = 1.0
eps_budget = none
max_iters = 25
"""


MLP_CFG = """
method = sa_dpsgd
model = mlp
layer_widths = 4
dataset = synth_blobs
synth_n = 100
blob_classes = 3
blob_dim = 4
lot_size = 20
eps_budget = none
max_iters = 5
"""


def write_cfg(tmp_path, text=SMALL_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_train_writes_trace_and_checkpoint(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "trace.csv").exists()
    assert (out / "final.params").exists()
    assert "epsilon" in capsys.readouterr().out


SUMMARY = re.compile(
    r"^(\w+): (\d+) iterations, final loss \S+, epsilon (\S+) \(alpha=\d+, delta=\S+\) "
    r"over tau=(\d+) charged, (\S+) over all t=(\d+) computed$"
)


@pytest.mark.parametrize("method", ["sa_dpsgd", "dpsgd"])
def test_train_prints_charged_and_computed_epsilon(tmp_path, capsys, method):
    # 180 training rows after the held-out split and lot_size 20: q = 1/9;
    # a large step makes the screen reject some candidates
    text = SMALL_CFG.replace("sa_dpsgd", method).replace("25", "60") + "eta = 5\n"
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    line, test_line = capsys.readouterr().out.splitlines()
    got, n, eps_tau, tau, eps_t, t = SUMMARY.match(line).groups()
    # synth_linear scores its synth_seed + 1 set; a regression run has no accuracy
    assert re.fullmatch(r"test: loss \d+\.\d{6}", test_line)
    assert got == method and int(n) == int(t) == 60
    state = accountant.AccountantState(q=20 / 180, sigma=1.0, delta=1e-5)
    assert eps_tau == f"{state.epsilon(int(tau)):.4f}" and eps_t == f"{state.epsilon(60):.4f}"
    if method == "dpsgd":
        assert int(tau) == 60 and eps_t == eps_tau
    else:
        # the screen rejected candidates, each computed but not charged
        assert int(tau) < 60 and float(eps_t) > float(eps_tau)


def test_train_seed_override_changes_trace(tmp_path):
    cfg = write_cfg(tmp_path)
    cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "a"), "--seed", "1"])
    cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "2"])
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a != b


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "method = teleport\n")
    assert cli.main(["train", "--config", str(cfg)]) == errors.SadpError.exit_code
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "base, override",
    [
        (SMALL_CFG, "clip_kind = foo"),
        (MLP_CFG, "activation = relu"),
        (SMALL_CFG, "eval_fraction = 0"),
        (SMALL_CFG, "clip_kind = auto_s\ngamma = 0"),
        (MLP_CFG, "model = foo"),
        (MLP_CFG, "layer_widths ="),
        (SMALL_CFG, "eps_budget = inf"),
        (SMALL_CFG, "synth_noise_std = none"),
        (SMALL_CFG, "clip_norm = nan"),
        (SMALL_CFG, "sigma = nan"),
        (SMALL_CFG, "eps_budget = nan"),
        (MLP_CFG, "synth_n = 0"),
        (MLP_CFG, "blob_classes = 0"),
        (MLP_CFG, "blob_dim = 0"),
        (MLP_CFG, "seed = -1"),
        (MLP_CFG, "synth_seed = -1"),
        (MLP_CFG, "synth_n = 5"),
        (MLP_CFG, "eval_fraction = 0.001"),
        (SMALL_CFG, "synth_noise_std = -1"),
        (SMALL_CFG, "synth_weights = ,"),
        (MLP_CFG, "model = softmax_regression\nlayer_widths = 128"),
        (SMALL_CFG, "layer_widths = 128"),
        (SMALL_CFG, "synth_n = 100\nlot_size = 512\nmax_iters = 5"),
        (SMALL_CFG, "eta = 0"),
        (SMALL_CFG, "eta = -1"),
        (SMALL_CFG, "lot_size = 0"),
        (SMALL_CFG, "eval_fraction = 1"),
        (SMALL_CFG, "eval_fraction = -0.5"),
        # sigma * C underflows to 0: rejected when the config is read, so
        # before the budget is solved
        (SMALL_CFG, "sigma = 1e-200\nclip_norm = 1e-200"),
        (SMALL_CFG, "sigma = 1e-200\nclip_norm = 1e-200\neps_budget = 3"),
        (SMALL_CFG, "q0 = 0"),
        (SMALL_CFG, "q0 = -1"),
        (SMALL_CFG, "mu0 = 0"),
    ],
    ids=[
        "clip_kind", "activation", "eval_fraction", "auto_s_gamma", "model", "mlp_widths",
        "inf_budget", "none_noise_std", "nan_clip_norm", "nan_sigma", "nan_budget",
        "zero_synth_n", "zero_blob_classes", "zero_blob_dim", "negative_seed",
        "negative_synth_seed", "empty_held_out_small_n", "empty_held_out_small_fraction",
        "negative_noise_std", "no_synth_weights", "softmax_widths", "linear_widths",
        "lot_size_over_train_rows", "zero_eta", "negative_eta", "zero_lot_size",
        "unit_eval_fraction", "negative_eval_fraction", "noise_std_underflow",
        "budgeted_noise_std_underflow", "zero_q0", "negative_q0", "zero_mu0",
    ],
)
def test_invalid_field_exits_2_without_traceback(tmp_path, capsys, base, override):
    # later keys win, so the override replaces the base value
    cfg = write_cfg(tmp_path, base + override + "\n")
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == errors.SadpError.exit_code
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


LABELED_CFG = """
method = sa_dpsgd
model = softmax_regression
lot_size = 10
eps_budget = none
max_iters = 3
"""


def assert_exits_2_without_traceback(capsys, argv) -> str:
    assert cli.main(argv) == errors.SadpError.exit_code
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    return err


def test_negative_csv_label_exits_2(tmp_path, capsys):
    rows = [f"{i % 3}.0,{(i * 7) % 5}.0,{-1 if i == 12 else i % 3}" for i in range(40)]
    (tmp_path / "data.csv").write_text("a,b,label\n" + "\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, LABELED_CFG + f"dataset = csv\ncsv_path = {tmp_path / 'data.csv'}\n")
    err = assert_exits_2_without_traceback(
        capsys, ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert "labels" in err


@pytest.mark.parametrize("labels", [(-1, -1), (-1, -2)])
def test_all_negative_csv_labels_exit_2_naming_the_labels(tmp_path, capsys, labels):
    # the label range is checked before the model is shaped from it
    rows = [f"{i % 3}.0,{(i * 7) % 5}.0,{labels[i % 2]}" for i in range(40)]
    (tmp_path / "data.csv").write_text("a,b,label\n" + "\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, LABELED_CFG + f"dataset = csv\ncsv_path = {tmp_path / 'data.csv'}\n")
    err = assert_exits_2_without_traceback(
        capsys, ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert "class labels must lie in [0, 0)" in err


def test_test_label_beyond_train_classes_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(0)
    paths = {}
    for part, classes in (("train", 3), ("test", 4)):
        ds = LabeledDataset(rng.uniform(size=(30, 4)), np.arange(30) % classes)
        paths[part] = (tmp_path / f"{part}-images", tmp_path / f"{part}-labels")
        save_idx(ds, *paths[part], rows=2, cols=2)
    cfg = write_cfg(
        tmp_path,
        LABELED_CFG
        + "dataset = idx\n"
        + f"idx_train_images = {paths['train'][0]}\nidx_train_labels = {paths['train'][1]}\n"
        + f"idx_test_images = {paths['test'][0]}\nidx_test_labels = {paths['test'][1]}\n",
    )
    err = assert_exits_2_without_traceback(
        capsys, ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert "labels" in err


def test_test_images_of_another_size_exit_2(tmp_path, capsys):
    # 3x3 test images against 2x2 training images, labels in range
    rng = np.random.default_rng(0)
    paths = {}
    for part, side in (("train", 2), ("test", 3)):
        ds = LabeledDataset(rng.uniform(size=(30, side * side)), np.arange(30) % 3)
        paths[part] = (tmp_path / f"{part}-images", tmp_path / f"{part}-labels")
        save_idx(ds, *paths[part], rows=side, cols=side)
    cfg = write_cfg(
        tmp_path,
        LABELED_CFG
        + "dataset = idx\n"
        + f"idx_train_images = {paths['train'][0]}\nidx_train_labels = {paths['train'][1]}\n"
        + f"idx_test_images = {paths['test'][0]}\nidx_test_labels = {paths['test'][1]}\n",
    )
    err = assert_exits_2_without_traceback(
        capsys, ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert err == (
        f"error: idx_test_images {paths['test'][0]} has 9 features per row, "
        "the training images 4\n"
    )


# each data config and the key it lacks; the paths named are never opened
UNSET_PATHS = {
    "idx": ("dataset = idx\n", "idx_train_images"),
    "idx-no-train-labels": ("dataset = idx\nidx_train_images = nope\n", "idx_train_labels"),
    "idx-test-images-only": (
        "dataset = idx\nidx_train_images = a\nidx_train_labels = b\nidx_test_images = c\n",
        "idx_test_labels",
    ),
    "idx-test-labels-only": (
        "dataset = idx\nidx_train_images = a\nidx_train_labels = b\nidx_test_labels = d\n",
        "idx_test_images",
    ),
    "csv": ("dataset = csv\n", "csv_path"),
}


@pytest.mark.parametrize("case", list(UNSET_PATHS))
def test_unset_data_path_exits_2_naming_the_key(tmp_path, capsys, case):
    # the config read fails, before either command makes --out
    text, key = UNSET_PATHS[case]
    cfg = write_cfg(tmp_path, LABELED_CFG + text)
    for argv in (
        ["train", "--config", str(cfg)], ["compare", "--configs", str(cfg), "--seeds", "0"]
    ):
        err = assert_exits_2_without_traceback(capsys, [*argv, "--out", str(tmp_path / "out")])
        assert err == f"error: {text.splitlines()[0]} needs {key}, which is not set\n"
        assert not (tmp_path / "out").exists()


def test_empty_idx_test_file_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(0)
    paths = {}
    for part, n in (("train", 30), ("test", 0)):
        ds = LabeledDataset(rng.uniform(size=(n, 4)), np.arange(n) % 3)
        paths[part] = (tmp_path / f"{part}-images", tmp_path / f"{part}-labels")
        save_idx(ds, *paths[part], rows=2, cols=2)
    cfg = write_cfg(
        tmp_path,
        LABELED_CFG
        + "dataset = idx\n"
        + f"idx_train_images = {paths['train'][0]}\nidx_train_labels = {paths['train'][1]}\n"
        + f"idx_test_images = {paths['test'][0]}\nidx_test_labels = {paths['test'][1]}\n",
    )
    err = assert_exits_2_without_traceback(
        capsys, ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert err == f"error: empty test split: {paths['test'][0]} has no rows\n"


def test_train_prints_its_test_score(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MLP_CFG)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "blobs")]) == 0
    _, _, _, (loss, accuracy) = harness.train(harness.load_config(cfg))
    assert capsys.readouterr().out.splitlines()[1] == (
        f"test: loss {loss:.6f}, accuracy {accuracy:.4f}"
    )
    # an IDX run without a test pair has no test split
    ds = LabeledDataset(np.random.default_rng(0).uniform(size=(30, 4)), np.arange(30) % 3)
    save_idx(ds, tmp_path / "images", tmp_path / "labels", rows=2, cols=2)
    cfg = write_cfg(
        tmp_path,
        LABELED_CFG + f"dataset = idx\nidx_train_images = {tmp_path / 'images'}\n"
        + f"idx_train_labels = {tmp_path / 'labels'}\n",
    )
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "idx")]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "test: none, the run has no test split"


def write_idx(tmp_path, images: bytes, labels: bytes) -> str:
    (tmp_path / "images").write_bytes(images)
    (tmp_path / "labels").write_bytes(labels)
    return (
        f"dataset = idx\nidx_train_images = {tmp_path / 'images'}\n"
        f"idx_train_labels = {tmp_path / 'labels'}\n"
    )


def write_csv(tmp_path, text: str) -> str:
    (tmp_path / "data.csv").write_text(text)
    return f"dataset = csv\ncsv_path = {tmp_path / 'data.csv'}\n"


IDX_LABELS_HEADER = bytes.fromhex("00000801") + (30).to_bytes(4, "big")


@pytest.mark.parametrize(
    "data_keys",
    [
        lambda p: write_idx(p, np.random.default_rng(0).bytes(100), IDX_LABELS_HEADER + bytes(30)),
        lambda p: write_idx(
            p, bytes.fromhex("00000803") + (30).to_bytes(4, "big") * 3 + bytes(10),
            IDX_LABELS_HEADER + bytes(30),
        ),
        lambda p: write_idx(
            p, bytes.fromhex("00000803") + (20).to_bytes(4, "big") + (2).to_bytes(4, "big") * 2
            + bytes(80), IDX_LABELS_HEADER + bytes(30),
        ),
        lambda p: write_csv(p, "a,b,label\n1,2,0\n3,x,1\n"),
        lambda p: write_csv(p, "1,2,0\n3,1\n"),
        lambda p: write_csv(p, "1,2,0\n3,nan,1\n"),
        lambda p: write_csv(p, "a,b,label\n"),
        lambda p: write_csv(p, "1,2,0.5\n3,4,1.5\n5,6,2.5\n"),
    ],
    ids=[
        "idx_random_bytes", "idx_truncated", "idx_count_mismatch",
        "csv_non_numeric", "csv_ragged", "csv_non_finite", "csv_no_rows",
        "csv_fractional_labels",
    ],
)
def test_malformed_data_file_exits_4(tmp_path, capsys, data_keys):
    cfg = write_cfg(tmp_path, LABELED_CFG + data_keys(tmp_path))
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == errors.DataFileError.exit_code
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def idx_pair(n: int, extra: bytes = b"") -> tuple[bytes, bytes]:
    """n random 2x2 images (bytes past the payload appended) and labels in [0, 3)."""
    rng = np.random.default_rng(n)
    images = struct.pack(">IIII", 0x803, n, 2, 2) + rng.bytes(4 * n) + extra
    return images, struct.pack(">II", 0x801, n) + bytes(i % 3 for i in range(n))


def test_idx_payload_one_byte_short_exits_4(tmp_path, capsys):
    images, labels = idx_pair(30)
    cfg = write_cfg(tmp_path, LABELED_CFG + write_idx(tmp_path, images[:-1], labels))
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1 more bytes" in err
    assert "Traceback" not in err


def test_idx_trailing_bytes_are_ignored(tmp_path):
    outputs = []
    for extra in (b"", b"trailing bytes"):
        part = tmp_path / str(len(extra))
        part.mkdir()
        cfg = write_cfg(part, LABELED_CFG + write_idx(part, *idx_pair(30, extra)))
        assert cli.main(["train", "--config", str(cfg), "--out", str(part / "out")]) == 0
        outputs.append([(part / "out" / name).read_bytes() for name in ("trace.csv", "final.params")])
    assert outputs[0] == outputs[1]


def test_zero_image_idx_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LABELED_CFG + write_idx(tmp_path, *idx_pair(0)))
    err = assert_exits_2_without_traceback(
        capsys, ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert "empty split: 0 training and 0 evaluation rows" in err


@pytest.mark.parametrize(
    "data_keys",
    [
        lambda p: write_idx(
            p, struct.pack(">IIII", 0x803, 30, 0, 0), struct.pack(">II", 0x801, 30) + bytes(30)
        ),
        lambda p: write_csv(p, "label\n" + "\n".join(str(i % 3) for i in range(30)) + "\n"),
    ],
    ids=["idx_zero_pixels", "csv_labels_only"],
)
def test_no_feature_columns_exits_2(tmp_path, capsys, data_keys):
    cfg = write_cfg(tmp_path, LABELED_CFG + data_keys(tmp_path))
    err = assert_exits_2_without_traceback(
        capsys, ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert "no feature columns" in err


SYNTH_LINEAR_CFG = (CONFIGS / "synth_linear.cfg").read_text()


@pytest.mark.parametrize(
    "text",
    [
        MLP_CFG + "eta = 1e308\nsigma = 1000\n",
        # finite parameters whose energy overflows, after an update or at once
        SYNTH_LINEAR_CFG + "method = dpsgd\neta = 1e200\n",
        SYNTH_LINEAR_CFG + "method = sa_dpsgd\neta = 1e200\n",
        SYNTH_LINEAR_CFG + "method = dpsgd\nsynth_weights = 1e200,1e200\n",
        SYNTH_LINEAR_CFG + "method = sa_dpsgd\nsynth_weights = 1e200,1e200\n",
    ],
    ids=["params", "energy_dpsgd", "energy_sa_dpsgd", "initial_dpsgd", "initial_sa_dpsgd"],
)
def test_diverged_run_exits_2(tmp_path, capsys, text):
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        # no overflow warning may come ahead of the error line
        warnings.simplefilter("error")
        err = assert_exits_2_without_traceback(
            capsys, ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
    assert "non-finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("seeds", [",", "a"], ids=["no_seeds", "non_integer_seed"])
def test_compare_bad_seed_list_exits_2(tmp_path, capsys, seeds):
    cfg = write_cfg(tmp_path)
    assert_exits_2_without_traceback(
        capsys, ["compare", "--configs", str(cfg), "--seeds", seeds, "--out", str(tmp_path)]
    )


@pytest.mark.parametrize(
    "override, seeds, message",
    [("delta = 1.5", "0,1", "delta=1.5 must be in (0, 1)"),
     ("", "0,-1", "seed and synth_seed must be >= 0")],
    ids=["delta_outside_unit_interval", "negative_seed"],
)
def test_compare_rejects_every_bad_input_before_its_first_run(
    tmp_path, capsys, monkeypatch, override, seeds, message
):
    calls = []
    monkeypatch.setattr(harness, "train", calls.append)
    good = write_cfg(tmp_path, name="good.cfg")
    bad = write_cfg(tmp_path, SMALL_CFG + override + "\n", name="bad.cfg")
    argv = ["compare", "--configs", str(good), str(bad), "--seeds", seeds, "--out", str(tmp_path)]
    assert assert_exits_2_without_traceback(capsys, argv) == f"error: {message}\n"
    assert calls == []


def counted_train(monkeypatch):
    """The configs harness.train is called with, in order; each still runs."""
    calls, train = [], harness.train

    def counted(config):
        calls.append(config)
        return train(config)

    monkeypatch.setattr(harness, "train", counted)
    return calls


MALFORMED_CSV = "a,b,label\n1.0,2.0,0\n1.0,2.0\n"   # its second row is ragged


@pytest.mark.parametrize(
    "override, code, message",
    [("synth_n = 100\nlot_size = 512\n", errors.SadpError.exit_code,
      "error: lot_size 512 exceeds the 90 training rows\n"),
     ("eps_budget = 0.001\n", errors.BudgetInfeasibleError.exit_code,
      "error: budget 0.001 does not cover a single charged iteration"),
     ("dataset = csv\ncsv_path = {tmp}/bad.csv\n", errors.DataFileError.exit_code,
      "error: {tmp}/bad.csv: ")],
    ids=["lot_size_above_training_rows", "infeasible_budget", "malformed_csv"],
)
def test_compare_checks_every_run_before_the_first(
    tmp_path, capsys, monkeypatch, override, code, message
):
    # a config after a valid one that cannot run, by its data or its budget:
    # compare checks each config once, before the first run
    calls = counted_train(monkeypatch)
    (tmp_path / "bad.csv").write_text(MALFORMED_CSV)
    later = (CONFIGS / "synth_linear.cfg").read_text() + override.format(tmp=tmp_path)
    argv = ["compare", "--configs", str(CONFIGS / "synth_linear.cfg"),
            str(write_cfg(tmp_path, later, name="later.cfg")), "--seeds", "0,1,2",
            "--out", str(tmp_path)]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(message.format(tmp=tmp_path)) and err.count("\n") == 1
    assert calls == []


def test_a_class_only_in_held_out_rows_trains_at_every_seed(tmp_path, capsys, monkeypatch):
    # the model's class count comes from the labels of every row of the
    # training data, so whether a run can start never depends on its seed:
    # seed 0 keeps the one class-2 row (row 17) in training, seed 1 carves it
    # off, and both train a 3-class softmax on the 2 features
    rows = [f"{i % 3}.0,{(i * 7) % 5}.0,{2 if i == 17 else i % 2}" for i in range(40)]
    (tmp_path / "data.csv").write_text("a,b,label\n" + "\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, LABELED_CFG + f"dataset = csv\ncsv_path = {tmp_path / 'data.csv'}\n")
    config = harness.load_config(cfg)
    for seed, kept in ((0, True), (1, False)):
        train_rows = harness._prepare(dataclasses.replace(config, seed=seed))[1]
        assert (17 in train_rows) == kept
        out = tmp_path / f"seed{seed}"
        assert cli.main(["train", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
        assert len(models.load_checkpoint(out / "final.params")) == (2 + 1) * 3
    calls = counted_train(monkeypatch)
    argv = ["compare", "--configs", str(cfg), "--seeds", "0,1", "--out", str(tmp_path / "cmp")]
    assert cli.main(argv) == 0
    assert [c.seed for c in calls] == [0, 1]


@pytest.mark.parametrize("command", ["train", "compare"])
def test_unusable_out_exits_4_before_its_first_run(tmp_path, capsys, monkeypatch, command):
    calls = []
    monkeypatch.setattr(harness, "train", calls.append)
    cfg = write_cfg(tmp_path)
    (tmp_path / "file").write_text("")
    flag = ["train", "--config"] if command == "train" else ["compare", "--seeds", "0,1,2", "--configs"]
    argv = [*flag, str(cfg), "--out", str(tmp_path / "file" / "out")]
    assert cli.main(argv) == errors.DataFileError.exit_code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert calls == []


def test_infeasible_budget_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("eps_budget = none", "eps_budget = 0.01"))
    assert cli.main(["train", "--config", str(cfg)]) == errors.BudgetInfeasibleError.exit_code


@pytest.mark.parametrize("command", ["train", "compare"])
def test_non_utf8_config_exits_2_naming_the_file(tmp_path, capsys, command):
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(SMALL_CFG.encode() + b"\xff\xfe\x00\x01")
    flag = ["train", "--config"] if command == "train" else ["compare", "--seeds", "0", "--configs"]
    argv = [*flag, str(cfg), "--out", str(tmp_path / "out")]
    err = assert_exits_2_without_traceback(capsys, argv)
    assert err.startswith(f"error: {cfg}: not UTF-8 text")


def test_missing_config_exits_4(tmp_path):
    assert cli.main(["train", "--config", str(tmp_path / "nope.cfg")]) == errors.DataFileError.exit_code


def test_compare_emits_summaries(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "cmp"
    code = cli.main(
        ["compare", "--configs", str(cfg), str(cfg), "--seeds", "0,1", "--out", str(out)]
    )
    assert code == 0
    assert (out / "summary.csv").exists()
    assert (out / "summary.json").exists()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(
        re.fullmatch(
            r"\[\d\] sa_dpsgd: held-out acc \S+ \+/- \S+, test acc \S+ \+/- \S+, "
            r"eps \S+, eps\(t\) \S+",
            line,
        )
        for line in lines
    )
    header = (out / "summary.csv").read_text().splitlines()[0].split(",")
    assert header[-2:] == ["mean_final_epsilon_computed", "std_final_epsilon_computed"]


def test_regression_compare_writes_strict_json_with_null_accuracy(tmp_path, capsys):
    out = tmp_path / "cmp"
    argv = ["compare", "--configs", str(CONFIGS / "synth_linear.cfg"), "--seeds", "0,1"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert "held-out acc nan +/- nan, test acc nan +/- nan," in capsys.readouterr().out

    def reject(token):
        raise AssertionError(f"summary.json holds the non-JSON token {token}")

    (summary,) = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary["mean_final_accuracy"] is None and summary["std_final_accuracy"] is None
    assert summary["mean_final_test_accuracy"] is None and summary["mean_final_test_loss"] > 0
    assert summary["n_runs"] == 2 and summary["std_final_loss"] > 0


def test_privacy_calculator(capsys):
    code = cli.main(
        ["privacy", "--q", "0.00853", "--sigma", "1.23", "--delta", "1e-5", "--tau", "4698"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "epsilon = 2.99" in out


def test_privacy_tight_conversion(capsys):
    argv = ["privacy", "--q", "0.00853", "--sigma", "1.23", "--delta", "1e-5", "--tau", "4698"]
    assert cli.main(argv + ["--tight"]) == 0
    standard = accountant.AccountantState(q=0.00853, sigma=1.23, delta=1e-5)
    tight = accountant.spend(dataclasses.replace(standard, tight_conversion=True), 4698)
    assert tight.epsilon < accountant.spend(standard, 4698).epsilon
    out = capsys.readouterr().out
    assert out.startswith(f"epsilon = {tight.epsilon:.6f} at alpha = {tight.best_alpha} ")


def test_privacy_rejects_bad_parameters(capsys):
    code = cli.main(
        ["privacy", "--q", "2.0", "--sigma", "1.0", "--delta", "1e-5", "--tau", "1"]
    )
    assert code == errors.SadpError.exit_code


def test_privacy_rejects_negative_tau(capsys):
    argv = ["privacy", "--q", "0.5", "--sigma", "1.0", "--delta", "1e-5", "--tau", "-1"]
    assert cli.main(argv) == errors.SadpError.exit_code
    assert capsys.readouterr().err == "error: tau=-1 must be >= 0\n"


def test_privacy_rejects_tau_past_float_range(capsys):
    argv = ["privacy", "--q", "0.01", "--sigma", "1.1", "--delta", "1e-5", "--tau"]
    assert cli.main([*argv, str(10**320)]) == errors.SadpError.exit_code
    assert capsys.readouterr().err == f"error: tau={10**320} is past float range\n"
    # a tau in float range prints a finite epsilon
    assert cli.main([*argv, str(10**20)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and np.isfinite(float(out.split()[2]))


# 45 training rows after the held-out split and lot_size 45: q = 1, where a
# sigma this small overflows the Gaussian's alpha / (2 sigma^2) to inf
FULL_BATCH_CFG = """
dataset = synth_blobs
synth_n = 50
blob_dim = 3
lot_size = 45
sigma = 1e-300
clip_norm = 1.0
"""


def test_privacy_at_full_batch_and_tiny_sigma_is_infinite(capsys):
    argv = ["privacy", "--q", "1", "--sigma", "1e-300", "--delta", "1e-5", "--tau", "10"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("epsilon = inf at alpha = ")


@pytest.mark.parametrize(
    "argv, want",
    [
        (["--q", "1", "--sigma", "1e-300", "--tau", "0"], "epsilon = 0.182745 at alpha = 64 "),
        (["--q", "0.5", "--sigma", "1e-154", "--tau", "10"], "epsilon = inf at alpha = 2 "),
    ],
    ids=["no_charged_step_at_infinite_cost", "overflowing_cost"],
)
def test_privacy_at_infinite_or_huge_per_step_cost(capsys, argv, want):
    # no charged step costs 0, and tau times a finite per-step cost past
    # float range is inf: neither warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["privacy", *argv, "--delta", "1e-5"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(want) and err == ""


def test_budget_at_full_batch_and_tiny_sigma_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FULL_BATCH_CFG + "eps_budget = 3.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == errors.BudgetInfeasibleError.exit_code
    err = capsys.readouterr().err
    assert err.startswith("error: budget 3.0 does not cover a single charged iteration")
    assert err.count("\n") == 1


def test_unbudgeted_run_at_full_batch_and_tiny_sigma_prints_infinite_epsilon(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FULL_BATCH_CFG + "eps_budget = none\nmax_iters = 5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    got, _, eps_tau, tau, eps_t, _ = SUMMARY.match(capsys.readouterr().out.splitlines()[0]).groups()
    assert (got, eps_tau, eps_t) == ("sa_dpsgd", "inf", "inf") and int(tau) >= 1


def test_runs_on_numpy_alone(tmp_path):
    # scipy would cost every process ~19 MiB and ~0.1 s of import; numpy
    # loads numpy.random lazily, and sadp imports it so that its load never
    # falls inside a timed training run
    script = f"""
import json, sys
import sadp
random_at_import = "numpy.random" in sys.modules
from sadp import cli
rc = [
    cli.main(["privacy", "--q", "0.01", "--sigma", "1.1", "--delta", "1e-5", "--tau", "100"]),
    cli.main(["train", "--config", {str(CONFIGS / "synth_linear.cfg")!r}, "--out", {str(tmp_path)!r}]),
]
scipy = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({{"rc": rc, "random_at_import": random_at_import, "scipy": scipy}}))
"""
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parent.parent / "src")},
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result == {"rc": [0, 0], "random_at_import": True, "scipy": []}
