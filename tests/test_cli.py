import pathlib
import warnings

import numpy as np
import pytest

from sadp import accountant, cli
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
    assert code == cli.EXIT_OK
    assert (out / "trace.csv").exists()
    assert (out / "final.params").exists()
    assert "epsilon" in capsys.readouterr().out


def test_train_seed_override_changes_trace(tmp_path):
    cfg = write_cfg(tmp_path)
    cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "a"), "--seed", "1"])
    cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "2"])
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a != b


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "method = teleport\n")
    assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_INVALID_CONFIG
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
    ],
    ids=[
        "clip_kind", "activation", "eval_fraction", "auto_s_gamma", "model", "mlp_widths",
        "inf_budget", "none_noise_std", "nan_clip_norm", "nan_sigma", "nan_budget",
        "zero_synth_n", "zero_blob_classes", "zero_blob_dim", "negative_seed",
        "negative_synth_seed", "empty_held_out_small_n", "empty_held_out_small_fraction",
    ],
)
def test_invalid_field_exits_2_without_traceback(tmp_path, capsys, base, override):
    # later keys win, so the override replaces the base value
    cfg = write_cfg(tmp_path, base + override + "\n")
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INVALID_CONFIG
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
    assert cli.main(argv) == cli.EXIT_INVALID_CONFIG
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
        + "dataset = idx\neval_set = test\n"
        + f"idx_train_images = {paths['train'][0]}\nidx_train_labels = {paths['train'][1]}\n"
        + f"idx_test_images = {paths['test'][0]}\nidx_test_labels = {paths['test'][1]}\n",
    )
    err = assert_exits_2_without_traceback(
        capsys, ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert "labels" in err


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
    assert code == cli.EXIT_IO_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


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


def test_infeasible_budget_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("eps_budget = none", "eps_budget = 0.01"))
    assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_BUDGET_INFEASIBLE


def test_missing_config_exits_4(tmp_path):
    assert cli.main(["train", "--config", str(tmp_path / "nope.cfg")]) == cli.EXIT_IO_ERROR


def test_compare_emits_summaries(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "cmp"
    code = cli.main(
        ["compare", "--configs", str(cfg), str(cfg), "--seeds", "0,1", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    assert (out / "summary.csv").exists()
    assert (out / "summary.json").exists()
    assert capsys.readouterr().out.count("sa_dpsgd") == 2


def test_privacy_calculator(capsys):
    code = cli.main(
        ["privacy", "--q", "0.00853", "--sigma", "1.23", "--delta", "1e-5", "--tau", "4698"]
    )
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "epsilon = 2.99" in out


def test_privacy_tight_conversion(capsys):
    argv = ["privacy", "--q", "0.00853", "--sigma", "1.23", "--delta", "1e-5", "--tau", "4698"]
    assert cli.main(argv + ["--tight"]) == cli.EXIT_OK
    state = accountant.AccountantState(q=0.00853, sigma=1.23, delta=1e-5, tau=4698)
    tight = accountant.spend(state, tight_conversion=True)
    assert tight.epsilon < accountant.spend(state).epsilon
    out = capsys.readouterr().out
    assert out.startswith(f"epsilon = {tight.epsilon:.6f} at alpha = {tight.best_alpha} ")


def test_privacy_rejects_bad_parameters(capsys):
    code = cli.main(
        ["privacy", "--q", "2.0", "--sigma", "1.0", "--delta", "1e-5", "--tau", "1"]
    )
    assert code == cli.EXIT_INVALID_CONFIG
