import pathlib

import pytest

from sadp import cli

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
    ],
    ids=["clip_kind", "activation", "eval_fraction", "auto_s_gamma", "model", "mlp_widths"],
)
def test_invalid_field_exits_2_without_traceback(tmp_path, capsys, base, override):
    # later keys win, so the override replaces the base value
    cfg = write_cfg(tmp_path, base + override + "\n")
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INVALID_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


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


def test_privacy_rejects_bad_parameters(capsys):
    code = cli.main(
        ["privacy", "--q", "2.0", "--sigma", "1.0", "--delta", "1e-5", "--tau", "1"]
    )
    assert code == cli.EXIT_INVALID_CONFIG
