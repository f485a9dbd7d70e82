"""Experiment orchestration: wires data, models, the privatized optimizer,
the annealer, and the accountant into full training runs.

Configs are flat "key = value" text files (# comments). Each run is fully
deterministic given (config, seed) and emits one trace row per iteration.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import accountant, annealer, data, dp_optimizer, models
from .errors import InvalidConfigError, NonFiniteParametersError

EPS_SENTINEL_ITERS = 10_000_000


@dataclass
class TrainConfig:
    method: str = "sa_dpsgd"                 # sa_dpsgd | dpsgd
    model: str = models.SOFTMAX_REGRESSION
    activation: str = models.BOUNDED_TANH
    layer_widths: tuple[int, ...] = ()
    clip_kind: str = "abadi"
    clip_norm: float = 0.1
    gamma: float = 0.01
    eta: float = 0.5
    lot_size: int = 512
    sigma: float = 1.23
    max_iters: int = EPS_SENTINEL_ITERS
    q0: float = 10.0
    mu0: int = 10
    delta: float = 1e-5
    eps_budget: float | None = 3.0
    eval_set: str = "held_out"               # held_out | test
    eval_fraction: float = 0.1
    seed: int = 0
    clamp_tau_floor: bool = False
    tight_conversion: bool = False
    dataset: str = "synth_blobs"             # idx | csv | synth_linear | synth_blobs
    idx_train_images: str = ""
    idx_train_labels: str = ""
    idx_test_images: str = ""
    idx_test_labels: str = ""
    csv_path: str = ""
    synth_n: int = 1000
    synth_weights: tuple[float, ...] = (2.0, -3.0)
    synth_noise_std: float = 0.1
    synth_seed: int = 0
    blob_classes: int = 10
    blob_dim: int = 784

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if any(
                isinstance(v, float) and not math.isfinite(v)
                for v in (value if isinstance(value, tuple) else (value,))
            ):
                raise InvalidConfigError(f"{f.name} must be finite, got {value!r}")
        if self.method not in ("dpsgd", "sa_dpsgd"):
            raise InvalidConfigError(f"unknown method {self.method!r}")
        if self.eval_set not in ("held_out", "test"):
            raise InvalidConfigError(f"unknown eval_set {self.eval_set!r}")
        if self.dataset not in ("idx", "csv", "synth_linear", "synth_blobs"):
            raise InvalidConfigError(f"unknown dataset {self.dataset!r}")
        for name in ("clip_norm", "eta", "sigma", "q0", "delta"):
            if getattr(self, name) <= 0:
                raise InvalidConfigError(f"{name} must be > 0")
        for name in ("lot_size", "mu0", "max_iters", "synth_n", "blob_classes", "blob_dim"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1")
        if self.seed < 0 or self.synth_seed < 0:
            raise InvalidConfigError("seed and synth_seed must be >= 0")
        if not 0.0 < self.eval_fraction < 1.0:
            raise InvalidConfigError("eval_fraction must be in (0, 1)")
        try:
            models.ModelSpec(self.model, 1, 1, tuple(self.layer_widths), self.activation)
            dp_optimizer.ClipPolicy(self.clip_kind, self.clip_norm, self.gamma)
        except ValueError as exc:
            raise InvalidConfigError(str(exc)) from exc


def _parse_value(hint, text: str):
    """One config value of the annotated type; only `T | None` takes none."""
    args = typing.get_args(hint)
    if type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        return None if text.lower() == "none" else _parse_value(inner, text)
    if typing.get_origin(hint) is tuple:
        return tuple(args[0](v) for v in text.split(",") if v.strip())
    if hint is bool:
        if text.lower() not in ("true", "false"):
            raise ValueError(text)
        return text.lower() == "true"
    return hint(text)


def parse_config_text(text: str) -> TrainConfig:
    hints = typing.get_type_hints(TrainConfig)
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in hints:
            raise InvalidConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            kwargs[key] = _parse_value(hints[key], value)
        except ValueError as exc:
            raise InvalidConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    try:
        return TrainConfig(**kwargs)
    except TypeError as exc:
        raise InvalidConfigError(str(exc)) from exc


def load_config(path) -> TrainConfig:
    return parse_config_text(Path(path).read_text())


@dataclass(frozen=True)
class IterationRecord:
    t: int
    tau: int
    mu: int
    Q: float
    delta_E: float
    P: float
    accepted: bool
    forced: bool
    eval_loss: float
    eval_accuracy: float          # NaN for regression
    epsilon_so_far: float


TRACE_COLUMNS = [f.name for f in dataclasses.fields(IterationRecord)]


def _load_splits(config: TrainConfig):
    """Returns (train set, energy-evaluation set, test set)."""
    if config.dataset == "idx":
        # pixel bytes: split first, then each split is widened once below
        train = data.read_idx(config.idx_train_images, config.idx_train_labels)
        test = (
            data.load_idx(config.idx_test_images, config.idx_test_labels)
            if config.idx_test_images
            else None
        )
    elif config.dataset == "csv":
        full = data.load_csv(config.csv_path)
        train, test = data.split(full, config.eval_fraction, config.seed)
    elif config.dataset == "synth_linear":
        train = data.synth_linear(
            config.synth_n, np.asarray(config.synth_weights),
            config.synth_noise_std, config.synth_seed,
        )
        test = data.synth_linear(
            max(config.synth_n // 5, 1), np.asarray(config.synth_weights),
            config.synth_noise_std, config.synth_seed + 1,
        )
    else:
        train = data.synth_blobs(
            config.synth_n, config.blob_classes, config.blob_dim, config.synth_seed
        )
        test = data.synth_blobs(
            max(config.synth_n // 5, 1), config.blob_classes, config.blob_dim,
            config.synth_seed + 1,
        )
    if config.eval_set == "test":
        if test is None:
            raise InvalidConfigError("eval_set=test requires a test dataset")
        eval_set = test
    else:
        train, eval_set = data.split(train, config.eval_fraction, config.seed)
    train, eval_set = data.widen(train), data.widen(eval_set)
    if train.n == 0 or eval_set.n == 0:
        raise InvalidConfigError(
            f"empty split: {train.n} training and {eval_set.n} evaluation rows"
        )
    return train, eval_set, test


def _model_spec(config: TrainConfig, train: data.LabeledDataset, *others) -> models.ModelSpec:
    """The model for the train set; every set's class labels (None skipped)
    must index its outputs, [0, train class count)."""
    regression = not np.issubdtype(train.labels.dtype, np.integer)
    if config.model == models.LINEAR_REGRESSION or regression:
        if config.model != models.LINEAR_REGRESSION:
            raise InvalidConfigError("regression targets require model=linear_regression")
        return models.ModelSpec(models.LINEAR_REGRESSION, train.dim, 1)
    spec = models.ModelSpec(
        config.model, train.dim, train.n_classes,
        layer_widths=tuple(config.layer_widths), activation=config.activation,
    )
    for ds in (train, *others):
        if ds is not None and np.any((ds.labels < 0) | (ds.labels >= spec.output_dim)):
            raise InvalidConfigError(
                f"class labels must lie in [0, {spec.output_dim}), the training set's range"
            )
    return spec


def train(config: TrainConfig):
    """Run one experiment; returns (final w, PrivacySpend, records).

    Only applied updates are charged, tau of them. With method=sa_dpsgd,
    every candidate passes the annealed acceptance test; with method=dpsgd
    every candidate is applied, so tau = t.
    """
    train_set, eval_set, test_set = _load_splits(config)
    spec = _model_spec(config, train_set, eval_set, test_set)

    q = min(config.lot_size / train_set.n, 1.0)
    acct = accountant.AccountantState(q=q, sigma=config.sigma, delta=config.delta)
    max_charged = None
    if config.eps_budget is not None:
        max_charged = accountant.max_steps_within(
            acct, config.eps_budget, config.tight_conversion
        )

    seeds = np.random.SeedSequence(config.seed).spawn(4)
    init_rng, sample_rng, noise_rng, decide_rng = (
        np.random.default_rng(s) for s in seeds
    )

    w = models.init_params(spec, init_rng)
    clip_policy = dp_optimizer.ClipPolicy(config.clip_kind, config.clip_norm, config.gamma)
    noise_policy = dp_optimizer.NoisePolicy(config.sigma, config.lot_size)
    sampler = data.SamplerConfig(q=q)

    with np.errstate(over="ignore", invalid="ignore"):
        energy, cur_acc = models.evaluate(spec, w, eval_set.features, eval_set.labels)
    _check_energy(energy, "at the initial parameters")
    state = annealer.AnnealerState.initial(
        config.q0, config.mu0, energy=energy, clamp_tau_floor=config.clamp_tau_floor
    )

    records: list[IterationRecord] = []
    for _ in range(config.max_iters):
        if max_charged is not None and state.tau >= max_charged:
            break

        idx = data.poisson_sample(train_set.n, sampler, sample_rng)
        clipped_sum = dp_optimizer.clipped_grad_sum(
            spec, w, train_set.features[idx], train_set.labels[idx], clip_policy
        )
        g_tilde = dp_optimizer.noisy_average(
            clipped_sum, noise_policy, config.clip_norm, noise_rng
        )
        # overflow surfaces as non-finite parameters (evaluate raises) or a
        # non-finite energy (rejected, or raised below once applied)
        with np.errstate(over="ignore", invalid="ignore"):
            w_new = dp_optimizer.sgd_step(w, g_tilde, config.eta)
            new_energy, new_acc = models.evaluate(
                spec, w_new, eval_set.features, eval_set.labels
            )
        delta_e = new_energy - state.energy

        if config.method == "sa_dpsgd":
            decision = annealer.decide(delta_e, state, decide_rng)
        else:
            decision = annealer.Decision(accepted=True, forced=False, probability=1.0)
        if decision.accepted:
            _check_energy(new_energy, f"at applied candidate {state.t + 1}")
            w = w_new
            cur_acc = new_acc
        state = annealer.advance(state, decision, new_energy)
        records.append(
            IterationRecord(
                t=state.t,
                tau=state.tau,
                mu=state.mu,
                Q=state.Q,
                delta_E=delta_e,
                P=decision.probability,
                accepted=decision.accepted,
                forced=decision.forced,
                eval_loss=state.energy,
                eval_accuracy=math.nan if cur_acc is None else cur_acc,
                epsilon_so_far=acct.epsilon(state.tau, config.tight_conversion),
            )
        )

    final_spend = accountant.spend(acct.with_tau(state.tau), config.tight_conversion)
    return w, final_spend, records


def _check_energy(energy: float, where: str) -> None:
    if not math.isfinite(energy):
        raise NonFiniteParametersError(f"the run diverged: non-finite energy {energy} {where}")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_trace(records, path) -> None:
    """One CSV row per iteration, columns in IterationRecord order."""
    lines = [",".join(TRACE_COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, c)) for c in TRACE_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path) -> list[IterationRecord]:
    """Inverse of emit_trace; each value is parsed by its field's type, as
    config values are, so a malformed number or boolean raises ValueError."""
    lines = Path(path).read_text().splitlines()
    if lines[0].split(",") != TRACE_COLUMNS:
        raise ValueError(f"{path}: unexpected trace header")
    hints = typing.get_type_hints(IterationRecord)
    records = []
    for line in lines[1:]:
        values = zip(TRACE_COLUMNS, line.split(","), strict=True)
        records.append(IterationRecord(**{c: _parse_value(hints[c], v) for c, v in values}))
    return records


def compare(configs, seeds):
    """Run every config over every seed; summarize per config.

    Returns a list of dicts with mean/std of final accuracy, final loss and
    final epsilon.
    """
    if not configs or not seeds:
        raise InvalidConfigError("need at least one config and one seed")
    summaries = []
    for i, config in enumerate(configs):
        accs, losses, epsilons = [], [], []
        for seed in seeds:
            run_cfg = dataclasses.replace(config, seed=int(seed))
            _, spend_, records = train(run_cfg)
            final = records[-1]
            accs.append(final.eval_accuracy)
            losses.append(final.eval_loss)
            epsilons.append(spend_.epsilon)
        summaries.append({
            "config_index": i,
            "method": config.method,
            "n_runs": len(seeds),
            "mean_final_accuracy": _nanmean(accs),
            "std_final_accuracy": _nanstd(accs),
            "mean_final_loss": _nanmean(losses),
            "std_final_loss": _nanstd(losses),
            "mean_final_epsilon": _nanmean(epsilons),
            "std_final_epsilon": _nanstd(epsilons),
        })
    return summaries


def _nanmean(xs):
    vals = [x for x in xs if not math.isnan(x)]
    return statistics.fmean(vals) if vals else math.nan


def _nanstd(xs):
    vals = [x for x in xs if not math.isnan(x)]
    return statistics.pstdev(vals) if len(vals) > 1 else 0.0


def emit_summary(summaries, csv_path, json_path) -> None:
    cols = list(summaries[0].keys())
    lines = [",".join(cols)]
    for s in summaries:
        lines.append(",".join(_fmt(s[c]) for c in cols))
    Path(csv_path).write_text("\n".join(lines) + "\n")
    Path(json_path).write_text(json.dumps(summaries, indent=1) + "\n")
