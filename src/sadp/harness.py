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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import accountant, annealer, data, dp_optimizer, models

EPS_SENTINEL_ITERS = 10_000_000


class InvalidConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    method: str = "sa_dpsgd"                 # sa_dpsgd | dpsgd
    model: str = models.SOFTMAX_REGRESSION
    activation: str = models.BOUNDED_TANH
    layer_widths: tuple = ()
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
    train_limit: int = 0                     # 0 = use everything
    synth_n: int = 1000
    synth_weights: tuple = (2.0, -3.0)
    synth_noise_std: float = 0.1
    synth_seed: int = 0
    blob_classes: int = 10
    blob_dim: int = 784

    def __post_init__(self):
        if self.method not in ("dpsgd", "sa_dpsgd"):
            raise InvalidConfigError(f"unknown method {self.method!r}")
        if self.eval_set not in ("held_out", "test"):
            raise InvalidConfigError(f"unknown eval_set {self.eval_set!r}")
        if self.dataset not in ("idx", "csv", "synth_linear", "synth_blobs"):
            raise InvalidConfigError(f"unknown dataset {self.dataset!r}")
        for name in ("clip_norm", "eta", "sigma", "q0", "delta"):
            if getattr(self, name) <= 0:
                raise InvalidConfigError(f"{name} must be > 0")
        if self.lot_size < 1 or self.mu0 < 1 or self.max_iters < 1:
            raise InvalidConfigError("lot_size, mu0 and max_iters must be >= 1")
        if not 0.0 < self.eval_fraction < 1.0:
            raise InvalidConfigError("eval_fraction must be in (0, 1)")
        try:
            models.ModelSpec(self.model, 1, 1, tuple(self.layer_widths), self.activation)
            dp_optimizer.ClipPolicy(self.clip_kind, self.clip_norm, self.gamma)
        except ValueError as exc:
            raise InvalidConfigError(str(exc)) from exc


_BOOL_FIELDS = {"clamp_tau_floor", "tight_conversion"}
_INT_FIELDS = {
    "lot_size", "max_iters", "mu0", "seed", "train_limit",
    "synth_n", "synth_seed", "blob_classes", "blob_dim",
}
_FLOAT_FIELDS = {
    "clip_norm", "gamma", "eta", "sigma", "q0", "delta",
    "eps_budget", "eval_fraction", "synth_noise_std",
}
_TUPLE_FIELDS = {"layer_widths": int, "synth_weights": float}


def parse_config_text(text: str) -> TrainConfig:
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise InvalidConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in _BOOL_FIELDS:
                if value.lower() not in ("true", "false"):
                    raise ValueError(value)
                kwargs[key] = value.lower() == "true"
            elif key in _INT_FIELDS:
                kwargs[key] = int(value)
            elif key in _FLOAT_FIELDS:
                kwargs[key] = None if value.lower() == "none" else float(value)
            elif key in _TUPLE_FIELDS:
                conv = _TUPLE_FIELDS[key]
                kwargs[key] = tuple(conv(v) for v in value.split(",") if v.strip())
            else:
                kwargs[key] = value
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
        train = data.load_idx(config.idx_train_images, config.idx_train_labels)
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
    if config.train_limit and train.n > config.train_limit:
        train = data.LabeledDataset(
            train.features[: config.train_limit], train.labels[: config.train_limit]
        )
    if config.eval_set == "test":
        if test is None:
            raise InvalidConfigError("eval_set=test requires a test dataset")
        return train, test, test
    train, held_out = data.split(train, config.eval_fraction, config.seed)
    return train, held_out, test


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

    With method=sa_dpsgd, every candidate passes the annealed acceptance
    test and only accepted iterations are charged. With method=dpsgd every
    candidate is applied and every iteration is charged.
    """
    train_set, eval_set, test_set = _load_splits(config)
    spec = _model_spec(config, train_set, eval_set, test_set)

    q = min(config.lot_size / train_set.n, 1.0)
    acct = accountant.AccountantState(q=q, sigma=config.sigma, delta=config.delta)
    # per-order per-step costs are fixed; cache them so per-iteration spend
    # is a vector min rather than a full recomputation
    alphas = np.asarray(acct.alpha_grid, dtype=np.float64)
    per_step = np.asarray(
        [accountant.rdp_per_step(q, config.sigma, int(a)) for a in alphas]
    )
    if config.tight_conversion:
        tails = (
            np.log((alphas - 1) / alphas)
            - (math.log(config.delta) + np.log(alphas)) / (alphas - 1)
        )
    else:
        tails = math.log(1.0 / config.delta) / (alphas - 1)

    def eps_at(tau: int) -> float:
        eps = tau * per_step + tails
        if config.tight_conversion:
            eps = np.maximum(eps, 0.0)
        return float(eps.min())

    max_charged = None
    if config.eps_budget is not None:
        max_charged = accountant.max_steps_within(
            acct, config.eps_budget, config.tight_conversion
        )
        if max_charged == 0:
            raise accountant.BudgetInfeasibleError(
                f"budget {config.eps_budget} does not cover a single "
                f"charged iteration at q={acct.q:.6g}, sigma={acct.sigma}"
            )

    seeds = np.random.SeedSequence(config.seed).spawn(4)
    init_rng, sample_rng, noise_rng, decide_rng = (
        np.random.default_rng(s) for s in seeds
    )

    w = models.init_params(spec, init_rng)
    clip_policy = dp_optimizer.ClipPolicy(config.clip_kind, config.clip_norm, config.gamma)
    noise_policy = dp_optimizer.NoisePolicy(config.sigma, config.lot_size)
    sampler = data.SamplerConfig(q=q, seed=config.seed)

    energy, cur_acc = models.evaluate(spec, w, eval_set.features, eval_set.labels)
    state = annealer.AnnealerState.initial(
        config.q0, config.mu0, energy=energy, clamp_tau_floor=config.clamp_tau_floor
    )

    records: list[IterationRecord] = []
    for _ in range(config.max_iters):
        charged = state.tau if config.method == "sa_dpsgd" else state.t
        if max_charged is not None and charged >= max_charged:
            break

        idx = data.poisson_sample(train_set.n, sampler, sample_rng)
        clipped_sum = dp_optimizer.clipped_grad_sum(
            spec, w, train_set.features[idx], train_set.labels[idx], clip_policy
        )
        g_tilde = dp_optimizer.noisy_average(
            clipped_sum, noise_policy, config.clip_norm, noise_rng
        )
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
            w = w_new
            cur_acc = new_acc
        state = annealer.advance(state, decision, new_energy)

        charged = state.tau if config.method == "sa_dpsgd" else state.t
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
                epsilon_so_far=eps_at(charged),
            )
        )

    final_charged = state.tau if config.method == "sa_dpsgd" else state.t
    final_spend = accountant.spend(
        acct.with_tau(final_charged), config.tight_conversion
    )
    return w, final_spend, records


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_trace(records, path, json_mirror: bool = False) -> None:
    """One CSV row per iteration, columns in IterationRecord order."""
    lines = [",".join(TRACE_COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, c)) for c in TRACE_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")
    if json_mirror:
        Path(path).with_suffix(".json").write_text(
            json.dumps([dataclasses.asdict(r) for r in records], indent=1) + "\n"
        )


def read_trace(path) -> list[IterationRecord]:
    lines = Path(path).read_text().splitlines()
    if lines[0].split(",") != TRACE_COLUMNS:
        raise ValueError(f"{path}: unexpected trace header")
    records = []
    for line in lines[1:]:
        vals = dict(zip(TRACE_COLUMNS, line.split(",")))
        records.append(
            IterationRecord(
                t=int(vals["t"]), tau=int(vals["tau"]), mu=int(vals["mu"]),
                Q=float(vals["Q"]), delta_E=float(vals["delta_E"]),
                P=float(vals["P"]), accepted=vals["accepted"] == "true",
                forced=vals["forced"] == "true",
                eval_loss=float(vals["eval_loss"]),
                eval_accuracy=float(vals["eval_accuracy"]),
                epsilon_so_far=float(vals["epsilon_so_far"]),
            )
        )
    return records


def compare(configs, seeds, target_accuracy: float | None = None):
    """Run every config over every seed; summarize per config.

    Returns a list of dicts with mean/std of final accuracy, final loss,
    final epsilon, and (if a target is given) epsilon at the first
    iteration reaching the target accuracy.
    """
    if not configs or not seeds:
        raise ValueError("need at least one config and one seed")
    summaries = []
    for i, config in enumerate(configs):
        accs, losses, epsilons, eps_at_target = [], [], [], []
        for seed in seeds:
            run_cfg = dataclasses.replace(config, seed=int(seed))
            _, spend_, records = train(run_cfg)
            final = records[-1]
            accs.append(final.eval_accuracy)
            losses.append(final.eval_loss)
            epsilons.append(spend_.epsilon)
            if target_accuracy is not None:
                hit = next(
                    (r.epsilon_so_far for r in records
                     if not math.isnan(r.eval_accuracy)
                     and r.eval_accuracy >= target_accuracy),
                    math.nan,
                )
                eps_at_target.append(hit)
        summary = {
            "config_index": i,
            "method": config.method,
            "n_runs": len(seeds),
            "mean_final_accuracy": _nanmean(accs),
            "std_final_accuracy": _nanstd(accs),
            "mean_final_loss": _nanmean(losses),
            "std_final_loss": _nanstd(losses),
            "mean_final_epsilon": _nanmean(epsilons),
            "std_final_epsilon": _nanstd(epsilons),
        }
        if target_accuracy is not None:
            summary["mean_epsilon_at_target"] = _nanmean(eps_at_target)
            summary["std_epsilon_at_target"] = _nanstd(eps_at_target)
        summaries.append(summary)
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
