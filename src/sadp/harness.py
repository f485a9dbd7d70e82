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
import numpy.random  # numpy 2 loads it lazily: import it with sadp, not in a run's setup

from . import accountant, annealer, data, dp_optimizer, models
from .errors import SadpError

EPS_SENTINEL_ITERS = 10_000_000


@dataclass(frozen=True)
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
    eval_set: str = "held_out"               # held_out only: a test split is never screened on
    eval_fraction: float = 0.1
    seed: int = 0
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
                raise SadpError(f"{f.name} must be finite, got {value!r}")
        if self.method not in ("dpsgd", "sa_dpsgd"):
            raise SadpError(f"unknown method {self.method!r}")
        if self.eval_set == "test":
            raise SadpError("eval_set = test is retired: a run screens on held-out training rows")
        if self.eval_set != "held_out":
            raise SadpError(f"unknown eval_set {self.eval_set!r}")
        if self.dataset not in ("idx", "csv", "synth_linear", "synth_blobs"):
            raise SadpError(f"unknown dataset {self.dataset!r}")
        needed = {"idx": ["idx_train_images", "idx_train_labels"], "csv": ["csv_path"]}
        if self.idx_test_images or self.idx_test_labels:
            needed["idx"] += ["idx_test_images", "idx_test_labels"]   # both files or neither
        for key in needed.get(self.dataset, []):
            if not getattr(self, key):
                raise SadpError(f"dataset = {self.dataset} needs {key}, which is not set")
        if self.eta <= 0:
            raise SadpError("eta must be > 0")
        for name in ("lot_size", "max_iters", "synth_n", "blob_classes", "blob_dim"):
            if getattr(self, name) < 1:
                raise SadpError(f"{name} must be >= 1")
        if self.synth_noise_std < 0:
            raise SadpError("synth_noise_std must be >= 0")
        if self.seed < 0 or self.synth_seed < 0:
            raise SadpError("seed and synth_seed must be >= 0")
        if not 0.0 < self.eval_fraction < 1.0:
            raise SadpError("eval_fraction must be in (0, 1)")
        if self.q0 <= 0:
            raise SadpError("q0 must be > 0")
        if self.mu0 < 1:
            raise SadpError("mu0 must be >= 1")
        # the types a run builds hold their own rules: each raises SadpError
        # on a bad value
        models.ModelSpec(self.model, 1, 1, tuple(self.layer_widths), self.activation)
        # only synth_linear has float targets; the readers and synth_blobs give classes
        if self.dataset == "synth_linear" and self.model != models.LINEAR_REGRESSION:
            raise SadpError("regression targets require model=linear_regression")
        dp_optimizer.ClipPolicy(self.clip_kind, self.clip_norm, self.gamma)
        accountant.AccountantState(1.0, self.sigma, self.delta, self.tight_conversion)
        # the noise scale sigma * C, positive factors whose product can underflow
        if not self.sigma * self.clip_norm > 0:
            raise SadpError(f"sigma * clip_norm = {self.sigma * self.clip_norm!r} must be > 0")


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
            raise ValueError(f"not a boolean: {text!r}")
        return text.lower() == "true"
    return hint(text)


def parse_config_text(text: str) -> TrainConfig:
    """The config in `key = value` lines; a repeated key takes its last
    value, and every line must parse."""
    hints = typing.get_type_hints(TrainConfig)
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SadpError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in hints:
            raise SadpError(f"line {lineno}: unknown key {key!r}")
        try:
            kwargs[key] = _parse_value(hints[key], value)
        except ValueError as exc:
            raise SadpError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return TrainConfig(**kwargs)


def load_config(path) -> TrainConfig:
    """The config in a UTF-8 text file; any other bytes raise SadpError naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SadpError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_config_text(text)


class IterationRecord(typing.NamedTuple):
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


TRACE_COLUMNS = list(IterationRecord._fields)


def _prepare(config: TrainConfig):
    """Read, carve and check one run's data: returns (dataset as read, its
    training rows, ModelSpec, energy-evaluation Batch, test split,
    AccountantState, charged-step cap or None). The training rows index the
    dataset, so IDX pixels stay mapped bytes; the evaluation rows live on only
    as the Batch, float32 exactly for IDX pixels, else float64. The test split
    is the IDX test pair as read, the CSV rows carved off first, the
    generator's next seed, or None. This is the one gate for what the data
    decides, and nothing it checks depends on the seed: split sizes, lot_size
    against the training rows, feature widths, labels (one class per label of
    any training-data row, so a negative label or a test-split label at or
    above that count fails) and the budget (BudgetInfeasibleError)."""
    test = None
    if config.dataset == "csv":
        dataset = data.load_csv(config.csv_path)
        train_rows, test_rows = data.split(dataset.n, config.eval_fraction, config.seed)
        test = data.LabeledDataset(dataset.features[test_rows], dataset.labels[test_rows])
    else:
        if config.dataset == "idx":
            dataset = data.read_idx(config.idx_train_images, config.idx_train_labels)
            if config.idx_test_images:
                test = data.read_idx(config.idx_test_images, config.idx_test_labels)
                if test.dim != dataset.dim:
                    raise SadpError(
                        f"idx_test_images {config.idx_test_images} has {test.dim} features "
                        f"per row, the training images {dataset.dim}"
                    )
                if test.n == 0:
                    raise SadpError(f"empty test split: {config.idx_test_images} has no rows")
        else:
            # one generator draws the training set and, from the next seed,
            # a fifth as many test rows
            def generate(n, seed):
                if config.dataset == "synth_linear":
                    return data.synth_linear(
                        n, np.asarray(config.synth_weights), config.synth_noise_std, seed
                    )
                return data.synth_blobs(n, config.blob_classes, config.blob_dim, seed)

            dataset = generate(config.synth_n, config.synth_seed)
            test = generate(max(config.synth_n // 5, 1), config.synth_seed + 1)
        train_rows = np.arange(dataset.n)
    keep, held = data.split(len(train_rows), config.eval_fraction, config.seed)
    train_rows, eval_rows = train_rows[keep], train_rows[held]
    if len(train_rows) == 0 or len(eval_rows) == 0:
        raise SadpError(
            f"empty split: {len(train_rows)} training and {len(eval_rows)} evaluation rows"
        )
    if config.lot_size > len(train_rows):
        raise SadpError(f"lot_size {config.lot_size} exceeds the {len(train_rows)} training rows")
    if dataset.dim < 1:
        raise SadpError("the dataset has no feature columns")
    regression = config.model == models.LINEAR_REGRESSION
    classes = 1 if regression else int(dataset.labels.max()) + 1
    for labels in () if regression else (dataset.labels, None if test is None else test.labels):
        if labels is not None and np.any((labels < 0) | (labels >= classes)):
            raise SadpError(
                f"class labels must lie in [0, {max(classes, 0)}), the training data's range"
            )
    spec = models.ModelSpec(
        config.model, dataset.dim, classes,
        layer_widths=tuple(config.layer_widths), activation=config.activation,
    )
    q, budget = config.lot_size / len(train_rows), config.eps_budget
    acct = accountant.AccountantState(q, config.sigma, config.delta, config.tight_conversion)
    max_charged = None if budget is None else accountant.max_steps_within(acct, budget)
    dtype = np.float32 if config.dataset == "idx" else np.float64
    return dataset, train_rows, spec, models.to_batch(
        spec, dataset.features[eval_rows], dataset.labels[eval_rows], dtype
    ), test, acct, max_charged


def train(config: TrainConfig):
    """Run one experiment; returns (final w, PrivacySpend, records, test).

    Only applied updates are charged, tau of them; the spend's
    epsilon_computed composes all t computed candidates. With
    method=sa_dpsgd, every candidate passes the annealed acceptance test on
    held-out training rows; with method=dpsgd every candidate is applied, so
    tau = t. test is the final w's (loss, accuracy) on the test split, scored
    once after the last candidate in float64 (accuracy None for regression),
    or None for a run without a test split. Every check that can stop the
    run, the budget's included, runs in _prepare, before the first candidate.
    """
    dataset, train_rows, spec, eval_batch, test, acct, max_charged = _prepare(config)

    seeds = np.random.SeedSequence(config.seed).spawn(4)
    init_rng, sample_rng, noise_rng, decide_rng = (
        np.random.default_rng(s) for s in seeds
    )

    w = models.init_params(spec, init_rng)
    clip_policy = dp_optimizer.ClipPolicy(config.clip_kind, config.clip_norm, config.gamma)
    noise_std = config.sigma * config.clip_norm

    energy, cur_acc = models.evaluate(spec, w, eval_batch)
    _check_energy(energy, "at the initial parameters")

    # the acceptance chain: t candidates, tau accepted, mu rejected in a
    # row; the temperature Q is q0 before the first candidate, q0 * tau after
    t, tau, mu, Q = 0, 0, 0, config.q0
    records: list[IterationRecord] = []
    eps_tau, epsilon = None, math.nan   # epsilon_so_far changes only with tau
    while t < config.max_iters and (max_charged is None or tau < max_charged):
        t += 1
        rows = train_rows[data.poisson_sample(len(train_rows), acct.q, sample_rng)]
        lot = models.to_batch(spec, dataset.features[rows], dataset.labels[rows])
        clipped_sum = models.clipped_grad_sum(spec, w, lot, clip_policy.scale)
        g_tilde = dp_optimizer.noisy_average(clipped_sum, noise_std, config.lot_size, noise_rng)
        # overflow surfaces as non-finite parameters (evaluate raises) or a
        # non-finite energy (rejected, or raised below once applied)
        w_new = dp_optimizer.sgd_step(w, g_tilde, config.eta)
        new_energy, new_acc = models.evaluate(spec, w_new, eval_batch)
        delta_e = new_energy - energy

        if config.method == "sa_dpsgd":
            accepted, forced, P = annealer.decide(delta_e, Q, mu, config.mu0, decide_rng)
        else:
            accepted, forced, P = True, False, 1.0
        if accepted:
            _check_energy(new_energy, f"at applied candidate {t}")
            w, energy, cur_acc = w_new, new_energy, new_acc
            tau, mu = tau + 1, 0
        else:
            mu += 1
        Q = config.q0 * tau
        if tau != eps_tau:
            eps_tau, epsilon = tau, acct.epsilon(tau)
        records.append(IterationRecord(
            t=t, tau=tau, mu=mu, Q=Q, delta_E=delta_e, P=P, accepted=accepted, forced=forced,
            eval_loss=energy, eval_accuracy=math.nan if cur_acc is None else cur_acc,
            epsilon_so_far=epsilon,
        ))

    spend = accountant.spend(acct, tau, computed=t)
    if test is not None:
        test = models.evaluate(spec, w, models.to_batch(spec, test.features, test.labels))
    return w, spend, records, test


def _check_energy(energy: float, where: str) -> None:
    if not math.isfinite(energy):
        raise SadpError(f"the run diverged: non-finite energy {energy} {where}")


# the one text form of a trace or summary value, by its type; float() writes
# a numpy scalar that reached a float field as a plain number
_FORMATTERS = {bool: lambda v: "true" if v else "false", float: lambda v: repr(float(v)),
               int: str, str: str}
_TRACE_FORMATTERS = [_FORMATTERS[hint] for hint in typing.get_type_hints(IterationRecord).values()]


def emit_trace(records, path) -> None:
    """One CSV row per iteration, columns in IterationRecord order; its bytes
    repeat per (config, seed, numpy build, OpenBLAS kernel, thread count), and
    across those scripts/trace_diff.py's contract holds (see README)."""
    lines = [",".join(TRACE_COLUMNS)]
    for r in records:
        lines.append(",".join(f(v) for f, v in zip(_TRACE_FORMATTERS, r)))
    Path(path).write_text("\n".join(lines) + "\n")


def compare(configs, seeds):
    """Run every config over every seed; summarize per config.

    Returns a list of dicts with mean/std of the final held-out accuracy and
    loss (the split the screen selects by), the final test accuracy and loss
    (NaN for runs without a test split), final epsilon over the tau charged
    steps and final epsilon over all t computed candidates. Every per-seed
    config is built, and each config's data and budget checked once, before
    the first run: whether a run can start never depends on its seed.
    """
    if not configs or not seeds:
        raise SadpError("need at least one config and one seed")
    runs = [[dataclasses.replace(config, seed=int(seed)) for seed in seeds] for config in configs]
    for config in configs:
        _prepare(config)
    summaries = []
    names = ("accuracy", "loss", "test_loss", "test_accuracy", "epsilon", "epsilon_computed")
    for i, (config, per_seed) in enumerate(zip(configs, runs)):
        finals = []   # one tuple of these per seed
        for run in per_seed:
            _, spend_, records, test = train(run)
            final = records[-1]
            finals.append((final.eval_accuracy, final.eval_loss, *(test or (None, None)),
                           spend_.epsilon, spend_.epsilon_computed))
        summary = {"config_index": i, "method": config.method, "n_runs": len(seeds)}
        for name, xs in zip(names, zip(*finals)):
            # NaN, and null in JSON, over no values (a regression run's
            # accuracy, a run without a test split)
            vals = [x for x in xs if x is not None and not math.isnan(x)]
            summary[f"mean_final_{name}"] = statistics.fmean(vals) if vals else math.nan
            summary[f"std_final_{name}"] = statistics.pstdev(vals) if vals else math.nan
        summaries.append(summary)
    return summaries


def emit_summary(summaries, csv_path, json_path) -> None:
    cols = list(summaries[0].keys())
    lines = [",".join(cols)]
    for s in summaries:
        lines.append(",".join(_FORMATTERS[type(s[c])](s[c]) for c in cols))
    Path(csv_path).write_text("\n".join(lines) + "\n")
    # strict JSON has no NaN or Infinity: write null, as for a mean over no values
    summaries = [
        {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in s.items()}
        for s in summaries
    ]
    Path(json_path).write_text(json.dumps(summaries, indent=1) + "\n")
