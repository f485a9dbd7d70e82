"""Command-line front end.

Subcommands:
  train    --config <path> [--seed N] [--out <dir>]
  compare  --configs <paths...> --seeds <list> [--out <dir>]
  privacy  --q Q --sigma S --delta D --tau N [--tight]

Every training setting lives in the config; only --seed overrides it.

Exit codes: 0 success; otherwise the `exit_code` of the error's class in
`sadp.errors`, the only place a code is written: 2 `SadpError` (invalid
config or parameters, a diverged run), 3 `BudgetInfeasibleError`, 4
`DataFileError` (malformed data file), which any other I/O error shares.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import accountant, harness, models
from .errors import DataFileError, SadpError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sadp")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=".")

    p_cmp = sub.add_parser("compare", help="run several configs over seeds")
    p_cmp.add_argument("--configs", nargs="+", required=True)
    p_cmp.add_argument("--seeds", required=True, help="comma-separated seed list")
    p_cmp.add_argument("--out", default=".")

    p_priv = sub.add_parser("privacy", help="epsilon for a given charged step count")
    p_priv.add_argument("--q", type=float, required=True)
    p_priv.add_argument("--sigma", type=float, required=True)
    p_priv.add_argument("--delta", type=float, required=True)
    p_priv.add_argument("--tau", type=int, required=True)
    p_priv.add_argument("--tight", action="store_true")
    return parser


def _cmd_train(args) -> int:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    # made before training, so an unusable --out costs no run
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    w, spend, records, test = harness.train(config)
    harness.emit_trace(records, out / "trace.csv")
    models.save_checkpoint(out / "final.params", w)
    print(
        f"{config.method}: {len(records)} iterations, "
        f"final loss {records[-1].eval_loss:.6f}, "
        f"epsilon {spend.epsilon:.4f} (alpha={spend.best_alpha}, "
        f"delta={spend.delta}) over tau={records[-1].tau} charged, "
        f"{spend.epsilon_computed:.4f} over all t={len(records)} computed"
    )
    print("test: none, the run has no test split" if test is None else f"test: loss {test[0]:.6f}"
          + ("" if test[1] is None else f", accuracy {test[1]:.4f}"))
    return 0


def _cmd_compare(args) -> int:
    configs = [harness.load_config(p) for p in args.configs]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise SadpError(f"--seeds must list integers, got {args.seeds!r}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summaries = harness.compare(configs, seeds)
    harness.emit_summary(summaries, out / "summary.csv", out / "summary.json")
    for s in summaries:
        print(
            f"[{s['config_index']}] {s['method']}: "
            f"held-out acc {s['mean_final_accuracy']:.4f} +/- {s['std_final_accuracy']:.4f}, "
            f"test acc {s['mean_final_test_accuracy']:.4f} +/- {s['std_final_test_accuracy']:.4f}, "
            f"eps {s['mean_final_epsilon']:.4f}, "
            f"eps(t) {s['mean_final_epsilon_computed']:.4f}"
        )
    return 0


def _cmd_privacy(args) -> int:
    state = accountant.AccountantState(args.q, args.sigma, args.delta, args.tight)
    spend = accountant.spend(state, args.tau)
    print(
        f"epsilon = {spend.epsilon:.6f} at alpha = {spend.best_alpha} "
        f"(q={args.q}, sigma={args.sigma}, delta={args.delta}, tau={args.tau})"
    )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_privacy(args)
    except (SadpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, SadpError) else DataFileError.exit_code


if __name__ == "__main__":
    sys.exit(main())
