"""Train with and without annealed screening on a synthetic regression task,
then compare the two methods over several seeds.

The screened variant (sa_dpsgd) only charges privacy budget for accepted
updates; the plain variant (dpsgd) applies and charges every update.

Run: python demos/03_train_and_compare.py
"""

import dataclasses

from sadp.harness import TrainConfig, compare, train

base = TrainConfig(
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
)

# No budget, so every run computes max_iters candidates.
configs = [dataclasses.replace(base, method=method) for method in ("sa_dpsgd", "dpsgd")]
for s in compare(configs, seeds=range(5)):
    print(
        f"{s['method']:8s}: mean final eval loss {s['mean_final_loss']:.6f}"
        f" over {s['n_runs']} seeds ({base.max_iters} iterations each)"
    )

# Peek at the first few rows of a trace.
cfg = dataclasses.replace(base, seed=0)
_, _, records, _ = train(cfg)
print("\nFirst five iterations of one sa_dpsgd run:")
print("t  tau  accepted  delta_E    eval_loss")
for r in records[:5]:
    print(f"{r.t:<2d} {r.tau:<4d} {str(r.accepted):<9s} {r.delta_E:+.5f}  {r.eval_loss:.5f}")
