"""Demonstrate the annealed acceptance rule that screens candidate updates.

A candidate that lowers the evaluation loss is always kept. A candidate that
raises it by delta_E survives with probability exp(-delta_E * Q), where the
temperature Q = Q0 * tau stiffens as more updates are accepted. After mu0
consecutive rejections the next candidate is forced through so the chain
cannot stall.

Run: python demos/02_annealed_screening.py
"""

import numpy as np

from sadp.annealer import acceptance_probability, decide

rng = np.random.default_rng(0)
Q0, mu0 = 5.0, 4
tau, mu, Q = 0, 0, Q0   # accepted so far, rejections in a row, temperature

print("t   tau  mu  Q      delta_E   P        accepted forced")
for t in range(1, 26):
    delta_e = float(rng.normal(scale=0.05))
    accepted, forced, p = decide(delta_e, Q, mu, mu0, rng)
    tau, mu = (tau + 1, 0) if accepted else (tau, mu + 1)
    Q = Q0 * tau
    print(
        f"{t:<3d} {tau:<4d} {mu:<3d} {Q:<6.1f}"
        f" {delta_e:+.4f}  {p:.5f}  {str(accepted):<8s} {forced}"
    )

print("\nAcceptance probability for a worsening move shrinks as tau grows:")
for tau in (1, 5, 20, 100):
    p = acceptance_probability(0.05, 5.0 * tau)
    print(f"  tau = {tau:3d}: P(accept delta_E=0.05) = {p:.5f}")
