"""Walk through the Renyi-DP accountant for the sampled Gaussian mechanism.

Shows the per-step Renyi divergence curve, linear composition over charged
iterations, conversion to (epsilon, delta)-DP, and inverting a privacy budget
into a maximum iteration count.

Run: python demos/01_privacy_accounting.py
"""

from sadp.accountant import (
    DEFAULT_ALPHA_GRID,
    AccountantState,
    max_steps_within,
    spend,
)

# The classic image-classification setting: lots of 512 examples drawn from a
# training set of 60,000, noise multiplier 1.23, delta = 1e-5.
q, sigma, delta = 512 / 60000, 1.23, 1e-5

state = AccountantState(q=q, sigma=sigma, delta=delta)
print("Per-step Renyi divergence at a few orders alpha:")
for alpha in (2, 8, 16, 32, 64):
    print(f"  alpha = {alpha:2d}: eps_RDP = {state.rdp[alpha - 2]:.6e}")

print("\nPrivacy spend grows with the number of charged iterations tau:")
for tau in (100, 1000, 4698, 4699):
    result = spend(state, tau)
    print(
        f"  tau = {tau:5d}: epsilon = {result.epsilon:.6f}"
        f" (best alpha = {result.best_alpha})"
    )

budget = 3.0
tau_star = max_steps_within(state, budget)
print(f"\nLargest tau that stays within epsilon <= {budget}: {tau_star}")

# Sanity check against the analytic q = 1 limit: eps_RDP -> alpha / (2 sigma^2).
print("\nFull-batch (q = 1) limit check:")
full_batch = AccountantState(q=1.0, sigma=sigma, delta=delta)
for alpha in (DEFAULT_ALPHA_GRID[0], DEFAULT_ALPHA_GRID[-1]):
    exact = alpha / (2 * sigma**2)
    print(f"  alpha = {alpha:2d}: {full_batch.rdp[alpha - 2]:.12f} vs {exact:.12f}")
