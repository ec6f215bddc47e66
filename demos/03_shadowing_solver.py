"""Shadowing a noisy pseudo-orbit: certificates, traces, and growing
defect allowances.
"""

import numpy as np

import dataclasses

from shadowrds import Window, get_scenario, shadow_constant, solve
from shadowrds.checks import noisy_pseudo_orbit

sc = get_scenario("uniform-diag")
print(f"scenario {sc.name}: rate log 2, budget c = "
      f"{sc.perturbation.lipschitz_budget}")
L, q = shadow_constant(sc.dichotomy.rate, sc.epsilon,
                       sc.perturbation.lipschitz_budget)
print(f"closed-form constants: contraction q = {q:.3f}, shadow bound L = {L:.4f}")

# --- constant allowance -------------------------------------------------------

window = Window.symmetric(12)
pseudo, weights = noisy_pseudo_orbit(sc, window, np.random.default_rng(3), noise=0.8)
prob = sc.problem(pseudo, weights)
res = solve(prob, tol=1e-10)
print(f"\nconstant weights: converged in {res.iterations} iterations,"
      f" final step {res.final_step_norm:.2e}")
print("iteration trace (k, step, |z|):")
for r in res.trace:
    print(f"  {r.iteration:2d}  {r.step_norm:.3e}  {r.correction_norm:.3e}")
err_over_delta = max(
    np.linalg.norm(res.orbit.value_at(n) - pseudo.value_at(n)) / weights.value_at(n)
    for n in window.indices()
)
print(f"max |x_n - y_n| / delta(n) = {err_over_delta:.4f} <= L = {L:.4f}:",
      res.shadow_ok)
print(f"interior orbit residual {res.max_orbit_residual:.2e},"
      f" invariant ball held: {res.ball_ok}")

# --- exponentially growing allowance -----------------------------------------

eps = sc.dichotomy.rate / 2.0
window = Window.symmetric(32)
expo = dataclasses.replace(sc, weight_kind="exponential", epsilon=eps)
pseudo, weights = noisy_pseudo_orbit(expo, window, np.random.default_rng(4), noise=0.6)
prob = expo.problem(pseudo, weights)
L2, q2 = prob.constants
res = solve(prob, tol=1e-9, max_iter=400)
print(f"\nexponential weights on [-32, 32] (defects grow like e^{{0.35|n|}}):")
print(f"  q = {q2:.3f}, L = {L2:.2f}, iterations {res.iterations}")
print(f"  allowance at the edge delta(32) = {weights.value_at(32):.1f},"
      f" shadowing certificate: {res.shadow_ok}")
