"""The windowed Green operator: impulse responses, the dense oracle, and the
norm bound (1 + e^-eps) / (1 - e^-eps).
"""

import math

import numpy as np

from shadowrds import (
    Window,
    WindowSequence,
    dense_green_solve,
    get_scenario,
    green_apply,
    green_norm_bound_check,
    green_residual,
    make_weight,
)

# --- scalar impulse response ------------------------------------------------

sc = get_scenario("remark-scalar")
window = Window(-4, 4)
impulse = np.zeros((window.length, 1))
impulse[window.offset(0)] = 1.0
z = WindowSequence(window, impulse)
orbit = sc.orbit()
w = green_apply(orbit, z)
print("scalar impulse response (geometric forward tail):")
for n in window.indices():
    print(f"  n = {n:+d}: {w.value_at(n)[0]: .6f}")

rep = green_residual(orbit, z, w)
print(f"interior residual max {rep.max_norm:.2e}, left-edge gap {rep.left_edge_gap:.2e}")

# --- dense boundary-value oracle -------------------------------------------

sc2 = get_scenario("uniform-rot-coupled")
window = Window.symmetric(12)
rng = np.random.default_rng(1)
z = WindowSequence(window, rng.standard_normal((window.length, 2)))
orbit2 = sc2.orbit()
series = green_apply(orbit2, z)
dense = dense_green_solve(orbit2, z)
print(f"series vs dense boundary-value solve: relative gap "
      f"{(series - dense).sup_norm() / series.sup_norm():.2e}")

# --- weighted-norm bound -----------------------------------------------------

eps = sc2.epsilon
bound = (1 + math.exp(-eps)) / (1 - math.exp(-eps))
weights = make_weight("exponential", window, rate=sc2.dichotomy.rate - eps)
check = green_norm_bound_check(orbit2, weights, eps, trials=60, rng=np.random.default_rng(2))
print(f"norm bound at eps = {eps:.3f}: theoretical {bound:.4f}, "
      f"worst observed {check.max_ratio:.4f} over {check.trials} inputs")
print(f"at eps = log 2 the bound evaluates to "
      f"{(1 + 0.5) / (1 - 0.5):.1f} exactly")
