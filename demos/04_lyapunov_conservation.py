"""Lyapunov exponents under perturbation: conservation both ways, the
special point, and the sharpness of the forward-or-backward alternative.
"""

import math

import numpy as np

from shadowrds import (
    Window,
    WindowSequence,
    find_special_point,
    get_scenario,
    linear_exponents_qr,
    nonlinear_exponent,
)
from shadowrds.lyapunov import conservation_experiment

# --- linear exponents by repeated QR -----------------------------------------

sc = get_scenario("uniform-diag")
lin = linear_exponents_qr(sc.orbit(), 2000)
print(f"linear exponents of diag(1/2, 2): {lin[0]:+.6f}, {lin[1]:+.6f}"
      f" (log 2 = {math.log(2):.6f})")

# --- conservation under the bounded perturbation ------------------------------

report = conservation_experiment(sc, steps=4000, sample_count=6,
                                 window_half=20, seed=7)
print("\nforward direction (shadow the linear orbit, measure the matching side):")
for row in report.forward_rows:
    print(f"  target {row.target:+.4f} -> measured {row.measured:+.4f}"
          f" ({row.direction}), gap {row.gap:.2e}")
print("converse direction (random points match some linear exponent):")
for row in report.converse_rows:
    print(f"  sample {row.sample}: forward {row.forward:+.4f},"
          f" backward {row.backward:+.4f}, matched {row.matched:+.4f}")
print("special point (orbit shadowing the zero sequence):",
      np.round(report.special_point, 6))

# --- the kicked contraction: forward and backward exponents differ -----------

rs = get_scenario("remark-scalar")
xs = np.array([[1.0]])  # a (k, d) block of starting points, one row here
[fwd] = nonlinear_exponent(rs.orbit(), rs.perturbation, xs, "forward", 10_000)
[bwd] = nonlinear_exponent(rs.orbit(), rs.perturbation, xs, "backward", 10_000)
print(f"\nkicked contraction at x = 1: forward exponent {fwd.estimate:+.5f}"
      f" (not a linear exponent), backward {bwd.estimate:+.5f} = -log 2")

window = Window.symmetric(16)
prob = rs.problem(WindowSequence.zeros(window, 1))
sp = find_special_point(prob)
print(f"special point of the kicked contraction: {sp.point[0]:.2e}"
      f" (bounded two-sided orbit; every other point has an unbounded"
      f" backward orbit)")
