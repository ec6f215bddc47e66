"""Base systems, cocycle evaluation, and adapted norms.

Walks through the exact invertibility of the driving systems, the cocycle
composition law, and the two-sided adapted norm with its certified
truncation.
"""

import math

import numpy as np

from shadowrds import (
    BernoulliShift,
    IrrationalRotation,
    RotationPoint,
    ShiftPoint,
    adapted_norm,
    check_norm_equivalence,
    cocycle_eval,
    get_scenario,
    step,
    symbol_at,
)

# --- driving systems are exact bijections ---------------------------------

rot = IrrationalRotation.default()
print(f"rotation angle alpha = {rot.alpha:.15f} (sqrt(2) - 1)")
p = RotationPoint.from_angle(0.125)
q = step(rot, p, 10**6)
print("forward a million steps and back:", step(rot, q, -(10**6)) == p)

shift = BernoulliShift(2, (0.5, 0.5))
w = ShiftPoint(seed=2024, offset=0)
print("shift point symbols around the origin:",
      [symbol_at(shift, step(shift, w, n)) for n in range(-5, 6)])

# equidistribution smoke test: frequency of [0, 0.1) along the orbit
hits, point = 0, RotationPoint.from_angle(0.0)
for _ in range(100_000):
    hits += point.angle < 0.1
    point = step(rot, point, 1)
print(f"orbit frequency of [0, 0.1): {hits / 100_000:.4f} (expect about 0.1)")

# --- cocycles and their composition law ------------------------------------

sc = get_scenario("uniform-rot-coupled")
orbit = sc.orbit()
a5 = cocycle_eval(orbit, 5)
a32 = cocycle_eval(sc.orbit(orbit.point(2)), 3)
a2 = cocycle_eval(orbit, 2)
gap = np.linalg.norm(a5 - a32 @ a2, 2) / np.linalg.norm(a5, 2)
print(f"composition law A(w,5) = A(s^2 w,3) A(w,2): relative gap {gap:.2e}")

# --- adapted norms ----------------------------------------------------------

x = np.array([0.8, -0.6])
nrm = adapted_norm(orbit, x)  # truncated at the dichotomy's horizon, 48 here
print(f"adapted norm of {x}: value {nrm.value:.6f}, certified tail {nrm.tail:.2e}")
rep = check_norm_equivalence(orbit, x)
print(f"norm chain |x| <= |x|_w <= 2K|x|: "
      f"{rep.plain:.4f} <= {rep.adapted.value:.4f} <= {rep.upper:.4f}"
      f" -> {'ok' if rep.passed else 'VIOLATED'}")

# the diagonal scenario has constant sup terms: the adapted norm is the
# l1 norm of the split components, exactly, at any horizon (its margin is
# zero, so its dichotomy consents to the uncertified truncation)
diag = get_scenario("uniform-diag")
y = np.array([0.3, -0.7])
val = adapted_norm(diag.orbit(), y).value
print(f"diagonal scenario: adapted norm {val:.12f} vs |y_1| + |y_2| = "
      f"{abs(y[0]) + abs(y[1]):.12f}")
print(f"one-step contraction factor e^-rate = {math.exp(-diag.dichotomy.rate):.4f}")
