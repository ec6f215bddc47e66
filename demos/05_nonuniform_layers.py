"""The nonuniform setting: tempered envelopes, level-set layers, and
shadowing with layer-scaled perturbations.

The level threshold is T = e^(beta - rho), the largest envelope value at a
point whose own symbol is not 0.  The symbol-0 points, half the mass, lie
outside the good set {D <= T}, so the first-hitting layers fill roughly
geometrically.
"""

import numpy as np

from shadowrds import get_scenario, step
from shadowrds.checks import (
    check_layer_coverage,
    check_layered_shadowing,
)

sc = get_scenario("nonuniform-layered")
lay = sc.layering
print(f"scenario {sc.name}: bound K takes one value per symbol")
rng = np.random.default_rng(11)
for _ in range(3):
    p = sc.sample_point(rng)
    print(f"  K = {sc.dichotomy.bound(p):.4f}, envelope D = "
          f"{lay.envelope.bound(p):.4f} at a sampled point")
print(f"envelope growth rate rho = {lay.envelope.rho}, level threshold "
      f"T = e^(beta - rho) = {lay.level_threshold:.4f}")

# --- layer structure -----------------------------------------------------------

print("\nfirst-hitting layer indices of sampled points (shares of 300):")
counts: dict[int, int] = {}
for _ in range(300):
    m = lay.layer_index(sc.sample_point(rng))
    counts[m] = counts.get(m, 0) + 1
for m in sorted(k for k in counts if k is not None)[:6]:
    print(f"  layer {m}: {counts[m] / 300:.3f}")

cov = check_layer_coverage(sc, rng, samples=300)
print(f"coverage of the union of layers within depth 200: "
      f"{1.0 - cov.worst:.3f} (want >= 0.99)")

# --- the Lipschitz chain --------------------------------------------------------

p = sc.base_point
m = lay.layer_index(p)
nxt = step(sc.base, p, 1)
budget = sc.perturbation.lipschitz_budget
print(f"\nanchor point sits in layer {m}:")
print(f"  layer Lipschitz scale (c/T) e^(-rho|m-1|) = "
      f"{budget / lay.level_threshold * np.exp(-lay.envelope.rho * abs(m - 1)):.5f}")
print(f"  generic requirement c / K(sigma w) = "
      f"{budget / sc.dichotomy.bound(nxt):.5f}")

# --- a shadowing run with per-layer defect bounds -------------------------------

res = check_layered_shadowing(sc, np.random.default_rng(12))
print(f"\nlayered shadowing run: {'ok' if res.passed else 'FAILED'}"
      f" (orbit residual {res.worst:.2e}, {res.detail})")
