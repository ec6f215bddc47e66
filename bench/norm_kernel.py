"""Warm-call timings of the adapted-norm kernel for each shape its callers use.

Run from the repository root (or with ``PYTHONPATH`` pointing at any other
checkout's ``src`` to time that version):

    PYTHONPATH=src python3 bench/norm_kernel.py > norm_kernel.json

Each case is one ``cocycle._adapted_norm_parts(orbit, ns, xs)`` call with
seeded standard-normal rows xs at the orbit indices ns of one caller:

- ``solver-window``: one L = 257 window, one row per index (``solve``'s
  weighted norms), on SOLVER_SCENARIOS;
- ``stacked-17x50`` and ``stacked-17x100``: 50 and 100 stacked L = 17
  windows (``check_source_lipschitz`` and ``green_norm_bound_check``);
- ``one-index-250``: 250 rows at index 0 (``check_norm_equivalence_sweep``);
- ``contraction-rows``: 50 rows at index 0, 50 at random step counts n in
  [0, 10] and 50 at -n (``check_one_step_contraction_sweep``).

The last four run on every builtin scenario.  A row reports ``ms``, the
median of the warm calls, made until BUDGET_S seconds have passed or
MAX_CALLS calls were made, and ``equal``: whether the kernel's result equals
bit for bit ``_per_row_parts``, the same arithmetic one row at a time (one
(d, d) @ (d, 1) product per row and step, the squares summed in index order).
BLAS is pinned to one thread, as in ``perfbench``.  The result is one JSON
object on stdout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import shadowrds  # noqa: E402
from shadowrds.cocycle import _adapted_norm_parts  # noqa: E402

SOLVER_SCENARIOS = ("uniform-diag", "uniform-rot-coupled", "nonuniform-layered")
MAX_CALLS = 25
BUDGET_S = 0.5
SEED = 19


def _contraction_rows(rng: np.random.Generator) -> np.ndarray:
    steps = rng.integers(0, 11, 50)
    return np.concatenate([np.zeros(50, dtype=np.int64), steps, -steps])


CASES = {
    "solver-window": lambda rng: np.arange(-128, 129),
    "stacked-17x50": lambda rng: np.tile(np.arange(-8, 9), 50),
    "stacked-17x100": lambda rng: np.tile(np.arange(-8, 9), 100),
    "one-index-250": lambda rng: np.zeros(250, dtype=np.int64),
    "contraction-rows": _contraction_rows,
}


def _per_row_parts(orbit, ns: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's stable and unstable parts, one row at a time."""
    dich = orbit.dichotomy
    horizon, growth = dich.horizon, math.exp(dich.rate)
    lo, hi = int(ns.min()), int(ns.max())
    fwd = orbit.stable_maps(lo, hi + horizon)
    bwd = orbit.unstable_maps(lo - horizon, hi)
    at = ns - lo

    def norms(v):
        total = np.square(v[:, 0])
        for c in range(1, v.shape[1]):
            total = total + np.square(v[:, c])
        return np.sqrt(total)

    def sup(v, maps_at):
        best, weight = norms(v), 1.0
        for k in range(horizon):
            v = np.matmul(maps_at(k), v[:, :, None])[:, :, 0]
            weight *= growth
            best = np.maximum(best, norms(v) * weight)
        return best

    v = np.matmul(orbit.projectors(lo, hi + 1)[at], xs[:, :, None])[:, :, 0]
    return (sup(v, lambda k: fwd[at + k]),
            sup(xs - v, lambda k: bwd[at + horizon - 1 - k]))


def _warm_median(call) -> tuple[float, int]:
    call()
    times = []
    start = time.perf_counter()
    while len(times) < MAX_CALLS and (not times or time.perf_counter() - start < BUDGET_S):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return statistics.median(times), len(times)


def _row(case: str, scenario) -> dict:
    rng = np.random.default_rng(SEED)
    ns = CASES[case](rng)
    xs = rng.standard_normal((len(ns), scenario.cocycle.dim))
    orbit = scenario.orbit()
    seconds, calls = _warm_median(lambda: _adapted_norm_parts(orbit, ns, xs))
    got = np.concatenate(_adapted_norm_parts(orbit, ns, xs))
    want = np.concatenate(_per_row_parts(orbit, ns, xs))
    return {
        "case": case,
        "scenario": scenario.name,
        "d": scenario.cocycle.dim,
        "horizon": scenario.dichotomy.horizon,
        "rows": len(ns),
        "ms": 1e3 * seconds,
        "calls": calls,
        "equal": got.tobytes() == want.tobytes(),
    }


def main() -> None:
    rows = [_row("solver-window", shadowrds.get_scenario(name)) for name in SOLVER_SCENARIOS]
    for case in list(CASES)[1:]:
        rows += [_row(case, scenario) for scenario in shadowrds.builtin_scenarios()]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": SEED,
        "rows": rows,
    }, indent=1))


if __name__ == "__main__":
    main()
