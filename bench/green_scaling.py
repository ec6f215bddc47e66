"""Warm-call timings of ``green_apply``, ``weighted_norm`` and ``source_term``
against window length.

Run from the repository root (or with ``PYTHONPATH`` pointing at any other
checkout's ``src`` to time that version):

    PYTHONPATH=src python3 bench/green_scaling.py > green_scaling.json

For each window length L in LENGTHS it builds the window [-(L-1)/2, (L-1)/2]
on ``uniform-rot-coupled`` (d = 2, horizon 48, constant weights), a seeded
standard-normal input z and one orbit segment, ``Scenario.orbit()``.  A first,
untimed call of each function fills the orbit's cache; the warm calls are then timed until one second has
passed or MAX_CALLS calls were made, and the median is reported.  BLAS is
pinned to one thread, as in ``perfbench``.  The result is one JSON object on
stdout.

``source_term_s`` times one warm ``source_term`` per window length on each
scenario of SOURCE_SCENARIOS: the shadowing problem of the same z (as the
pseudo-orbit and as the correction) with constant weights.  One call maps
the window's perturbation rows with one read of their coefficients (through
the coefficients' range form where they have one) and one kick.  Memos that
outlive a call, such as the per-point layer index of ``nonuniform-layered``,
are warm too.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import shadowrds  # noqa: E402
from shadowrds import Window, WindowSequence, make_weight  # noqa: E402

LENGTHS = (17, 65, 257, 1025, 4097)
SCENARIO = "uniform-rot-coupled"
SOURCE_SCENARIOS = ("uniform-diag", "uniform-rot-coupled", "nonuniform-layered")
MAX_CALLS = 9
BUDGET_S = 1.0


def _warm_median(call) -> tuple[float, int]:
    call()
    times = []
    start = time.perf_counter()
    while len(times) < MAX_CALLS and (not times or time.perf_counter() - start < BUDGET_S):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return statistics.median(times), len(times)


def main() -> None:
    sc = shadowrds.get_scenario(SCENARIO)
    rows = []
    for length in LENGTHS:
        window = Window.symmetric((length - 1) // 2)
        rng = np.random.default_rng(length)
        z = WindowSequence(window, rng.standard_normal((length, sc.cocycle.dim)))
        weights = make_weight("constant", window)
        orbit = sc.orbit()
        green_s, green_calls = _warm_median(lambda: shadowrds.green_apply(orbit, z))
        norm_s, norm_calls = _warm_median(
            lambda: shadowrds.weighted_norm(orbit, z, weights)
        )
        source_s = {}
        for name in SOURCE_SCENARIOS:
            prob = shadowrds.get_scenario(name).problem(z, weights)
            source_s[name] = _warm_median(lambda: shadowrds.source_term(prob, z))[0]
        rows.append({
            "L": length,
            "green_apply_s": green_s,
            "green_apply_calls": green_calls,
            "weighted_norm_s": norm_s,
            "weighted_norm_calls": norm_calls,
            "source_term_s": source_s,
        })
    print(json.dumps({
        "scenario": SCENARIO,
        "horizon": sc.dichotomy.horizon,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
