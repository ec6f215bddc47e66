"""Per-check timings of the invariant suite, one builtin scenario at a time.

Run from the repository root (or with ``PYTHONPATH`` pointing at any other
checkout's ``src`` to time that version):

    PYTHONPATH=src python3 bench/invariant_checks.py > invariant_checks.json

For each builtin scenario it runs ``run_invariant_suite(scenario, seed=SEED)``
with every check function of ``shadowrds.checks`` (the public ``check_*``
functions and the two private checks the suite calls) wrapped in a timer, so
each check sees exactly the generator state it sees in the suite.  The suite
is repeated until BUDGET_S seconds have passed or MAX_CALLS runs were made.
A row reports ``suite_ms``, the median time of a whole suite run, and
``<check>_ms``, the median time of each check the suite ran for that
scenario (the layering checks run only where the scenario has a layering),
in milliseconds.  BLAS is pinned to one thread, as in ``perfbench``.  The
result is one JSON object on stdout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import shadowrds  # noqa: E402
from shadowrds import checks  # noqa: E402

SEED = 421  # run_invariant_suite's default seed
MAX_CALLS = 7
BUDGET_S = 3.0
CHECKS = tuple(name for name in checks.__all__ if name.startswith("check_")) + (
    "_check_perturbation_lipschitz",
    "_check_contraction_constant",
)


def _timed(fn, times: list[float]):
    @functools.wraps(fn)
    def run(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)

    return run


def _scenario_row(scenario) -> dict:
    times: dict[str, list[float]] = {name: [] for name in CHECKS}
    originals = {name: getattr(checks, name) for name in CHECKS}
    suite: list[float] = []
    try:
        for name, fn in originals.items():
            setattr(checks, name, _timed(fn, times[name]))
        start = time.perf_counter()
        while len(suite) < MAX_CALLS and (not suite or time.perf_counter() - start < BUDGET_S):
            t = time.perf_counter()
            checks.run_invariant_suite(scenario, seed=SEED)
            suite.append(time.perf_counter() - t)
    finally:
        for name, fn in originals.items():
            setattr(checks, name, fn)
    row = {
        "scenario": scenario.name,
        "d": scenario.cocycle.dim,
        "horizon": scenario.dichotomy.horizon,
        "runs": len(suite),
        "suite_ms": 1e3 * statistics.median(suite),
    }
    for name in CHECKS:
        if times[name]:
            row[f"{name.lstrip('_')}_ms"] = 1e3 * statistics.median(times[name])
    return row


def main() -> None:
    rows = [_scenario_row(scenario) for scenario in shadowrds.builtin_scenarios()]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": SEED,
        "rows": rows,
    }, indent=1))


if __name__ == "__main__":
    main()
