"""Per-scenario timings of building the scenario registry.

Run from the repository root (or with ``PYTHONPATH`` pointing at any other
checkout's ``src`` to time that version):

    PYTHONPATH=src python3 bench/registry_build.py > registry_build.json

``builtin_scenarios()`` builds each builtin scenario and then runs its
self-test.  For each builtin it times, apart:

- ``build_ms``: one call of the scenario's builder (for ``nonuniform-layered``
  this includes its tempered envelope and level threshold);
- ``self_test_ms``: one ``scenario_self_test`` of the built scenario.

Each figure is the median of the timed calls, in milliseconds, made until
BUDGET_S seconds have passed or MAX_CALLS calls were made.  ``total_ms`` is the
sum of the medians over all builtins.  The calls run in one warm interpreter,
so ``total_ms`` leaves out the first-call costs (imports, numpy's first
LAPACK calls) that perfbench's ``setup_s`` includes.  BLAS is pinned to one
thread, as in ``perfbench``.  The result is one JSON object on stdout.
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

from shadowrds.checks import scenario_self_test  # noqa: E402
from shadowrds.scenarios import _BUILDERS  # noqa: E402

MAX_CALLS = 7
BUDGET_S = 2.0


def _median_ms(call) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < MAX_CALLS and (not times or time.perf_counter() - start < BUDGET_S):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def _scenario_row(build) -> dict:
    scenario = build()
    return {
        "scenario": scenario.name,
        "build_ms": _median_ms(build),
        "self_test_ms": _median_ms(lambda: scenario_self_test(scenario)),
    }


def main() -> None:
    rows = [_scenario_row(build) for build in _BUILDERS]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rows": rows,
        "total_ms": sum(row["build_ms"] + row["self_test_ms"] for row in rows),
    }, indent=1))


if __name__ == "__main__":
    main()
