"""Per-step timings of the exponent layer: orbit fills, QR steps and lock-step walks.

Run from the repository root (or with ``PYTHONPATH`` pointing at any other
checkout's ``src`` to time that version):

    PYTHONPATH=src python3 bench/exponent_steps.py > exponent_steps.json

For each builtin scenario it times, over STEPS orbit indices:

- ``point_us``: ``OrbitCache.point(n)`` on a new orbit segment (base
  stepping), per index;
- ``fill_us``: one range read of the matrices on a new orbit segment (one
  call of the generator's range form, or one generator call per index when
  it has none, then one stacked conditioning check), per index;
- ``check_us``: that conditioning check alone (``_check_invertible``: the
  determinant certificate, and ``np.linalg.cond`` for the matrices it does
  not admit) on the filled block, per matrix, so ``fill_us - check_us`` is
  the generator's share;
- ``inverse_us``: one range read of the inverses once the matrices are held
  (one stacked inverse), per index;
- ``projector_us``: one range read of the projectors on a new orbit segment
  (one range-form call, or one projector call per index), per index;
- ``bound_us``: one range read of the bounds K on a new orbit segment (one
  range-form call, or one bound call per index), per index;
- ``stable_map_us`` / ``unstable_map_us``: one range read of the stable
  (resp. unstable) one-step maps once the matrices, inverses and projectors
  are held (one stacked product), per index;
- ``qr_us``: the linear exponents' repeated-QR sweep
  (``linear_exponents_and_half``) on a filled segment, per step, on the path
  the scenario's matrices take (``qr_path``: ``triangular`` for the
  cumulative log-diagonal sum, ``lapack`` for the per-step loop);
- ``qr_lapack_us``: the LAPACK loop (``_qr_loop``: one factorization per
  step) over the same matrices, per step, whichever path the sweep takes;
- ``walk_us``: the lock-step walk of the perturbed exponents on a filled
  segment, per step of the whole block, for blocks of K_VALUES rows and both
  directions;
- ``walk_linear_us``: the same walk under ``Perturbation.zero``, where every
  row is scaled from step 0, so it times the chunked all-scaled run alone;
- ``walk_path`` / ``walk_linear_path``: for the same walks, the steps their
  chunk runs computed in closed form (``closed``: a diagonal block with every
  row on an axis) and by the per-step loop (``loop``), counted on one
  untimed walk.  The runs beside the plain runs of a block with plain and
  scaled rows are counted too, and so are the steps that a rollback or a
  growth out of the float's normal range discards;
- ``walk_plain_steps`` / ``walk_linear_plain_steps``: for the same walks, the
  plain row-steps (steps times rows) that the plain runs (``_plain_run``)
  computed, counted on that untimed walk: the steps a walk commits, those
  past a row's switch to scaled, and those of the rows still plain there,
  which the next block steps again.  A linear walk takes none;
- ``peak_kb``: the ``tracemalloc`` peak, in kB, of one forward and one
  backward ``nonlinear_exponent`` of max(K_VALUES) rows over STEPS steps,
  each on a new orbit segment and with its tail statistics read.

For scenarios with a layering it also times ``envelope_us``: one
``TemperedEnvelope.bound`` call at a freshly sampled base point (a new orbit
segment and one read of 2 * half_width + 1 bounds K), per point
(ENVELOPE_POINTS points per timed call).

Each figure is the median of the timed calls, made until BUDGET_S seconds
have passed or MAX_CALLS calls were made.  BLAS is pinned to one thread, as
in ``perfbench``.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

import shadowrds  # noqa: E402
from shadowrds import lyapunov  # noqa: E402
from shadowrds.cocycle import _check_invertible  # noqa: E402
from shadowrds.lyapunov import (  # noqa: E402
    _is_upper_triangular,
    _orbit_log_norms,
    _qr_loop,
    linear_exponents_and_half,
)

STEPS = 2000
K_VALUES = (1, 4, 8)
MAX_CALLS = 5
BUDGET_S = 1.0
ENVELOPE_POINTS = 50


def _median_us(call, per: int, setup=None) -> float:
    """Median microseconds per unit of ``call()``; ``setup()`` runs untimed before each call."""
    times = []
    start = time.perf_counter()
    while len(times) < MAX_CALLS and (not times or time.perf_counter() - start < BUDGET_S):
        arg = setup() if setup is not None else None
        t = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - t)
    return statistics.median(times) / per * 1e6


def _walk_path(walk) -> tuple[dict, int]:
    """Steps of ``walk()``'s chunk runs in closed form and by the loop, and
    the plain row-steps of its plain runs."""
    path, plain = {"closed": 0, "loop": 0}, [0]

    def counted(mats, *args, read=lyapunov._axis_growth):
        signs = read(mats, *args)
        path["loop" if signs is None else "closed"] += len(mats)
        return signs

    def stepped(*args, run=lyapunov._plain_run):
        norms, error = run(*args)
        plain[0] += norms.size
        return norms, error

    with mock.patch.object(lyapunov, "_axis_growth", counted), \
            mock.patch.object(lyapunov, "_plain_run", stepped):
        walk(None)
    return path, plain[0]


def _scenario_row(sc) -> dict:
    dim = sc.cocycle.dim
    point_us = _median_us(
        lambda orbit: [orbit.point(n) for n in range(-STEPS, 0)], STEPS, setup=sc.orbit
    )
    fill_us = _median_us(lambda orbit: orbit.matrices(-STEPS, 0), STEPS, setup=sc.orbit)

    def filled():
        orbit = sc.orbit()
        orbit.matrices(-STEPS, 0)
        return orbit

    block, ns = np.array(filled().matrices(-STEPS, 0)), np.arange(-STEPS, 0)
    check_us = _median_us(lambda _: _check_invertible(block, ns), STEPS)
    inverse_us = _median_us(lambda orbit: orbit.inverses(-STEPS, 0), STEPS, setup=filled)
    projector_us = _median_us(lambda orbit: orbit.projectors(-STEPS, 0), STEPS, setup=sc.orbit)
    bound_us = _median_us(lambda orbit: orbit.bounds(-STEPS, 0), STEPS, setup=sc.orbit)

    def held():
        orbit = filled()
        orbit.inverses(-STEPS, 0)
        orbit.projectors(-STEPS, 1)
        return orbit

    stable_map_us = _median_us(lambda orbit: orbit.stable_maps(-STEPS, 0), STEPS, setup=held)
    unstable_map_us = _median_us(lambda orbit: orbit.unstable_maps(-STEPS, 0), STEPS, setup=held)
    orbit = sc.orbit()
    mats = orbit.matrices(0, STEPS)
    orbit.inverses(-STEPS, 0)
    qr_path = "triangular" if _is_upper_triangular(mats) else "lapack"
    qr_us = _median_us(lambda _: linear_exponents_and_half(orbit, STEPS), STEPS)
    qr_lapack_us = _median_us(lambda _: _qr_loop(mats, np.eye(dim)), STEPS)

    def walks(perturbation) -> tuple[dict, dict, dict]:
        times, paths, plain = {}, {}, {}
        for direction, forward in (("forward", True), ("backward", False)):
            times[direction], paths[direction], plain[direction] = {}, {}, {}
            for k in K_VALUES:
                xs = np.random.default_rng(k).standard_normal((k, dim))

                def walk(_, xs=xs, forward=forward):
                    _orbit_log_norms(perturbation, orbit, xs, forward, STEPS)

                paths[direction][str(k)], plain[direction][str(k)] = _walk_path(walk)
                times[direction][str(k)] = _median_us(walk, STEPS)
        return times, paths, plain

    walk_us, walk_path, walk_plain_steps = walks(sc.perturbation)
    walk_linear_us, walk_linear_path, walk_linear_plain_steps = walks(
        shadowrds.Perturbation.zero(dim))

    xs = np.random.default_rng(0).standard_normal((max(K_VALUES), dim))
    tracemalloc.start()
    for direction in ("forward", "backward"):
        for result in shadowrds.nonlinear_exponent(sc.orbit(), sc.perturbation, xs, direction,
                                                   STEPS):
            result.estimate  # the tail statistics
    peak_kb = tracemalloc.get_traced_memory()[1] / 1e3
    tracemalloc.stop()

    row = {
        "scenario": sc.name,
        "d": dim,
        "point_us": point_us,
        "fill_us": fill_us,
        "check_us": check_us,
        "inverse_us": inverse_us,
        "projector_us": projector_us,
        "bound_us": bound_us,
        "stable_map_us": stable_map_us,
        "unstable_map_us": unstable_map_us,
        "qr_path": qr_path,
        "qr_us": qr_us,
        "qr_lapack_us": qr_lapack_us,
        "walk_us": walk_us,
        "walk_linear_us": walk_linear_us,
        "walk_path": walk_path,
        "walk_linear_path": walk_linear_path,
        "walk_plain_steps": walk_plain_steps,
        "walk_linear_plain_steps": walk_linear_plain_steps,
        "peak_kb": peak_kb,
    }
    if sc.layering is not None:
        envelope = sc.layering.envelope
        rng = np.random.default_rng(0)
        row["envelope_us"] = _median_us(
            lambda points: [envelope.bound(p) for p in points],
            ENVELOPE_POINTS,
            setup=lambda: [sc.sample_point(rng) for _ in range(ENVELOPE_POINTS)],
        )
    return row


def main() -> None:
    rows = [_scenario_row(sc) for sc in shadowrds.builtin_scenarios()]
    print(json.dumps({
        "steps": STEPS,
        "k": list(K_VALUES),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
