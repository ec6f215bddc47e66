"""sha256 digests of every output that the configs and the demos produce.

Run from the repository root (or with ``PYTHONPATH`` pointing at any other
checkout's ``src`` to digest that version):

    PYTHONPATH=src python3 bench/output_digests.py > digests.json

For each ``configs/*.cfg`` it runs ``shadowrds.cli.main(["run", "--config",
path])`` with ``$SHADOW_RDS_OUT`` set to a new temporary directory, and
digests every file written there and the CLI's stdout; the exit code is
recorded as is.  Each ``demos/*.py`` then runs as ``__main__`` and its stdout
is digested.  Last, for each builtin scenario it digests the rows of its
``scenario_self_test`` report and of ``run_invariant_suite`` at each of
SUITE_SEEDS, one line per check: name, ``worst`` to 17 digits, threshold,
pass and detail; and, per direction, the bytes of the ``values`` of
``nonlinear_exponent`` over WALK_STEPS steps from a block of WALK_ROWS
starting points drawn with WALK_SEED, with the scenario's perturbation, and
from a mixed block whose starting norms lie on both sides of the walks'
switch to scaled rows, with the scenario's perturbation (rows turn scaled
and back to plain, so plain and scaled rows step together) and with
``Perturbation.zero`` (every row scaled); and the random block's walks over
LONG_STEPS steps, long enough to cross the seams of the chunked reads,
fills and sweeps several times.  Over LONG_STEPS steps it also digests the
bytes of ``linear_exponents_and_half`` and ``backward_qr_frame`` (frame and
rates), the forward and the backward QR sweep.  For each builtin with
layering data it digests the bytes of ``envelope_along_orbit`` over
[-300, 300] at the base point and the ``layer_index`` of 16 points drawn
with WALK_SEED.  The result is one JSON object on stdout, keyed by ``configs/<name>.cfg/<file>``,
``configs/<name>.cfg/stdout``, ``configs/<name>.cfg/exit``,
``demos/<name>.py/stdout``, ``checks/<scenario>/self-test``,
``checks/<scenario>/suite-<seed>``, ``walks/<scenario>/<direction>``,
``walks/<scenario>/<direction>/mixed`` (``/mixed-zero``, ``/long``) and
``sweeps/<scenario>`` and ``envelopes/<scenario>``, so two versions give byte-identical outputs exactly
when their objects are equal:

    diff <(PYTHONPATH=src python3 bench/output_digests.py) \\
         <(PYTHONPATH=../other/src python3 bench/output_digests.py)

BLAS is pinned to one thread, as in ``perfbench``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from shadowrds import (  # noqa: E402
    Perturbation,
    backward_qr_frame,
    builtin_scenarios,
    cli,
    linear_exponents_and_half,
    nonlinear_exponent,
)
from shadowrds.checks import run_invariant_suite, scenario_self_test  # noqa: E402
from shadowrds.cocycle import envelope_along_orbit  # noqa: E402
from shadowrds.experiments import OUTPUT_DIR_ENV  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((_ROOT / "configs").glob("*.cfg"))
DEMOS = sorted((_ROOT / "demos").glob("*.py"))
SCENARIOS = None  # names of the builtins whose checks are digested (None: all)
SUITE_SEEDS = (421, 7)  # run_invariant_suite's default seed and one other
WALK_SEED, WALK_ROWS, WALK_STEPS = 5, 3, 2000  # the exponent walks' block and length
LONG_STEPS = 10_000  # the long walks and the sweeps
MIXED_NORMS = (1e-3, 1.0, 1e29, 1e33)  # the mixed walks' random rows


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_digests(path: Path) -> dict[str, object]:
    """Digests of the files one config run writes, its stdout and its exit code."""
    key = f"configs/{path.name}"
    stdout = io.StringIO()
    previous = os.environ.get(OUTPUT_DIR_ENV)
    with tempfile.TemporaryDirectory() as tmp:
        os.environ[OUTPUT_DIR_ENV] = tmp
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["run", "--config", str(path)])
        finally:
            if previous is None:
                del os.environ[OUTPUT_DIR_ENV]
            else:
                os.environ[OUTPUT_DIR_ENV] = previous
        out = {
            f"{key}/{f.relative_to(tmp).as_posix()}": _sha(f.read_bytes())
            for f in sorted(Path(tmp).rglob("*"))
            if f.is_file()
        }
    out[f"{key}/stdout"] = _sha(stdout.getvalue().encode())
    out[f"{key}/exit"] = code
    return out


def demo_digests(path: Path) -> dict[str, str]:
    """The digest of one demo's stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(path), run_name="__main__")
    return {f"demos/{path.name}/stdout": _sha(stdout.getvalue().encode())}


def _rows_digest(results) -> str:
    return _sha("".join(
        f"{r.name} {r.worst:.17g} {r.threshold:.17g} {r.passed} {r.detail}\n" for r in results
    ).encode())


def check_digests(scenario) -> dict[str, str]:
    """Digests of one scenario's self-test rows and invariant-suite rows."""
    key = f"checks/{scenario.name}"
    out = {f"{key}/self-test": _rows_digest(scenario_self_test(scenario).results)}
    for seed in SUITE_SEEDS:
        out[f"{key}/suite-{seed}"] = _rows_digest(run_invariant_suite(scenario, seed=seed))
    return out


def _mixed_block(scenario) -> np.ndarray:
    """Starting points on both sides of the walks' switch to scaled rows at
    1e30: one random direction drawn with WALK_SEED per norm of MIXED_NORMS,
    then rows of norm 1e31 along the base point's stable direction and,
    where there is one, its unstable direction."""
    dim = scenario.cocycle.dim
    rows = np.random.default_rng(WALK_SEED).standard_normal((len(MIXED_NORMS), dim))
    rows *= (np.array(MIXED_NORMS) / np.linalg.norm(rows, axis=1))[:, None]
    stable = scenario.orbit().projector(0)
    for p in (stable, np.eye(dim) - stable):
        axis = p[:, np.argmax(np.linalg.norm(p, axis=0))]
        if axis.any():
            rows = np.vstack([rows, 1e31 * axis / np.linalg.norm(axis)])
    return rows


def walk_digests(scenario) -> dict[str, str]:
    """Digests of one scenario's exponent walks, per direction: the random
    block with the scenario's perturbation, over WALK_STEPS and LONG_STEPS
    steps, and the mixed block with it and with ``Perturbation.zero``."""
    rng = np.random.default_rng(WALK_SEED)
    xs = rng.standard_normal((WALK_ROWS, scenario.cocycle.dim))
    mixed = _mixed_block(scenario)
    walks = {
        "": (scenario.perturbation, xs, WALK_STEPS),
        "/mixed": (scenario.perturbation, mixed, WALK_STEPS),
        "/mixed-zero": (Perturbation.zero(scenario.cocycle.dim), mixed, WALK_STEPS),
        "/long": (scenario.perturbation, xs, LONG_STEPS),
    }
    out = {}
    for direction in ("forward", "backward"):
        for suffix, (perturbation, block, steps) in walks.items():
            results = nonlinear_exponent(scenario.orbit(), perturbation, block, direction, steps)
            values = b"".join(w.values.tobytes() for w in results)
            out[f"walks/{scenario.name}/{direction}{suffix}"] = _sha(values)
    return out


def sweep_digest(scenario) -> dict[str, str]:
    """The digest of one scenario's forward and backward QR sweeps over
    LONG_STEPS steps: the exponents at LONG_STEPS and half of it, then the
    backward frame and its rates."""
    lin, half = linear_exponents_and_half(scenario.orbit(), LONG_STEPS)
    frame, rates = backward_qr_frame(scenario.orbit(), LONG_STEPS)
    data = b"".join(a.tobytes() for a in (lin, half, frame, rates))
    return {f"sweeps/{scenario.name}": _sha(data)}


def envelope_digest(scenario) -> dict[str, str]:
    """The digest of a layered scenario's envelope D(sigma^n w) for
    -300 <= n <= 300 at its base point, then the first-hitting layers of 16
    points drawn with WALK_SEED (-1 for None); none without layering data."""
    layering = scenario.layering
    if layering is None:
        return {}
    env = layering.envelope
    values = envelope_along_orbit(scenario.orbit(), env.rho, env.half_width, -300, 300)
    rng = np.random.default_rng(WALK_SEED)
    layers = [layering.layer_index(scenario.sample_point(rng)) for _ in range(16)]
    data = values.tobytes() + " ".join(str(-1 if m is None else m) for m in layers).encode()
    return {f"envelopes/{scenario.name}": _sha(data)}


def main() -> None:
    out: dict[str, object] = {}
    for path in CONFIGS:
        out.update(config_digests(path))
    for path in DEMOS:
        out.update(demo_digests(path))
    for scenario in builtin_scenarios():
        if SCENARIOS is None or scenario.name in SCENARIOS:
            out.update(check_digests(scenario))
            out.update(walk_digests(scenario))
            out.update(sweep_digest(scenario))
            out.update(envelope_digest(scenario))
    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
