"""Experiment runner: flat key-value configs in, CSV tables and JSON out.

Config files are plain ``key = value`` lines ('#' starts a comment).  Known
keys and defaults:

    scenario     = uniform-diag      # required: a builtin scenario name
    experiment   = shadow            # shadow | lyapunov | conservation | invariants
    seed         = 1                 # RNG seed; identical seeds give identical bytes
    out_dir      = out               # overridden by $SHADOW_RDS_OUT when set
    window       = 16                # half-width; the window is [-window, window]
    tol          = 1e-10             # solver tolerance
    max_iter     = 400               # solver iteration cap
    noise        = 0.5               # pseudo-orbit jitter, fraction of the allowance
    linear       = false             # true replaces the perturbation with zero
    weight       =                   # constant | exponential | polynomial (scenario default)
    weight_scale = 1.0               # scale of the constant family
    epsilon      =                   # override of the scenario epsilon
    steps        = 10000             # orbit length for exponent estimates
    samples      = 20                # sampled orbits / converse points
    tolerance    = 0.02              # exponent match tolerance

Floats in the CSV files are written with 17 significant digits, so files are
bit-identical across runs with the same config and seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checks import noisy_pseudo_orbit, run_invariant_suite
from .green import Window
from .lyapunov import (
    conservation_experiment,
    linear_exponents_and_half,
    nonlinear_exponent,
)
from .scenarios import Scenario, get_scenario
from .shadowing import Perturbation, _row_norms, iteration_bound, solve

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "run_experiment",
]

OUTPUT_DIR_ENV = "SHADOW_RDS_OUT"


class ConfigError(ValueError):
    """The config file is missing, malformed, or names unknown entities."""


@dataclass
class ExperimentConfig:
    scenario: str
    experiment: str = "shadow"
    seed: int = 1
    out_dir: str = "out"
    window: int = 16
    tol: float = 1e-10
    max_iter: int = 400
    noise: float = 0.5
    linear: bool = False
    weight: str | None = None
    weight_scale: float = 1.0
    epsilon: float | None = None
    steps: int = 10000
    samples: int = 20
    tolerance: float = 0.02

    def resolve_out_dir(self) -> Path:
        return Path(os.environ.get(OUTPUT_DIR_ENV, self.out_dir))


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# Each key is parsed by its field's type; ``X | None`` is parsed as X.
_PARSERS = {
    field.name: {"str": str, "int": int, "float": float, "bool": _parse_bool}[
        field.type.removesuffix(" | None")
    ]
    for field in dataclasses.fields(ExperimentConfig)
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat key = value config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value
    if "scenario" not in raw:
        raise ConfigError(f"{path}: missing required key 'scenario'")
    kwargs: dict[str, object] = {}
    for key, value in raw.items():
        try:
            kwargs[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {value!r}") from exc
    cfg = ExperimentConfig(**kwargs)  # type: ignore[arg-type]
    if cfg.experiment not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"unknown experiment kind {cfg.experiment!r}"
            f" (expected one of {', '.join(EXPERIMENT_KINDS)})"
        )
    if cfg.weight is not None and cfg.weight not in ("constant", "exponential", "polynomial"):
        raise ConfigError(f"unknown weight family {cfg.weight!r}")
    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_summary(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8", newline="\n",
    )


def _run_shadow(cfg: ExperimentConfig, scenario: Scenario, out: Path) -> int:
    scenario = dataclasses.replace(
        scenario,
        weight_kind=cfg.weight or scenario.weight_kind,
        epsilon=scenario.epsilon if cfg.epsilon is None else cfg.epsilon,
        weight_scale=cfg.weight_scale,
        perturbation=(
            Perturbation.zero(scenario.cocycle.dim) if cfg.linear
            else scenario.perturbation
        ),
    )
    rng = np.random.default_rng(cfg.seed)
    window = Window.symmetric(cfg.window)
    pseudo, weights = noisy_pseudo_orbit(scenario, window, rng, noise=cfg.noise)
    prob = scenario.problem(pseudo, weights)
    res = solve(prob, tol=cfg.tol, max_iter=cfg.max_iter)
    shadow_bound, q = prob.constants

    rows = []
    defect_norms = {n: 0.0 for n in window.indices()}
    for i, n in enumerate(range(window.n_min + 1, window.n_max + 1)):
        defect_norms[n] = float(res.defect.norms[i])
    errs = _row_norms(res.orbit.values - pseudo.values)
    for i, n in enumerate(window.indices()):
        err = float(errs[i])
        bound = shadow_bound * weights.value_at(n)
        rows.append(
            [n, weights.value_at(n), defect_norms[n], err, bound, err <= bound + 1e-9]
        )
    _write_csv(out / "shadow.csv",
               ["n", "delta_n", "defect_n", "err_n", "bound_n", "pass"], rows)
    _write_csv(
        out / "iterations.csv",
        ["k", "step_norm", "z_norm"],
        [[r.iteration, r.step_norm, r.correction_norm] for r in res.trace],
    )
    certs = {
        "defect_within_allowance": res.defect.all_within,
        "shadowing_bound": res.shadow_ok,
        "invariant_ball": res.ball_ok,
        # On windows where the orbit grows past ~1e8 the residual cannot be
        # evaluated below round-off; the solver reports that floor.
        "orbit_residual": res.max_orbit_residual <= max(1e-8, res.residual_floor),
        "fixed_point_gap": res.fixed_point_gap <= 2 * cfg.tol,
        "iteration_bound": res.iterations <= iteration_bound(shadow_bound, q, cfg.tol),
    }
    passed = all(certs.values())
    _write_summary(out / "summary.json", {
        "scenario": scenario.name,
        "experiment": "shadow",
        "seed": cfg.seed,
        "constants": {
            "rate": scenario.dichotomy.rate,
            "epsilon": scenario.epsilon,
            "budget": scenario.perturbation.lipschitz_budget,
            "contraction": q,
            "shadow_bound": shadow_bound,
        },
        "iterations": res.iterations,
        "final_step_norm": res.final_step_norm,
        "max_orbit_residual": res.max_orbit_residual,
        "residual_floor": res.residual_floor,
        "fixed_point_gap": res.fixed_point_gap,
        "max_error_over_delta": max(r[3] / r[1] for r in rows),
        "certificates": certs,
        "pass": passed,
    })
    if not passed:
        failing = [k for k, v in certs.items() if not v]
        print(f"shadow: failing certificates: {', '.join(failing)}")
    return 0 if passed else 1


def _run_lyapunov(cfg: ExperimentConfig, scenario: Scenario, out: Path) -> int:
    if cfg.samples < 0:
        raise ValueError("samples must be nonnegative")
    rng = np.random.default_rng(cfg.seed)
    dim = scenario.cocycle.dim
    xs = np.array([rng.standard_normal(dim) for _ in range(cfg.samples)]).reshape(-1, dim)

    # One QR sweep gives the exponents at N and, for the convergence column,
    # at N // 2.  One orbit per direction, walked by all samples together: the
    # forward walk reads the orbit's matrices, the backward walk its inverses.
    # Dropping the first orbit before filling the second keeps only one
    # orbit's worth of entries alive at a time.
    orbit = scenario.orbit()
    lin, half = linear_exponents_and_half(orbit, cfg.steps)
    pert = scenario.perturbation
    fwds = nonlinear_exponent(orbit, pert, xs, "forward", steps=cfg.steps)
    del orbit
    bwds = nonlinear_exponent(scenario.orbit(), pert, xs, "backward", steps=cfg.steps)
    rows = [
        ["linear-" + str(i), "qr", cfg.steps, float(ex), float(abs(ex - half[i]))]
        for i, ex in enumerate(lin)
    ]
    converged = True
    for i, (fwd, bwd) in enumerate(zip(fwds, bwds)):
        converged = converged and fwd.converged and bwd.converged
        rows.append([f"orbit-{i}", "forward", cfg.steps, fwd.estimate,
                     fwd.regression_residual])
        rows.append([f"orbit-{i}", "backward", cfg.steps, bwd.estimate,
                     bwd.regression_residual])
    _write_csv(out / "lyapunov.csv",
               ["orbit_id", "direction", "N", "exponent", "residual"], rows)
    nonzero = bool(np.min(np.abs(lin)) > 1e-2)
    passed = converged and nonzero
    _write_summary(out / "summary.json", {
        "scenario": scenario.name,
        "experiment": "lyapunov",
        "seed": cfg.seed,
        "steps": cfg.steps,
        "linear_exponents": [float(x) for x in lin],
        "certificates": {
            "orbit_estimates_converged": converged,
            "linear_exponents_nonzero": nonzero,
        },
        "pass": passed,
    })
    return 0 if passed else 1


def _run_conservation(cfg: ExperimentConfig, scenario: Scenario, out: Path) -> int:
    report = conservation_experiment(
        scenario, cfg.steps, cfg.samples,
        window_half=cfg.window, seed=cfg.seed, tolerance=cfg.tolerance,
        solver_tol=cfg.tol,
    )
    rows = []
    for r in report.forward_rows:
        rows.append(["forward", r.index, r.target, r.direction, r.measured,
                     r.gap, r.passed])
    for r in report.converse_rows:
        matched = math.nan if r.matched is None else r.matched
        rows.append(["converse", r.sample, matched, "both", r.forward, r.gap,
                     r.passed])
    _write_csv(
        out / "conservation.csv",
        ["kind", "id", "target", "direction", "measured", "gap", "pass"], rows,
    )
    _write_summary(out / "summary.json", {
        "scenario": scenario.name,
        "experiment": "conservation",
        "seed": cfg.seed,
        "steps": report.steps,
        "tolerance": report.tolerance,
        "linear_exponents": [float(x) for x in report.linear_exponents],
        "special_point": [float(x) for x in report.special_point],
        "forward_matches": int(sum(r.passed for r in report.forward_rows)),
        "converse_matches": int(sum(r.passed for r in report.converse_rows)),
        "pass": bool(report.all_passed),
    })
    if not report.all_passed:
        for r in report.forward_rows:
            if not r.passed:
                print(f"conservation: forward exponent {r.target:+.4f} unmatched"
                      f" (measured {r.measured:+.4f})")
        for r in report.converse_rows:
            if not r.passed:
                print(f"conservation: sample {r.sample} matched no exponent"
                      f" (forward {r.forward:+.4f}, backward {r.backward:+.4f})")
    return 0 if report.all_passed else 1


def _run_invariants(cfg: ExperimentConfig, scenario: Scenario, out: Path) -> int:
    results = run_invariant_suite(scenario, seed=cfg.seed)
    rows = [[r.name, r.worst, r.threshold, r.passed] for r in results]
    _write_csv(out / "invariants.csv", ["check", "worst", "threshold", "pass"], rows)
    passed = all(r.passed for r in results)
    _write_summary(out / "summary.json", {
        "scenario": scenario.name,
        "experiment": "invariants",
        "seed": cfg.seed,
        "checks": {r.name: r.passed for r in results},
        "pass": passed,
    })
    if not passed:
        for r in results:
            if not r.passed:
                print(f"invariants: {r.name} failed ({r.detail or r.worst})")
    return 0 if passed else 1


# Experiment kind -> runner; the keys are the valid ``experiment`` values.
EXPERIMENT_KINDS = {
    "shadow": _run_shadow,
    "lyapunov": _run_lyapunov,
    "conservation": _run_conservation,
    "invariants": _run_invariants,
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run one experiment; returns the process exit code (0 ok, 1 failed)."""
    try:
        scenario = get_scenario(cfg.scenario)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    out = cfg.resolve_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    return EXPERIMENT_KINDS[cfg.experiment](cfg, scenario, out)
