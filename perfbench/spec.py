"""Names shared by the benchmark runner, the worker and the repeat check.

Workloads and metric names and units come from ``BENCHMARK.json`` at the
repository root; only what that file does not hold is listed here.  No
third-party imports, so the runner process stays light.
"""

import json
from pathlib import Path

_BENCH = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
WORKLOADS = {w["name"]: w["why"] for w in _BENCH["workloads"]}
# Metric name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}

# Check functions of the public suite in ``shadowrds.checks``.
CHECK_FUNCTIONS = (
    "check_cocycle_property",
    "check_projectors",
    "check_dichotomy_bounds",
    "check_norm_equivalence_sweep",
    "check_one_step_contraction_sweep",
    "check_green_linearity",
    "check_green_inversion",
    "check_green_norm_bounds",
    "check_source_lipschitz",
    "check_solver_certificates",
    "check_envelope_growth",
    "check_layer_coverage",
    "check_layered_shadowing",
)

# Counts that must repeat exactly between two runs at one seed.
EXACT_COUNTS = tuple(
    name for name in PER_LAYER
    if name.endswith(".calls") or name in (
        "cocycle.orbit_cache.created",
        "shadowing.solve.iterations",
        "lyapunov.orbit_steps",
        "experiments.output_bytes",
    )
)

# Registry build: every workload pays it, so these read non-zero everywhere.
_SETUP_WORK = (
    "driving.step.calls", "driving.step.s",
    "driving.symbol_at.calls", "driving.symbol_at.s",
    "cocycle.matrix.calls", "cocycle.matrix.s", "cocycle.matrix.distinct_ratio",
    "cocycle.orbit_cache.created",
    "cocycle.envelope_along_orbit.calls", "cocycle.envelope_along_orbit.s",
    "cocycle.cocycle_eval.calls", "cocycle.cocycle_eval.s",
    "scenarios.builtin_scenarios.s", "checks.scenario_self_test.s",
    "checks.check_cocycle_property.s", "checks.check_projectors.s",
    "checks.check_dichotomy_bounds.s",
)

_SOLVER_WORK = (
    "green.green_apply.calls", "green.green_apply.s", "green.green_apply.s_per_index",
    "green.weighted_norm.calls", "green.weighted_norm.s",
    "green.weighted_norm.s_per_index",
    "shadowing.solve.calls", "shadowing.solve.s", "shadowing.solve.iterations",
    "shadowing.source_term.calls", "shadowing.source_term.s", "shadowing.defect.s",
)

_EXPERIMENT_WORK = (
    "experiments.run_experiment.calls", "experiments.run_experiment.s",
    "experiments.output_bytes",
)

# Per-layer metrics that must read non-zero in a traced run of each workload.
EXPECTED_NONZERO = {
    "shadow-long": _SETUP_WORK + _SOLVER_WORK,
    "exponents": _SETUP_WORK + _SOLVER_WORK + _EXPERIMENT_WORK + (
        "shadowing.invert_step.calls", "shadowing.invert_step.s",
        "lyapunov.linear_exponents_qr.calls", "lyapunov.linear_exponents_qr.s",
        "lyapunov.nonlinear_exponent.calls", "lyapunov.nonlinear_exponent.s",
        "lyapunov.orbit_steps", "lyapunov.find_special_point.s",
        "lyapunov.conservation_experiment.s",
    ),
    "suite": _SETUP_WORK + _SOLVER_WORK + _EXPERIMENT_WORK + (
        "green.dense_green_solve.calls", "green.dense_green_solve.s",
        "shadowing.nonlinear_orbit.calls", "shadowing.nonlinear_orbit.s",
        "shadowing.invert_step.calls", "shadowing.invert_step.s",
        "checks.run_invariant_suite.s", "checks.noisy_pseudo_orbit.s",
        *(f"checks.{fn}.s" for fn in CHECK_FUNCTIONS),
    ),
}
