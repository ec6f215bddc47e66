"""Smoke test of the bench scripts: they import private names from ``src``,
so a rename there must fail here rather than in a later bench run."""

import importlib.util
from pathlib import Path

from shadowrds import get_scenario

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exponent_steps_row_runs(monkeypatch):
    bench = _load("exponent_steps")
    for name, value in (("STEPS", 8), ("MAX_CALLS", 1), ("BUDGET_S", 0.0)):
        monkeypatch.setattr(bench, name, value)
    row = bench._scenario_row(get_scenario("uniform-diag"))
    assert row["qr_path"] == "triangular"
    assert row["qr_us"] > 0 and row["qr_lapack_us"] > 0
    assert row["bound_us"] > 0 and 0 < row["check_us"]
    # Generic rows on uniform-diag stay off the axes for all 8 steps, so
    # their linear walks take the loop; remark-scalar's one-dimensional rows
    # are always on its axis.
    scalar = bench._scenario_row(get_scenario("remark-scalar"))
    for direction in ("forward", "backward"):
        walks = row["walk_linear_us"][direction]
        assert list(walks) == [str(k) for k in bench.K_VALUES]
        assert all(us > 0 for us in walks.values())
        for key in ("walk_path", "walk_linear_path", "walk_plain_steps",
                    "walk_linear_plain_steps"):
            assert list(row[key][direction]) == list(walks)
        assert all(steps > 0 for steps in row["walk_plain_steps"][direction].values())
        assert all(steps == 0 for steps in row["walk_linear_plain_steps"][direction].values())
        for path in row["walk_linear_path"][direction].values():
            assert path == {"closed": 0, "loop": 8}
        for path in scalar["walk_linear_path"][direction].values():
            assert path == {"closed": 8, "loop": 0}


def test_source_size_counts_lines_and_tokens_of_every_module(capsys):
    import json

    bench = _load("source_size")
    assert bench.module_size("x = 1  # one\n\nif x:\n    y = (x,\n         2)\n") == {
        "lines": 5, "tokens": 19}
    bench.main([])
    sizes = json.loads(capsys.readouterr().out)
    modules = sorted(p.name for p in bench.SRC.glob("*.py"))
    assert list(sizes) == modules + ["total"] and "lyapunov.py" in modules
    for key in ("lines", "tokens"):
        assert all(sizes[name][key] > 0 for name in modules)
        assert sizes["total"][key] == sum(sizes[name][key] for name in modules)


def test_invariant_checks_row_times_every_check_of_the_suite(monkeypatch):
    bench = _load("invariant_checks")
    from shadowrds import checks

    for name, value in (("MAX_CALLS", 1), ("BUDGET_S", 0.0)):
        monkeypatch.setattr(bench, name, value)
    originals = {name: getattr(checks, name) for name in bench.CHECKS}
    row = bench._scenario_row(get_scenario("remark-scalar"))
    assert row["runs"] == 1 and row["suite_ms"] > 0
    for name in ("check_norm_equivalence_sweep", "check_one_step_contraction_sweep",
                 "check_green_norm_bounds", "check_source_lipschitz",
                 "check_perturbation_lipschitz", "check_contraction_constant"):
        assert row[f"{name}_ms"] > 0, name
    assert "check_envelope_growth_ms" not in row  # remark-scalar has no layering
    assert all(getattr(checks, name) is fn for name, fn in originals.items())


def test_norm_kernel_times_every_caller_shape(monkeypatch, capsys):
    import json

    bench = _load("norm_kernel")
    for name, value in (("MAX_CALLS", 1), ("BUDGET_S", 0.0),
                        ("SOLVER_SCENARIOS", ("uniform-diag",))):
        monkeypatch.setattr(bench, name, value)
    bench.main()
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["case"] for row in rows] == ["solver-window"] + [
        case for case in list(bench.CASES)[1:] for _ in range(4)
    ]
    assert all(row["ms"] > 0 and row["equal"] is True for row in rows)
    assert {row["rows"] for row in rows} == {257, 850, 1700, 250, 150}


def test_green_scaling_times_source_term_per_scenario(monkeypatch, capsys):
    import json

    bench = _load("green_scaling")
    for name, value in (("LENGTHS", (1, 9)), ("MAX_CALLS", 1), ("BUDGET_S", 0.0),
                        ("SOLVE_L", 17)):
        monkeypatch.setattr(bench, name, value)
    bench.main()
    out = json.loads(capsys.readouterr().out)
    rows = out["rows"]
    assert [row["L"] for row in rows] == [1, 9]
    for row in rows:
        assert list(row["source_term_s"]) == list(bench.SOURCE_SCENARIOS)
        assert all(s > 0 for s in row["source_term_s"].values())
    assert out["solve_L"] == 17
    assert list(out["solve_s"]) == list(bench.SOURCE_SCENARIOS)
    assert all(s > 0 for s in out["solve_s"].values())


def test_registry_build_times_every_builtin(monkeypatch, capsys):
    import json

    bench = _load("registry_build")
    for name, value in (("MAX_CALLS", 1), ("BUDGET_S", 0.0)):
        monkeypatch.setattr(bench, name, value)
    bench.main()
    out = json.loads(capsys.readouterr().out)
    assert [row["scenario"] for row in out["rows"]] == [
        "uniform-diag", "uniform-rot-coupled", "nonuniform-layered", "remark-scalar",
    ]
    assert all(row["build_ms"] > 0 and row["self_test_ms"] > 0 for row in out["rows"])


def test_output_digests_cover_config_files_and_demo_stdout(monkeypatch, capsys):
    import json
    import os

    bench = _load("output_digests")
    config = next(p for p in bench.CONFIGS if p.name == "shadow-uniform-diag.cfg")
    demo = next(p for p in bench.DEMOS if p.name.startswith("01_"))
    monkeypatch.setattr(bench, "CONFIGS", [config])
    monkeypatch.setattr(bench, "DEMOS", [demo])
    monkeypatch.setattr(bench, "SCENARIOS", ("remark-scalar",))
    monkeypatch.delenv("SHADOW_RDS_OUT", raising=False)
    bench.main()
    out = json.loads(capsys.readouterr().out)
    key = "configs/shadow-uniform-diag.cfg"
    assert out[f"{key}/exit"] == 0
    for name in ("shadow.csv", "iterations.csv", "summary.json", "stdout"):
        assert len(out[f"{key}/{name}"]) == 64, name
    assert len(out[f"demos/{demo.name}/stdout"]) == 64
    checks = ["checks/remark-scalar/self-test"] + [
        f"checks/remark-scalar/suite-{seed}" for seed in bench.SUITE_SEEDS
    ]
    assert len(bench.SUITE_SEEDS) == 2
    for name in checks:
        assert len(out[name]) == 64, name
    assert out[checks[1]] != out[checks[2]]  # the seeds draw different rows
    walks = [f"walks/remark-scalar/{direction}{suffix}" for direction in ("forward", "backward")
             for suffix in ("", "/mixed", "/mixed-zero", "/long")] + ["sweeps/remark-scalar"]
    for name in walks:
        assert len(out[name]) == 64, name
    assert len(set(out[name] for name in walks)) == len(walks)
    assert len(out) == 6 + len(checks) + len(walks)
    assert "SHADOW_RDS_OUT" not in os.environ  # restored after the config run
