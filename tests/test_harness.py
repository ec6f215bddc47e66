import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from shadowrds import (
    checks,
    cocycle,
    experiments,
    get_scenario,
    green,
    linear_exponents_qr,
    lyapunov,
    shadowing,
)
from shadowrds.checks import CheckResult, SelfTestReport
from shadowrds.cli import main
from shadowrds.scenarios import builtin_scenarios
from shadowrds.experiments import (
    ConfigError,
    ExperimentConfig,
    load_config,
    run_experiment,
)


def _write(tmp_path: Path, text: str, name: str = "exp.cfg") -> Path:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_config_parsing_and_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, """
        # comment line
        scenario = uniform-diag
        experiment = shadow
        seed = 99
        window = 9
        tol = 1e-9
    """))
    assert cfg.scenario == "uniform-diag"
    assert cfg.seed == 99
    assert cfg.window == 9
    assert cfg.tol == 1e-9
    assert cfg.max_iter == 400  # default


def test_module_docstring_lists_every_config_key_with_its_default():
    documented = {}
    for line in experiments.__doc__.splitlines():
        match = re.fullmatch(r"    (\w+) *= *(\S*) *# *(.*)", line)
        if match:
            documented[match[1]] = (match[2], match[3])
    fields = dataclasses.fields(ExperimentConfig)
    assert sorted(documented) == sorted(f.name for f in fields)
    for f in fields:
        text, comment = documented[f.name]
        if f.default is dataclasses.MISSING:
            assert comment.startswith("required"), f.name
        elif f.default is None:
            assert text == "", f.name
        else:
            assert experiments._PARSERS[f.name](text) == f.default, f.name


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "scenario uniform-diag\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "scenario = x\nbogus_key = 1\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "experiment = shadow\n"))  # no scenario
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "scenario = x\nexperiment = jump\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "scenario = x\nseed = abc\n"))


def test_unknown_scenario_is_config_error(tmp_path):
    cfg = load_config(_write(tmp_path, "scenario = nope\nexperiment = shadow\n"))
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_shadow_experiment_outputs(tmp_path):
    cfg = ExperimentConfig(
        scenario="uniform-diag", experiment="shadow", seed=5,
        out_dir=str(tmp_path / "out"), window=10, tol=1e-10,
    )
    assert run_experiment(cfg) == 0
    out = tmp_path / "out"
    shadow = (out / "shadow.csv").read_text().splitlines()
    assert shadow[0] == "n,delta_n,defect_n,err_n,bound_n,pass"
    assert len(shadow) == 1 + 21
    iters = (out / "iterations.csv").read_text().splitlines()
    assert iters[0] == "k,step_norm,z_norm"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["constants"]["shadow_bound"] == pytest.approx(3.0 / 0.7)
    assert summary["constants"]["contraction"] == pytest.approx(0.3)
    assert summary["max_error_over_delta"] <= 3.0 / 0.7


def test_shadow_experiment_linear_mode(tmp_path):
    # With the perturbation zeroed the constants collapse to q = 0, L = 3.
    cfg = ExperimentConfig(
        scenario="uniform-diag", experiment="shadow", seed=5, linear=True,
        out_dir=str(tmp_path / "lin"), window=10, tol=1e-10,
    )
    assert run_experiment(cfg) == 0
    summary = json.loads((tmp_path / "lin" / "summary.json").read_text())
    assert summary["constants"]["shadow_bound"] == pytest.approx(3.0)
    assert summary["constants"]["contraction"] == 0.0
    assert summary["iterations"] == 1
    assert summary["max_error_over_delta"] <= 3.0


def test_config_linear_flag_parsing(tmp_path):
    cfg = load_config(_write(tmp_path, "scenario = uniform-diag\nlinear = true\n"))
    assert cfg.linear is True
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "scenario = uniform-diag\nlinear = maybe\n"))


def test_shadow_experiment_reproducible_bytes(tmp_path):
    for sub in ("a", "b"):
        cfg = ExperimentConfig(
            scenario="uniform-rot-coupled", experiment="shadow", seed=42,
            out_dir=str(tmp_path / sub), window=8, tol=1e-9,
        )
        assert run_experiment(cfg) == 0
    for name in ("shadow.csv", "iterations.csv", "summary.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_lyapunov_experiment_outputs(tmp_path):
    cfg = ExperimentConfig(
        scenario="remark-scalar", experiment="lyapunov", seed=2,
        out_dir=str(tmp_path / "lyap"), steps=2000, samples=2,
    )
    assert run_experiment(cfg) == 0
    rows = (tmp_path / "lyap" / "lyapunov.csv").read_text().splitlines()
    assert rows[0] == "orbit_id,direction,N,exponent,residual"
    assert any(r.startswith("linear-0,qr,") for r in rows)
    assert any(r.startswith("orbit-0,forward,") for r in rows)
    summary = json.loads((tmp_path / "lyap" / "summary.json").read_text())
    assert summary["pass"] is True


@pytest.mark.parametrize("name, qr_calls", [
    ("uniform-rot-coupled", 40),
    # Triangular matrices: one factorization, of the last product, in place
    # of the per-step loop.
    ("nonuniform-layered", 1),
])
def test_lyapunov_run_makes_one_qr_sweep(tmp_path, monkeypatch, name, qr_calls):
    sc = get_scenario(name)
    lin = linear_exponents_qr(sc.orbit(), 40)
    half = linear_exponents_qr(sc.orbit(), 20)
    qr = lyapunov._positive_qr
    calls = []

    def counted(b):
        calls.append(1)
        return qr(b)

    monkeypatch.setattr(lyapunov, "_positive_qr", counted)
    cfg = ExperimentConfig(
        scenario=sc.name, experiment="lyapunov", out_dir=str(tmp_path),
        steps=40, samples=0,
    )
    run_experiment(cfg)
    assert len(calls) == qr_calls
    # The exponents at N and the gap to N // 2 equal those of separate sweeps.
    rows = [r.split(",") for r in (tmp_path / "lyapunov.csv").read_text().splitlines()[1:]]
    assert [float(r[3]) for r in rows] == list(lin)
    assert [float(r[4]) for r in rows] == list(np.abs(lin - half))


def test_conservation_experiment_outputs(tmp_path):
    cfg = ExperimentConfig(
        scenario="uniform-diag", experiment="conservation", seed=3,
        out_dir=str(tmp_path / "cons"), window=16, steps=1500, samples=4,
    )
    assert run_experiment(cfg) == 0
    rows = (tmp_path / "cons" / "conservation.csv").read_text().splitlines()
    assert rows[0] == "kind,id,target,direction,measured,gap,pass"
    summary = json.loads((tmp_path / "cons" / "summary.json").read_text())
    assert summary["forward_matches"] == 2
    assert summary["converse_matches"] == 4


def test_invariants_experiment_outputs(tmp_path):
    cfg = ExperimentConfig(
        scenario="uniform-diag", experiment="invariants", seed=4,
        out_dir=str(tmp_path / "inv"),
    )
    assert run_experiment(cfg) == 0
    rows = (tmp_path / "inv" / "invariants.csv").read_text().splitlines()
    assert rows[0] == "check,worst,threshold,pass"
    assert all(r.endswith(",true") for r in rows[1:])


def test_output_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "env_out"
    monkeypatch.setenv("SHADOW_RDS_OUT", str(override))
    cfg = ExperimentConfig(
        scenario="uniform-diag", experiment="shadow", seed=6,
        out_dir=str(tmp_path / "ignored"), window=6,
    )
    assert run_experiment(cfg) == 0
    assert (override / "shadow.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario = uniform-diag\nexperiment = shadow\nseed = 7\n"
        f"out_dir = {tmp_path / 'cli_out'}\nwindow = 6\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "cli_out" / "summary.json").exists()
    # usage error: missing config file
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    # usage error: unknown scenario
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario = nope\n", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("uniform-diag", "uniform-rot-coupled", "nonuniform-layered",
                 "remark-scalar"):
        assert name in out


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 4


def test_cli_selftest_reports_a_failing_scenario(capsys, monkeypatch):
    def failing(scenario):
        result = CheckResult("stub-check", 1.0, 0.0, False)
        return SelfTestReport(scenario.name, (result,), False)

    monkeypatch.setattr(checks, "scenario_self_test", failing)
    builtin_scenarios.cache_clear()
    try:
        assert main(["selftest"]) == 1
    finally:
        builtin_scenarios.cache_clear()
    out = capsys.readouterr().out
    assert "failed its self-test" in out
    assert "[FAIL] stub-check" in out


def test_cli_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_csv_float_format_full_precision(tmp_path):
    cfg = ExperimentConfig(
        scenario="uniform-diag", experiment="shadow", seed=8,
        out_dir=str(tmp_path / "prec"), window=6,
    )
    run_experiment(cfg)
    rows = (tmp_path / "prec" / "iterations.csv").read_text().splitlines()[1:]
    val = rows[0].split(",")[1]
    # round-trips through 17 significant digits
    assert float(val) == float(f"{float(val):.17g}")


@pytest.mark.parametrize(
    "body, code",
    [
        ("scenario = uniform-rot-coupled\nepsilon = 0.01\n", 2),  # q >= 1
        ("scenario = uniform-rot-coupled\nweight = polynomial\n", 2),  # inadmissible
        ("scenario = uniform-diag\nwindow = -3\n", 2),
        ("scenario = uniform-diag\nnoise = 2\n", 2),
        ("scenario = uniform-diag\ntol = 0\n", 2),
        ("scenario = uniform-diag\ntol = nan\n", 2),
        ("scenario = remark-scalar\nexperiment = conservation\nsteps = 200\nsamples = 2\n"
         "tolerance = -0.5\n", 2),
        ("scenario = remark-scalar\nexperiment = conservation\nsteps = 200\nsamples = 2\n"
         "tolerance = nan\n", 2),
        ("scenario = uniform-diag\nexperiment = lyapunov\nsteps = 2\n", 2),
        # N // 2 = 0: no exponent is defined at the half-way point.
        ("scenario = uniform-diag\nexperiment = lyapunov\nsteps = 1\nsamples = 0\n", 2),
        ("scenario = uniform-diag\nwindow = 1100\n", 2),  # the orbit overflows
        ("scenario = uniform-diag\nmax_iter = 1\n", 1),  # no convergence
        ("scenario = uniform-diag\nmax_iter = 0\n", 2),
        ("scenario = remark-scalar\nexperiment = lyapunov\nsamples = -3\n", 2),
        ("scenario = remark-scalar\nexperiment = conservation\nsamples = -3\n", 2),
        # Above the step limit: rejected before the per-step arrays are allocated.
        ("scenario = remark-scalar\nexperiment = lyapunov\nsteps = 1000000000000\n", 2),
        ("scenario = remark-scalar\nexperiment = conservation\nsteps = 1000000000000\n", 2),
        ("scenario = uniform-diag\nwindow = 0\n", 0),  # length-1 window
        # The orbit reaches ~1e180: the round-off floor must stay finite.
        ("scenario = uniform-diag\nwindow = 600\n", 0),
    ],
)
def test_cli_exit_codes_for_configs(tmp_path, capsys, body, code):
    cfg = _write(tmp_path, body + f"out_dir = {tmp_path / 'out'}\n")
    with warnings.catch_warnings():
        # A numpy RuntimeWarning would reach stderr outside pytest.
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == (0 if code == 0 else 1)
    assert len(err.splitlines()) == len(errors)
    if code == 0:
        summary = json.loads(
            (tmp_path / "out" / "summary.json").read_text(),
            parse_constant=lambda name: pytest.fail(f"summary.json holds {name}"),
        )
        assert summary["pass"] is True
        assert all(summary["certificates"].values())
        assert math.isfinite(summary["residual_floor"])


def test_the_orbit_segment_is_the_only_orbit_argument():
    for module in (cocycle, green, lyapunov, shadowing):
        for name in module.__all__:
            obj = getattr(module, name)
            if not inspect.isfunction(obj):
                continue
            params = set(inspect.signature(obj).parameters)
            assert "cache" not in params, f"{module.__name__}.{name}"
            if "orbit" in params:
                assert not params & {"system", "cocycle"}, f"{module.__name__}.{name}"
            # The base point is the orbit's, read as orbit.omega or orbit.point(n).
            assert not params & {"omega", "base"}, f"{module.__name__}.{name}"
            # The adapted-norm truncation is read from the orbit's dichotomy.
            assert not params & {"horizon", "allow_uncertified"}, f"{module.__name__}.{name}"
    fields = [f.name for f in dataclasses.fields(shadowing.ShadowingProblem)]
    assert fields == ["orbit", "perturbation", "pseudo_orbit", "weights", "epsilon"]


_ROOT = Path(__file__).resolve().parent.parent

# The benchmark's tracer reads z, seq and steps by keyword when they are
# passed so, else at fixed positions; a call site in src/ that passes one of
# them by position makes a hook raise or read the wrong argument.
_TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
tracer.active = True
from shadowrds import checks, experiments, get_scenario
checks.run_invariant_suite(get_scenario("remark-scalar"))
for kind in ("lyapunov", "conservation"):
    experiments.run_experiment(experiments.ExperimentConfig(
        scenario="remark-scalar", experiment=kind, steps=200, samples=2,
        out_dir=f"{sys.argv[2]}/{kind}",
    ))
print(json.dumps(tracer.counts))
"""


def test_benchmark_tracer_reads_the_traced_arguments(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(_ROOT / "perfbench" / "tracing.py"),
         str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["green.green_apply.indices"] > 0
    assert counts["green.weighted_norm.indices"] > 0
    assert counts["lyapunov.orbit_steps"] > 0
