"""The benchmark's workloads: seeded inputs, the timed call of each case, and
checks of each result recomputed from the model definition.

``build_cases`` names each case and gives a factory for it.  Every case
has three phases.  ``__init__`` builds the inputs from the workload seed
(untimed; it calls into ``shadowrds``, so the worker records an exception
there as a failed case), ``run`` is the timed call into ``shadowrds``, and
``verify`` returns the list of problems found in the result (empty when the
case passes) together with the bytes that feed the output digest.  Calls go
through module attributes at call time, so a traced run sees the wrapped
functions.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np

import shadowrds
from shadowrds import driving, experiments, shadowing

LONG_HALF_WIDTH = 128
LONG_TOL = 1e-10
LONG_NOISE = 0.5
LONG_SCENARIOS = ("uniform-diag", "uniform-rot-coupled", "nonuniform-layered")
EXPONENT_STEPS = 10000
EXPONENT_SAMPLES = 4

# Round-off floor of a one-step residual, relative to the magnitudes involved.
_FLOOR_ULPS = 64.0


def _subseed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, index])


def _config_seed(seed: int, index: int) -> int:
    return int(_subseed(seed, index).generate_state(1)[0])


def _zero_centred_pseudo_orbit(scenario, window, weights, rng) -> np.ndarray:
    """Seeded jitter around the zero sequence that keeps every defect admissible.

    The defect of y at n is y_n - A y_{n-1} - f(y_{n-1}); with |f| <= bound it
    is at most |y_n| + G |y_{n-1}| + bound, where G bounds |A| on the window.
    Jitter of norm LONG_NOISE * slack_n / (1 + G k), with slack_n the
    allowance minus the perturbation bound and k the worst adjacent slack
    ratio, therefore stays within LONG_NOISE of the slack.
    """
    base, omega = scenario.base, scenario.base_point
    points = [driving.step(base, omega, n) for n in window.indices()]
    allowed = np.array(
        [weights.value_at(n) for n in window.indices()]
    ) / (2.0 * np.array([scenario.dichotomy.bound(p) for p in points]))
    slack = allowed - scenario.perturbation.bound
    if np.any(slack <= 0):
        raise ValueError("perturbation bound exceeds the defect allowance")
    growth = max(
        float(np.linalg.norm(scenario.cocycle.generator(p), 2)) for p in points[:-1]
    )
    adjacent = float(np.max(slack[:-1] / slack[1:]))
    amp = LONG_NOISE * slack / (1.0 + growth * adjacent)
    jitter = rng.standard_normal((window.length, scenario.cocycle.dim))
    return jitter / np.linalg.norm(jitter, axis=1)[:, None] * amp[:, None]


class ShadowCase:
    """Scenario.problem + solve on a long window around the zero sequence."""

    def __init__(self, scenario_name: str, seed: int, index: int):
        self.scenario = shadowrds.get_scenario(scenario_name)
        self.window = shadowrds.Window.symmetric(LONG_HALF_WIDTH)
        self.weights = self.scenario.default_weights(self.window)
        rng = np.random.default_rng(_subseed(seed, index))
        values = _zero_centred_pseudo_orbit(self.scenario, self.window, self.weights, rng)
        self.pseudo = shadowrds.WindowSequence(self.window, values)

    def run(self):
        return shadowing.solve(self.scenario.problem(self.pseudo, self.weights), tol=LONG_TOL)

    def _step(self, point, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A(point) x, F_point(x)) from the scenario's generator and perturbation."""
        ax = np.asarray(self.scenario.cocycle.generator(point), dtype=float) @ x
        return ax, ax + np.asarray(self.scenario.perturbation.func(point, x), dtype=float)

    def verify(self, res) -> tuple[list[str], bytes]:
        sc = self.scenario
        problems = []
        flags = {
            "defect_within_allowance": res.defect.all_within,
            "shadowing_bound": res.shadow_ok,
            "invariant_ball": res.ball_ok,
            "orbit_residual": res.max_orbit_residual <= max(1e-8, res.residual_floor),
            "fixed_point_gap": res.fixed_point_gap <= 2 * LONG_TOL,
        }
        problems += [f"result flag {k} is false" for k, ok in flags.items() if not ok]

        # Closed-form constants: B = (1+e^-eps)/(1-e^-eps), q = 2c e^(rate-eps) B.
        eps, rate = sc.epsilon, sc.dichotomy.rate
        b = (1 + math.exp(-eps)) / (1 - math.exp(-eps))
        q = 2.0 * sc.perturbation.lipschitz_budget * math.exp(rate - eps) * b
        shadow_bound = b / (1 - q)

        x, y = res.orbit.values, self.pseudo.values
        if x.shape != y.shape or not np.all(np.isfinite(x)):
            return problems + ["orbit has the wrong shape or non-finite entries"], b""
        base, omega = sc.base, sc.base_point
        ns = list(self.window.indices())
        residuals = np.zeros(len(ns))
        floor = 0.0
        for i in range(1, len(ns)):
            point = driving.step(base, omega, ns[i - 1])
            ax, fx = self._step(point, x[i - 1])
            residuals[i] = float(np.linalg.norm(x[i] - fx))
            # The Green sums mix terms from the whole window, so the floor is
            # set by the largest magnitudes on it, not by the local ones.
            floor = max(floor, _FLOOR_ULPS * np.finfo(float).eps * (
                1.0 + float(np.linalg.norm(x[i])) + float(np.linalg.norm(ax))
            ))
            _, fy = self._step(point, y[i - 1])
            allowance = self.weights.values[i] / (
                2.0 * sc.dichotomy.bound(driving.step(base, omega, ns[i]))
            )
            if float(np.linalg.norm(y[i] - fy)) > allowance * (1 + 1e-12):
                problems.append(f"pseudo-orbit defect above allowance at n={ns[i]}")
        worst = int(np.argmax(residuals))
        if residuals[worst] > max(1e-8, floor):
            problems.append(
                f"orbit residual {residuals[worst]:.3e} at n={ns[worst]}"
                f" above the round-off floor {floor:.3e}"
            )
        err = np.linalg.norm(x - y, axis=1)
        bad = np.nonzero(err > shadow_bound * self.weights.values + 1e-9)[0]
        if bad.size:
            problems.append(f"|x_n - y_n| > L delta(n) at n={ns[int(bad[0])]}")
        digest = x.tobytes() + str(res.iterations).encode()
        return problems[:5], digest


class ConfigCase:
    """run_experiment on one config; passes on exit code 0 and "pass": true."""

    def __init__(self, cfg, out_dir: Path):
        self.cfg = dataclasses.replace(cfg, out_dir=str(out_dir))
        self.out = out_dir

    def run(self):
        return experiments.run_experiment(self.cfg)

    def files(self) -> list[Path]:
        if not self.out.is_dir():
            return []
        return sorted(p for p in self.out.iterdir() if p.suffix in (".csv", ".json"))

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.files())

    def verify(self, code) -> tuple[list[str], bytes]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        summary_path = self.out / "summary.json"
        if not summary_path.is_file():
            return problems + ["summary.json missing"], b""
        if json.loads(summary_path.read_text(encoding="utf-8")).get("pass") is not True:
            problems.append('summary.json lacks "pass": true')
        if self.cfg.experiment == "shadow":
            rows = (self.out / "shadow.csv").read_text(encoding="utf-8").splitlines()[1:]
            for row in rows:
                n, _, _, err, bound, ok = row.split(",")
                if ok != "true" or float(err) > float(bound) + 1e-9:
                    problems.append(f"shadow.csv row n={n} fails err_n <= bound_n")
                    break
        digest = b"".join(p.name.encode() + p.read_bytes() for p in self.files())
        return problems, digest


def _shipped(root: Path, name: str, seed: int, out_dir: Path) -> ConfigCase:
    cfg = experiments.load_config(root / "configs" / f"{name}.cfg")
    return ConfigCase(dataclasses.replace(cfg, seed=seed), out_dir)


def _generated(out_dir: Path, **fields) -> ConfigCase:
    return ConfigCase(experiments.ExperimentConfig(**fields), out_dir)


def build_cases(workload: str, seed: int, root: Path, out_dir: Path) -> list:
    """(name, factory) for each case of the workload, inputs drawn from ``seed``."""
    P = functools.partial
    if workload == "shadow-long":
        return [(f"shadow:{name}", P(ShadowCase, name, seed, i))
                for i, name in enumerate(LONG_SCENARIOS)]
    if workload == "exponents":
        layered = dict(scenario="nonuniform-layered", steps=EXPONENT_STEPS,
                       samples=EXPONENT_SAMPLES)
        return [
            ("lyapunov-rot-coupled", P(_shipped, root, "lyapunov-rot-coupled",
                                       _config_seed(seed, 0), out_dir / "case0")),
            ("conservation-remark", P(_shipped, root, "conservation-remark",
                                      _config_seed(seed, 1), out_dir / "case1")),
            ("lyapunov:nonuniform-layered", P(
                _generated, out_dir / "case2", experiment="lyapunov",
                seed=_config_seed(seed, 2), **layered)),
            ("conservation:nonuniform-layered", P(
                _generated, out_dir / "case3", experiment="conservation",
                seed=_config_seed(seed, 3), **layered)),
        ]
    if workload == "suite":
        names = [sc.name for sc in shadowrds.builtin_scenarios()]
        cases = [
            (f"invariants:{name}", P(_generated, out_dir / f"case{i}", scenario=name,
                                     experiment="invariants", seed=_config_seed(seed, i)))
            for i, name in enumerate(names)
        ]
        i = len(cases)
        cases.append(("shadow-uniform-diag", P(_shipped, root, "shadow-uniform-diag",
                                               _config_seed(seed, i), out_dir / f"case{i}")))
        return cases
    raise ValueError(f"unknown workload {workload!r}")
