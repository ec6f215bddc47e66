"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from shadowrds import (
    OrbitCache,
    Window,
    WindowSequence,
    check_uniqueness,
    dense_green_solve,
    find_special_point,
    green_apply,
    green_norm_bound_check,
    green_residual,
    invert_step,
    iteration_bound,
    make_weight,
    nonlinear_exponent,
    nonlinear_orbit,
    solve,
    source_term,
    weighted_norm,
)
from shadowrds.checks import (
    admissible_weight_kinds,
    check_envelope_growth,
    check_layer_coverage,
    check_layered_shadowing,
    noisy_pseudo_orbit,
    run_invariant_suite,
)
from shadowrds.lyapunov import conservation_experiment


def _report(num: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} ({label}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def all_scenarios(scenarios, block4):
    return list(scenarios.values()) + [block4]


@pytest.fixture(scope="module")
def solver_runs(scenarios):
    """One solver run per builtin scenario, reused by criteria 5 and 6."""
    runs = {}
    for name, sc in scenarios.items():
        pseudo, weights = noisy_pseudo_orbit(
            sc, Window.symmetric(10), np.random.default_rng(101), noise=0.6
        )
        prob = sc.problem(pseudo, weights)
        runs[name] = (prob, solve(prob, tol=1e-10))
    return runs


def test_criterion_01_green_matches_dense_oracle(scenarios, block4):
    # d in {1, 2, 4}, window length <= 64, 20 random inputs per scenario,
    # relative error <= 1e-10, total runtime <= 10 s.
    cases = [scenarios["remark-scalar"], scenarios["uniform-diag"], block4]
    window = Window.symmetric(31)  # length 63
    rng = np.random.default_rng(102)
    start = time.monotonic()
    worst = 0.0
    for sc in cases:
        orbit = sc.orbit()
        for _ in range(20):
            z = WindowSequence(
                window, rng.standard_normal((window.length, sc.cocycle.dim))
            )
            w = green_apply(orbit, z)
            dense = dense_green_solve(orbit, z)
            worst = max(worst, (w - dense).sup_norm() / w.sup_norm())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed <= 10.0
    _report(1, "green vs dense oracle", ok)
    assert worst <= 1e-10, f"worst relative gap {worst:.3e}"
    assert elapsed <= 10.0, f"runtime {elapsed:.1f}s"


def test_criterion_02_residual_identity(all_scenarios):
    # Residual of green_apply output <= 1e-10 (1 + |z|) at every interior
    # index, all scenarios.
    rng = np.random.default_rng(103)
    worst = 0.0
    for sc in all_scenarios:
        orbit = sc.orbit()
        window = Window.symmetric(10)
        for _ in range(5):
            z = WindowSequence(
                window, rng.standard_normal((window.length, sc.cocycle.dim))
            )
            w = green_apply(orbit, z)
            rep = green_residual(orbit, z, w)
            allowance = 1e-10 * (1.0 + z.sup_norm())
            worst = max(worst, rep.max_norm / allowance)
    ok = worst <= 1.0
    _report(2, "difference-equation residual", ok)
    assert ok, f"worst residual ratio {worst:.3e}"


def test_criterion_03_norm_bound(all_scenarios):
    # Amplification <= (1+e^-eps)/(1-e^-eps) + 1e-6 over 100 random inputs
    # per (scenario, weight family) pair; the bound at eps = log 2 is 3.
    eps = math.log(2.0)
    bound_at_log2 = (1 + math.exp(-eps)) / (1 - math.exp(-eps))
    assert bound_at_log2 == pytest.approx(3.0, rel=1e-14)
    window = Window.symmetric(8)
    ok = True
    for sc in all_scenarios:
        for kind in admissible_weight_kinds(sc):
            if kind == "exponential":
                weights = make_weight(
                    "exponential", window, rate=sc.dichotomy.rate - sc.epsilon
                )
            else:
                weights = make_weight(kind, window)
            rep = green_norm_bound_check(
                sc.orbit(), weights, sc.epsilon, 100, np.random.default_rng(104)
            )
            ok = ok and rep.passed
            assert rep.passed, (
                f"{sc.name}/{kind}: max ratio {rep.max_ratio:.6f} vs {rep.bound:.6f}"
            )
    _report(3, "Green norm bound", ok)


def test_criterion_04_contraction_of_iteration_map(scenarios):
    # uniform-diag with c = 0.05, eps = rate = log 2: q = 0.3, L = 3/0.7,
    # measured Lipschitz ratio over 50 random pairs <= q + 0.01.
    sc = scenarios["uniform-diag"]
    pseudo, weights = noisy_pseudo_orbit(
        sc, Window.symmetric(10), np.random.default_rng(105)
    )
    prob = sc.problem(pseudo, weights)
    shadow_bound, q = prob.constants
    assert q == pytest.approx(0.3, rel=1e-12)
    assert shadow_bound == pytest.approx(3.0 / 0.7, rel=1e-12)
    rng = np.random.default_rng(106)

    def wnorm(seq):
        return weighted_norm(prob.orbit, seq, weights)

    def apply_t(z):
        return green_apply(prob.orbit, source_term(prob, z))

    def random_in_ball():
        z = WindowSequence(prob.window, rng.standard_normal((prob.window.length, 2)))
        return z * (float(rng.uniform(0.1, 1.0)) * shadow_bound / wnorm(z))

    worst = 0.0
    for _ in range(50):
        z1, z2 = random_in_ball(), random_in_ball()
        den = wnorm(z1 - z2)
        if den > 1e-13:
            worst = max(worst, wnorm(apply_t(z1) - apply_t(z2)) / den)
    ok = worst <= q + 0.01
    _report(4, "fixed-point map contraction", ok)
    assert ok, f"measured ratio {worst:.4f} vs q + 0.01 = {q + 0.01:.4f}"


def test_criterion_05_shadowing_certificate(solver_runs):
    # Every run: |x_n - y_n| <= L delta(n) at all indices, interior orbit
    # residual <= 1e-8, iterations within the a-priori bound.
    ok = True
    for name, (prob, res) in solver_runs.items():
        shadow_bound, q = prob.constants
        for n in prob.window.indices():
            err = np.linalg.norm(
                res.orbit.value_at(n) - prob.pseudo_orbit.value_at(n)
            )
            if err > shadow_bound * prob.weights.value_at(n) + 1e-9:
                ok = False
        ok = ok and res.max_orbit_residual <= 1e-8
        ok = ok and res.iterations <= iteration_bound(shadow_bound, q, 1e-10)
        assert ok, name
    _report(5, "shadowing certificate", ok)


def test_criterion_06_invariant_ball(solver_runs):
    # Every iterate satisfies |z^k| <= L + 1e-9 in the weighted norm.
    ok = True
    for name, (prob, res) in solver_runs.items():
        shadow_bound, _ = prob.constants
        for record in res.trace:
            if record.correction_norm > shadow_bound + 1e-9:
                ok = False
        assert res.ball_ok, name
    _report(6, "invariant ball", ok)
    assert ok


def test_criterion_07_exponentially_growing_allowance(scenarios):
    # uniform-diag, eps = rate/2, delta(n) = e^{(rate-eps)|n|} on [-32, 32]:
    # the solver succeeds and the shadowing certificate holds; runtime <= 5 s.
    sc = scenarios["uniform-diag"]
    rate = sc.dichotomy.rate
    eps = rate / 2.0
    window = Window.symmetric(32)
    expo = replace(sc, weight_kind="exponential", epsilon=eps)
    start = time.monotonic()
    pseudo, weights = noisy_pseudo_orbit(expo, window, np.random.default_rng(107), noise=0.6)
    assert np.array_equal(
        weights.values, make_weight("exponential", window, rate=rate - eps).values
    )
    prob = expo.problem(pseudo, weights)
    res = solve(prob, tol=1e-9, max_iter=400)
    elapsed = time.monotonic() - start
    shadow_bound, _ = prob.constants
    ok = res.defect.all_within and res.shadow_ok and res.ball_ok
    for n in window.indices():
        err = np.linalg.norm(res.orbit.value_at(n) - pseudo.value_at(n))
        if err > shadow_bound * weights.value_at(n) + 1e-9:
            ok = False
    ok = ok and elapsed <= 5.0
    _report(7, "exponential defect weights", ok)
    assert res.shadow_ok and res.defect.all_within
    assert elapsed <= 5.0, f"runtime {elapsed:.1f}s"


def test_criterion_08_sharpness_example_exponents(scenarios):
    # remark-scalar with kick 0.01, N = 10^4: backward exponent -log 2 within
    # 0.01 and forward exponent 0 within 0.01, for points other than the
    # special one; runtime <= 5 s.
    sc = scenarios["remark-scalar"]
    start = time.monotonic()
    orbit = sc.orbit()
    ok = True
    xs = np.array([[1.0], [-0.7]])
    fwds = nonlinear_exponent(orbit, sc.perturbation, xs, "forward", 10_000)
    bwds = nonlinear_exponent(orbit, sc.perturbation, xs, "backward", 10_000)
    for fwd, bwd in zip(fwds, bwds):
        ok = ok and abs(fwd.estimate - 0.0) <= 0.01
        ok = ok and abs(bwd.estimate + math.log(2.0)) <= 0.01
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 5.0
    _report(8, "kicked-contraction exponents", ok)
    assert ok, f"runtime {elapsed:.1f}s"


def test_criterion_09_conservation_of_exponents(scenarios):
    # uniform-diag, N = 10^4: forward direction recovers both exponents
    # within 0.02; 20 random converse points each match a linear exponent
    # within 0.02; runtime <= 60 s.
    sc = scenarios["uniform-diag"]
    assert sc.perturbation.bound <= 1.0 / 4.0  # bounded-perturbation hypothesis
    start = time.monotonic()
    report = conservation_experiment(
        sc, 10_000, 20, window_half=24, seed=108, tolerance=0.02
    )
    elapsed = time.monotonic() - start
    targets = sorted(float(x) for x in report.linear_exponents)
    ok = targets[0] == pytest.approx(-math.log(2.0), abs=1e-9)
    ok = ok and targets[1] == pytest.approx(math.log(2.0), abs=1e-9)
    ok = ok and all(r.passed for r in report.forward_rows)
    ok = ok and all(r.passed for r in report.converse_rows)
    ok = ok and elapsed <= 60.0
    _report(9, "exponent conservation", ok)
    assert all(r.passed for r in report.forward_rows)
    assert all(r.passed for r in report.converse_rows)
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s"


def test_criterion_10_special_point(scenarios):
    # find_special_point agrees with the bisection oracle to 1e-8 on
    # remark-scalar and its orbit satisfies |x_n| <= L delta(n) / 2.
    sc = scenarios["remark-scalar"]
    window = Window.symmetric(16)
    prob = sc.problem(WindowSequence.zeros(window, 1))
    res = find_special_point(prob, tol=1e-10)
    cache = OrbitCache(sc.cocycle, sc.base_point)

    def backward_value(u: float) -> float:
        x = np.array([u])
        for n in range(0, -60, -1):
            x = invert_step(cache.inverse(n - 1), sc.perturbation,
                            sc.perturbation.coefficients(cache.point(n - 1)), x)
            if abs(x[0]) > 100.0:
                break
        return float(x[0])

    lo, hi = -0.5, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if backward_value(mid) > 0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    shadow_bound, _ = prob.constants
    ok = abs(res.point[0] - oracle) <= 1e-8
    for n in window.indices():
        plain = np.linalg.norm(res.orbit.value_at(n))
        if plain > shadow_bound * prob.weights.value_at(n) / 2.0 + 1e-9:
            ok = False
    ok = ok and res.bound_ok
    _report(10, "special point vs bisection", ok)
    assert abs(res.point[0] - oracle) <= 1e-8
    assert res.bound_ok


def test_criterion_11_expansivity(scenarios):
    # Deterministic re-solve gives identical orbits to 1e-12; distinct exact
    # orbits never jointly satisfy the adapted-norm closeness hypothesis on
    # windows of length >= 16.
    sc = scenarios["uniform-diag"]
    pseudo, weights = noisy_pseudo_orbit(
        sc, Window.symmetric(10), np.random.default_rng(109)
    )
    prob = sc.problem(pseudo, weights)
    first = solve(prob, tol=1e-10)
    second = solve(prob, tol=1e-10)
    ok = (first.orbit - second.orbit).sup_norm() <= 1e-12

    window = Window.symmetric(8)  # length 17 >= 16
    rng = np.random.default_rng(110)
    starts = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
    for _ in range(6):
        starts.append(rng.standard_normal(2))
    orbit_prob = sc.problem(nonlinear_orbit(sc.orbit(), sc.perturbation, starts[0], window))
    orbits = [nonlinear_orbit(sc.orbit(), sc.perturbation, x0, window) for x0 in starts]
    for i in range(len(orbits)):
        for j in range(i + 1, len(orbits)):
            rep = check_uniqueness(orbit_prob, orbits[i], orbits[j])
            if rep.hypothesis_met:  # distinct orbits must fail the hypothesis
                ok = False
    _report(11, "expansivity at window scale", ok)
    assert ok


def test_criterion_12_nonuniform_setting(scenarios):
    # Full invariant suite, envelope check on horizon 200, and a layered
    # shadowing run with per-layer defect bounds.
    sc = scenarios["nonuniform-layered"]
    results = run_invariant_suite(sc, seed=111)
    ok = all(r.passed for r in results)
    rng = np.random.default_rng(112)
    env = check_envelope_growth(sc, rng)
    cov = check_layer_coverage(sc, rng, samples=300)
    lay = check_layered_shadowing(sc, rng)
    ok = ok and env.passed and cov.passed and lay.passed
    _report(12, "nonuniform layered setting", ok)
    for r in results:
        assert r.passed, f"{r.name}: {r.detail or r.worst}"
    assert env.passed and cov.passed and lay.passed
