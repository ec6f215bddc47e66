import math

import numpy as np
import pytest

from shadowrds import (
    DegenerateOrbitError,
    OrbitCache,
    Perturbation,
    Window,
    WindowSequence,
    backward_qr_frame,
    find_special_point,
    invert_step,
    linear_exponents_qr,
    nonlinear_exponent,
)
from shadowrds.lyapunov import _positive_qr, _qr_sweep, conservation_experiment


@pytest.mark.parametrize(
    "indices", [range(300), range(-300, 0)], ids=["forward", "backward"]
)
def test_qr_sweep_matches_running_sum_loop(scenarios, block4, indices):
    for sc in list(scenarios.values()) + [block4]:
        cache = OrbitCache(sc.cocycle, sc.base_point)
        q, sums = _qr_sweep(cache, indices)
        ref_q = np.eye(sc.cocycle.dim)
        logs = np.zeros(sc.cocycle.dim)
        for k, n in enumerate(indices):
            ref_q, r = _positive_qr(cache.matrix(n) @ ref_q)
            logs += np.log(np.diagonal(r))
            assert np.array_equal(sums[k], logs), (sc.name, k)
        assert np.array_equal(q, ref_q), sc.name


def test_qr_exponents_diagonal_exact(scenarios):
    sc = scenarios["uniform-diag"]
    for steps in (3, 50, 500):
        got = linear_exponents_qr(sc.orbit(), steps)
        assert got[0] == pytest.approx(math.log(2.0), abs=1e-12)
        assert got[1] == pytest.approx(-math.log(2.0), abs=1e-12)


def test_qr_exponent_scalar_half(scenarios):
    sc = scenarios["remark-scalar"]
    got = linear_exponents_qr(sc.orbit(), 200)
    assert got[0] == pytest.approx(-math.log(2.0), abs=1e-12)


def test_qr_self_consistency_rot_coupled(scenarios):
    sc = scenarios["uniform-rot-coupled"]
    n = 400
    a = linear_exponents_qr(sc.orbit(), n)
    b = linear_exponents_qr(sc.orbit(), 2 * n)
    assert np.all(np.abs(a - b) <= 5.0 / math.sqrt(n))


def test_qr_sum_rule_against_determinant(scenarios, block4):
    # Sum of exponents equals (1/N) log |det A(w, N)|, accumulated from the
    # one-step determinants to avoid overflow.
    for sc in (scenarios["uniform-rot-coupled"], scenarios["nonuniform-layered"], block4):
        steps = 300
        cache = OrbitCache(sc.cocycle, sc.base_point)
        logdet = sum(
            math.log(abs(np.linalg.det(cache.matrix(n)))) for n in range(steps)
        )
        got = linear_exponents_qr(cache, steps)
        assert float(np.sum(got)) == pytest.approx(logdet / steps, abs=1e-8)


def test_backward_frame_identifies_axes(scenarios):
    sc = scenarios["uniform-diag"]
    frame, rates = backward_qr_frame(sc.orbit(), 200)
    assert rates[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert np.allclose(np.abs(frame[:, 0]), [0.0, 1.0], atol=1e-12)
    assert np.allclose(np.abs(frame[:, 1]), [1.0, 0.0], atol=1e-12)


def test_nonlinear_exponent_stable_axis_linear(scenarios):
    # f = 0 along the stable axis of diag(1/2, 2): exact geometric decay.
    sc = scenarios["uniform-diag"]
    res = nonlinear_exponent(
        sc.orbit(), Perturbation.zero(2), np.array([1.0, 0.0]), "forward", 400
    )
    assert res.estimate == pytest.approx(-math.log(2.0), abs=1e-6)
    assert res.converged


def test_nonlinear_exponent_remark_values(scenarios):
    # Backward exponent -log 2, forward exponent 0, for x away from the
    # special point.
    sc = scenarios["remark-scalar"]
    fwd = nonlinear_exponent(sc.orbit(), sc.perturbation, np.array([1.0]), "forward", 10_000)
    bwd = nonlinear_exponent(sc.orbit(), sc.perturbation, np.array([1.0]), "backward", 10_000)
    assert abs(fwd.estimate - 0.0) <= 0.01
    assert abs(bwd.estimate + math.log(2.0)) <= 0.01


def test_nonlinear_exponent_scaling_consistency(scenarios):
    sc = scenarios["remark-scalar"]
    n = 2000
    a = nonlinear_exponent(sc.orbit(), sc.perturbation, np.array([0.7]), "forward", n)
    b = nonlinear_exponent(sc.orbit(), sc.perturbation, np.array([0.7]), "forward", 2 * n)
    assert abs(a.estimate - b.estimate) <= 3.0 / math.sqrt(n)


def test_nonlinear_exponent_degenerate_at_zero(scenarios):
    sc = scenarios["remark-scalar"]
    with pytest.raises(DegenerateOrbitError):
        nonlinear_exponent(sc.orbit(), sc.perturbation, np.array([0.0]), "backward", 100)


def test_nonlinear_exponent_survives_overflow_scale(scenarios):
    # Backward orbits grow like 2^n; at n = 10^4 the norms are far beyond
    # float range and the scaled representation must take over seamlessly.
    sc = scenarios["uniform-diag"]
    res = nonlinear_exponent(
        sc.orbit(), sc.perturbation, np.array([0.9, 0.4]), "backward", 10_000
    )
    assert abs(res.estimate + math.log(2.0)) <= 0.01


def test_special_point_zero_for_linear(scenarios):
    from dataclasses import replace

    sc = scenarios["uniform-diag"]
    window = Window.symmetric(12)
    prob = replace(
        sc.problem(WindowSequence.zeros(window, 2)),
        perturbation=Perturbation.zero(2),
    )
    res = find_special_point(prob)
    assert np.linalg.norm(res.point) <= 1e-12
    assert res.bound_ok


def test_special_point_remark_bisection_oracle(scenarios):
    # Independent oracle: the unique initial value whose backward orbit stays
    # bounded, located by bisection on the sign of the diverging backward
    # iterates (the backward map is monotone in the scalar case).
    sc = scenarios["remark-scalar"]
    window = Window.symmetric(16)
    prob = sc.problem(WindowSequence.zeros(window, 1))
    res = find_special_point(prob)

    cache = OrbitCache(sc.cocycle, sc.base_point)

    def backward_sign(u: float) -> float:
        x = np.array([u])
        for n in range(0, -60, -1):
            x = invert_step(cache.inverse(n - 1), sc.perturbation,
                            cache.point(n - 1), x)
            if abs(x[0]) > 100.0:
                break
        return x[0]

    lo, hi = -0.5, 0.5
    assert backward_sign(lo) < 0 < backward_sign(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if backward_sign(mid) > 0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    assert abs(res.point[0] - oracle) <= 1e-8
    assert res.bound_ok  # |x_n| <= L delta(n) / 2 window-wide


def test_special_point_tolerance_consistency(scenarios):
    sc = scenarios["remark-scalar"]
    window = Window.symmetric(16)
    prob = sc.problem(WindowSequence.zeros(window, 1))
    a = find_special_point(prob, tol=1e-8)
    b = find_special_point(prob, tol=1e-10)
    assert abs(a.point[0] - b.point[0]) <= 1e-7


def test_special_point_requires_bound(scenarios):
    from dataclasses import replace

    sc = scenarios["uniform-diag"]
    window = Window.symmetric(8)
    prob = sc.problem(WindowSequence.zeros(window, 2))
    unbounded = replace(prob, perturbation=Perturbation(
        sc.perturbation.func, sc.perturbation.lipschitz_budget, None
    ))
    with pytest.raises(ValueError):
        find_special_point(unbounded)


def test_shadowed_orbit_exponent_transfer(scenarios):
    # If |x_n - y_n| <= L delta(n) with delta sub-exponential and y has a
    # nonzero exponent, the finite-time exponents of x and y agree within
    # 2 log(N)/N plus the regression residual.
    sc = scenarios["uniform-diag"]
    steps = 4000
    cache = OrbitCache(sc.cocycle, sc.base_point, sc.dichotomy)
    window = Window.symmetric(16)
    v = np.array([0.0, 1.0])  # unstable direction, exponent log 2
    values = np.zeros((window.length, 2))
    values[window.offset(0)] = v
    x = v.copy()
    for n in range(0, window.n_max):
        x = cache.matrix(n) @ x
        values[window.offset(n + 1)] = x
    x = v.copy()
    for n in range(0, window.n_min, -1):
        x = cache.inverse(n - 1) @ x
        values[window.offset(n - 1)] = x
    prob = sc.problem(WindowSequence(window, values))
    from shadowrds import solve

    res = solve(prob, tol=1e-10)
    linear = nonlinear_exponent(cache, Perturbation.zero(2), v, "forward", steps)
    shadowed = nonlinear_exponent(
        cache, sc.perturbation, res.orbit.value_at(0), "forward", steps
    )
    allowance = 2 * math.log(steps) / steps + linear.regression_residual \
        + shadowed.regression_residual
    assert abs(shadowed.estimate - linear.estimate) <= allowance


def test_conservation_trivial_when_unperturbed(scenarios):
    from dataclasses import replace as drep

    sc = scenarios["uniform-diag"]
    sc0 = drep(sc, perturbation=Perturbation.zero(2))
    rep = conservation_experiment(sc0, 600, 4, window_half=12, seed=5)
    assert rep.all_passed
    assert np.linalg.norm(rep.special_point) <= 1e-9


def test_conservation_remark_sharpness(scenarios):
    # The backward exponent matches -log 2; the forward exponent 0 is not a
    # linear exponent, demonstrating that only one of the two needs to match.
    sc = scenarios["remark-scalar"]
    rep = conservation_experiment(sc, 4000, 6, window_half=16, seed=6)
    assert rep.all_passed
    lin = rep.linear_exponents
    for row in rep.converse_rows:
        assert abs(row.backward + math.log(2.0)) <= 0.02
        assert row.matched == pytest.approx(-math.log(2.0), abs=1e-9)
        assert np.all(np.abs(lin - row.forward) > 0.02)  # 0 is not linear
