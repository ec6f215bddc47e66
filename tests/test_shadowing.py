import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from shadowrds import (
    ContractionError,
    NonConvergenceError,
    OrbitCache,
    Perturbation,
    RangeMap,
    ShadowingProblem,
    UncertifiedTruncationError,
    Window,
    WindowSequence,
    adapted_norm,
    check_uniqueness,
    defect,
    dense_green_solve,
    green_apply,
    green_residual,
    iteration_bound,
    make_weight,
    nonlinear_orbit,
    shadow_constant,
    solve,
    source_term,
    weighted_norm,
)
from shadowrds.checks import noisy_pseudo_orbit
from shadowrds.cocycle import _adapted_norm_parts, _row_norms, _scaled_row_norms
from shadowrds.shadowing import _defect_allowance, _source_terms, _window_steps

from conftest import scaled_norm as _scaled_norm


def _nonlinear_step(prob, n, x):
    """One step of the perturbed map at time n, read per point:
    A(sigma^n w) x + f_{sigma^n w}(x)."""
    x = np.asarray(x, dtype=float)
    return prob.orbit.matrix(n) @ x + prob.perturbation(prob.orbit.point(n), x)


def _problem_from(scenario, half=8, seed=31, noise=0.5):
    rng = np.random.default_rng(seed)
    window = Window.symmetric(half)
    pseudo, weights = noisy_pseudo_orbit(scenario, window, rng, noise=noise)
    return scenario.problem(pseudo, weights)


def test_shadow_constant_closed_forms():
    # c = 0, eps = log 2: (L, q) = (3, 0).
    L, q = shadow_constant(math.log(2.0), math.log(2.0), 0.0)
    assert (L, q) == (pytest.approx(3.0, rel=1e-14), 0.0)
    # eps = rate = log 2, c = 0.05: q = 0.3 and L = 3 / 0.7.
    L, q = shadow_constant(math.log(2.0), math.log(2.0), 0.05)
    assert q == pytest.approx(0.3, rel=1e-12)
    assert L == pytest.approx(3.0 / 0.7, rel=1e-12)


def test_shadow_constant_epsilon_equals_rate_reduction():
    # At eps = rate the contraction factor reduces to 2c(1+e^-r)/(1-e^-r).
    rate, c = 0.9, 0.02
    _, q = shadow_constant(rate, rate, c)
    assert q == pytest.approx(
        2 * c * (1 + math.exp(-rate)) / (1 - math.exp(-rate)), rel=1e-14
    )


def test_shadow_constant_rejects_supercritical():
    with pytest.raises(ContractionError):
        shadow_constant(math.log(2.0), math.log(2.0), 0.5)


def test_nonlinear_step_linear_case(scenarios):
    sc = scenarios["uniform-diag"]
    prob = _problem_from(sc)
    zero = replace(prob, perturbation=Perturbation.zero(2))
    x = np.array([0.3, -0.2])
    out = _nonlinear_step(zero, 2, x)
    assert np.allclose(out, np.diag([0.5, 2.0]) @ x)


def test_nonlinear_step_constant_kick(scenarios):
    # Scalar A = 1/2 with constant kick tau at x = 1 gives 0.5 + tau.
    sc = scenarios["remark-scalar"]
    prob = sc.problem(WindowSequence.zeros(Window(-4, 4), 1))
    out = _nonlinear_step(prob, 0, np.array([1.0]))
    assert out[0] == pytest.approx(0.51, abs=1e-15)


def test_nonlinear_step_composition(scenarios):
    sc = scenarios["uniform-diag"]
    prob = _problem_from(sc)
    x = np.array([0.4, 0.05])
    via_steps = x
    for n in range(3):
        via_steps = _nonlinear_step(prob, n, via_steps)
    orbit = nonlinear_orbit(sc.orbit(), sc.perturbation, x, Window(-1, 3))
    assert np.allclose(via_steps, orbit.value_at(3))


@pytest.mark.parametrize("window", [Window(0, 1100), Window(-1100, 0)])
def test_nonlinear_orbit_overflow_names_first_non_finite_index(scenarios, window):
    sc = scenarios["uniform-diag"]
    x0 = np.array([0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="orbit is not finite at index") as err:
            nonlinear_orbit(sc.orbit(), sc.perturbation, x0, window)
        index = int(str(err.value).rsplit(" ", 1)[1])
        assert index != 0 and window.n_min <= index <= window.n_max
        # Every index strictly between 0 and the reported one is finite.
        inner = Window(0, index - 1) if index > 0 else Window(index + 1, 0)
        orbit = nonlinear_orbit(sc.orbit(), sc.perturbation, x0, inner)
    assert np.all(np.isfinite(orbit.values))


def test_defect_zero_for_exact_orbit(scenarios):
    sc = scenarios["uniform-diag"]
    window = Window.symmetric(8)
    orbit = nonlinear_orbit(sc.orbit(), sc.perturbation, np.array([0.2, 0.1]), window)
    prob = sc.problem(orbit)
    rep = defect(prob)
    assert rep.max_norm() <= 1e-12
    assert rep.all_within


def test_defect_triangle_inequality_oracle(scenarios):
    # Jittered orbit: each defect is bounded by (1 + |A| + Lip) eta, computed
    # here directly from the jitter that produced the pseudo-orbit.
    sc = scenarios["uniform-diag"]
    rng = np.random.default_rng(33)
    window = Window.symmetric(8)
    orbit = nonlinear_orbit(sc.orbit(), sc.perturbation, np.array([0.1, -0.3]), window)
    eta = 1e-3
    jitter = rng.standard_normal((window.length, 2))
    jitter *= eta / np.linalg.norm(jitter, axis=1)[:, None]
    pseudo = WindowSequence(window, orbit.values + jitter)
    prob = sc.problem(pseudo)
    rep = defect(prob)
    lip = sc.perturbation.lipschitz_budget
    bound = (1.0 + 2.0 + lip) * eta
    assert rep.max_norm() <= bound + 1e-12


def test_defect_remark_linear_orbit_kick_sign(scenarios):
    # The exact linear orbit (1/2)^n fed to the kicked dynamics has defect
    # exactly -tau at every interior n >= 1 and zero for n <= 0.
    sc = scenarios["remark-scalar"]
    window = Window(-6, 6)
    values = np.array([[0.5**n] for n in window.indices()])
    prob = sc.problem(WindowSequence(window, values))
    rep = defect(prob)
    for i, n in enumerate(range(window.n_min + 1, window.n_max + 1)):
        expect = -0.01 if n >= 1 else 0.0
        assert rep.values[i, 0] == pytest.approx(expect, abs=1e-15)


def test_source_term_zero_cases(scenarios):
    sc = scenarios["uniform-diag"]
    window = Window.symmetric(6)
    orbit = nonlinear_orbit(sc.orbit(), Perturbation.zero(2), np.array([0.3, 0.1]), window)
    prob = replace(sc.problem(orbit), perturbation=Perturbation.zero(2))
    src = source_term(prob, WindowSequence.zeros(window, 2))
    assert src.sup_norm() <= 1e-12


def test_source_term_at_zero_is_negated_defect(scenarios):
    sc = scenarios["uniform-diag"]
    prob = _problem_from(sc)
    src = source_term(prob, WindowSequence.zeros(prob.window, 2))
    rep = defect(prob)
    assert np.allclose(src.values[1:], -rep.values, atol=1e-14)
    assert np.all(src.values[0] == 0.0)  # left-edge convention


def _counting_reads(prob):
    """``prob`` with its perturbation's coefficient reads logged: each
    per-point call appends its point, each range call ("along", indices)."""
    reads = []
    coefficients = prob.perturbation.coefficients

    def at(point):
        reads.append(point)
        return coefficients(point)

    def along(omega, ns):
        reads.append(("along", ns.tolist()))
        return coefficients.along(omega, ns)

    counted = RangeMap(at, along) if isinstance(coefficients, RangeMap) else at
    return replace(prob, perturbation=replace(prob.perturbation, coefficients=counted)), reads


def _one_window_read(prob):
    """The reads of the coefficient rows on [n_min, n_max) made once: one
    range call, or one per-point call per index."""
    ns = list(range(prob.window.n_min, prob.window.n_max))
    if isinstance(prob.perturbation.coefficients, RangeMap):
        return [("along", ns)]
    return [prob.orbit.point(n) for n in ns]


def test_stacked_source_terms_match_one_sequence_each(scenarios, block4):
    # Each sequence's source equals its own source_term bit for bit, and the
    # stack and the single calls together read the window's rows once.
    for sc in list(scenarios.values()) + [block4]:
        prob, reads = _counting_reads(_problem_from(sc))
        zs = np.random.default_rng(7).standard_normal((6, prob.window.length, sc.cocycle.dim))
        zs[2] = 0.0
        stacked = _source_terms(prob, zs)
        for z, got in zip(zs, stacked):
            want = source_term(prob, WindowSequence(prob.window, z)).values
            assert got.tobytes() == want.tobytes(), sc.name
        assert reads == _one_window_read(prob), sc.name
        assert _source_terms(prob, zs[:0]).shape == (0,) + zs.shape[1:]


def test_solve_reads_its_coefficient_rows_once(scenarios, block4):
    # The defect, every iteration's source term, the fixed-point gap and the
    # orbit residual share one read of the window's rows; so do later calls
    # on the same problem.
    iterations = []
    for sc in list(scenarios.values()) + [block4]:
        prob, reads = _counting_reads(_problem_from(sc, half=10, seed=37))
        res = solve(prob)
        iterations.append(res.iterations)
        assert reads == _one_window_read(prob), sc.name
        assert solve(prob).orbit.values.tobytes() == res.orbit.values.tobytes(), sc.name
        defect(prob)
        check_uniqueness(prob, res.orbit, res.orbit)
        assert reads == _one_window_read(prob), sc.name
        with pytest.raises(ValueError, match="read-only"):
            prob._coefficient_rows[1][...] = 0.0
    assert max(iterations) >= 5


def test_replaced_problems_read_their_own_rows(scenarios):
    sc = scenarios["nonuniform-layered"]
    prob = _problem_from(sc, half=8)
    solve(prob)

    # A swapped perturbation: a plain per-point form of the same coefficients
    # with half the kick.
    half_kick = Perturbation(
        lambda point: sc.perturbation.coefficients(point),
        lambda cs, xs: 0.5 * sc.perturbation.kick(cs, xs),
        0.5 * sc.perturbation.lipschitz_budget,
    )
    swapped, reads = _counting_reads(replace(prob, perturbation=half_kick))
    fresh = replace(sc.problem(prob.pseudo_orbit, prob.weights), perturbation=half_kick)
    got, want = solve(swapped), solve(fresh)
    assert reads == _one_window_read(swapped)
    assert got.orbit.values.tobytes() == want.orbit.values.tobytes()
    assert got.orbit_residuals.tobytes() == want.orbit_residuals.tobytes()

    # A pseudo-orbit and weights on another window.
    pseudo, weights = noisy_pseudo_orbit(sc, Window(-5, 14), np.random.default_rng(32))
    moved, reads = _counting_reads(replace(prob, pseudo_orbit=pseudo, weights=weights))
    got, want = solve(moved), solve(sc.problem(pseudo, weights))
    assert reads == _one_window_read(moved) == [("along", list(range(-5, 14)))]
    assert got.orbit.values.tobytes() == want.orbit.values.tobytes()
    assert got.orbit_residuals.tobytes() == want.orbit_residuals.tobytes()


@pytest.mark.parametrize(
    "half, names",
    [
        (10, ["uniform-diag", "uniform-rot-coupled", "nonuniform-layered", "remark-scalar", "block4"]),
        (128, ["uniform-diag", "uniform-rot-coupled", "nonuniform-layered"]),
    ],
    ids=["10", "128"],
)
def test_solve_trace_norms_equal_separate_weighted_norms(scenarios, block4, half, names):
    # Each iteration measures its step and its iterate with one stacked
    # kernel call; replaying the iterates gives the same floats bit for bit.
    for name in names:
        sc = block4 if name == "block4" else scenarios[name]
        prob = _problem_from(sc, half=half, seed=37)
        res = solve(prob)
        z = WindowSequence.zeros(prob.window, sc.cocycle.dim)
        for rec in res.trace:
            z_next = green_apply(prob.orbit, source_term(prob, z))
            assert type(rec.step_norm) is float and type(rec.correction_norm) is float
            assert rec.step_norm == weighted_norm(prob.orbit, z_next - z, prob.weights), sc.name
            assert rec.correction_norm == weighted_norm(prob.orbit, z_next, prob.weights), sc.name
            z = z_next
        assert z.values.tobytes() == res.correction.values.tobytes(), sc.name


def test_source_term_weighted_lipschitz(scenarios):
    sc = scenarios["uniform-diag"]
    prob = _problem_from(sc)
    cache = prob.orbit
    factor = 2 * sc.perturbation.lipschitz_budget * math.exp(
        sc.dichotomy.rate - sc.epsilon
    )
    rng = np.random.default_rng(34)
    for _ in range(20):
        z1 = WindowSequence(prob.window, rng.standard_normal((prob.window.length, 2)))
        z2 = WindowSequence(prob.window, rng.standard_normal((prob.window.length, 2)))
        num = weighted_norm(cache, source_term(prob, z1) - source_term(prob, z2), prob.weights)
        den = weighted_norm(cache, z1 - z2, prob.weights)
        assert num <= factor * den + 1e-9


def test_source_norm_at_zero_below_one_under_admissible_defect(scenarios):
    # |source(0)| in the weighted norm is at most 1 whenever the pseudo-orbit
    # defect respects its allowance.
    for name in ("uniform-diag", "uniform-rot-coupled", "nonuniform-layered"):
        sc = scenarios[name]
        prob = _problem_from(sc, seed=35)
        assert defect(prob).all_within
        src_norm = weighted_norm(
            sc.orbit(), source_term(prob, WindowSequence.zeros(prob.window, 2)), prob.weights
        )
        assert src_norm <= 1.0 + 1e-9, name


def test_solve_exact_orbit_one_iteration(scenarios):
    sc = scenarios["uniform-diag"]
    window = Window.symmetric(8)
    orbit = nonlinear_orbit(sc.orbit(), Perturbation.zero(2), np.array([0.2, 0.05]), window)
    prob = replace(sc.problem(orbit), perturbation=Perturbation.zero(2))
    res = solve(prob, tol=1e-12)
    assert res.iterations == 1
    assert res.correction.sup_norm() <= 1e-14
    assert np.allclose(res.orbit.values, orbit.values)


def test_solve_linear_noisy_matches_dense_oracle(scenarios):
    # With no perturbation the fixed point is reached in one application and
    # the orbit solves the linear dynamics with tiny residual.
    sc = scenarios["uniform-diag"]
    rng = np.random.default_rng(36)
    window = Window.symmetric(8)
    pert0 = Perturbation.zero(2)
    orbit = nonlinear_orbit(sc.orbit(), pert0, np.array([0.3, -0.1]), window)
    weights = sc.default_weights(window)
    jitter = rng.standard_normal((window.length, 2)) * 0.05
    pseudo = WindowSequence(window, orbit.values + jitter)
    prob = replace(sc.problem(pseudo, weights), perturbation=pert0)
    res = solve(prob, tol=1e-12)
    assert res.iterations == 1
    assert res.max_orbit_residual <= 1e-10
    # The one-shot correction is the Green image of source(0).
    expected = green_apply(sc.orbit(), source_term(prob, WindowSequence.zeros(window, 2)))
    assert (res.correction - expected).sup_norm() <= 1e-14
    dense = dense_green_solve(
        sc.orbit(), source_term(prob, WindowSequence.zeros(window, 2))
    )
    assert (res.correction - dense).sup_norm() <= 1e-10


def test_solve_certificates_all_scenarios(scenarios, block4):
    for sc in list(scenarios.values()) + [block4]:
        prob = _problem_from(sc, half=10, seed=37)
        res = solve(prob, tol=1e-10)
        L, q = prob.constants
        assert res.defect.all_within, sc.name
        assert res.shadow_ok, sc.name
        assert res.ball_ok, sc.name
        assert res.max_orbit_residual <= 1e-8, sc.name
        assert res.fixed_point_gap <= 2e-10, sc.name
        assert res.iterations <= iteration_bound(L, q, 1e-10), sc.name
        # per-index shadowing certificate in the plain norm
        for n in prob.window.indices():
            err = np.linalg.norm(res.orbit.value_at(n) - prob.pseudo_orbit.value_at(n))
            assert err <= L * prob.weights.value_at(n) + 1e-9


def test_solve_measured_contraction_ratio(scenarios):
    # Observed per-iteration contraction of T stays below q.
    sc = scenarios["uniform-diag"]
    prob = _problem_from(sc, half=10, seed=38, noise=0.9)
    res = solve(prob, tol=1e-12)
    _, q = prob.constants
    steps = [r.step_norm for r in res.trace]
    for a, b in zip(steps[1:], steps[:-1]):
        if b > 1e-13:
            assert a / b <= q + 0.01


def test_solve_rejects_supercritical_budget(scenarios):
    sc = scenarios["uniform-diag"]
    window = Window.symmetric(4)
    pseudo = WindowSequence.zeros(window, 2)
    bad = Perturbation(lambda p: (), lambda cs, x: 0.5 * np.tanh(x), 0.5, bound=0.5)
    with pytest.raises(ContractionError):
        ShadowingProblem(
            orbit=sc.orbit(),
            perturbation=bad,
            pseudo_orbit=pseudo,
            weights=sc.default_weights(window),
            epsilon=sc.epsilon,
        )


def test_margin_zero_without_consent_raises_everywhere(scenarios):
    # The consent to truncate uncertified is the dichotomy's own: without it
    # the norm, the weighted norm and the solver all refuse a zero margin.
    sc = scenarios["uniform-diag"]
    assert sc.dichotomy.margin == 0.0
    strict = replace(sc, dichotomy=replace(sc.dichotomy, allow_uncertified=False))
    window = Window.symmetric(3)
    zero = WindowSequence.zeros(window, 2)
    prob = strict.problem(zero)
    calls = [
        lambda: adapted_norm(strict.orbit(), np.array([1.0, 0.0])),
        lambda: weighted_norm(strict.orbit(), zero, make_weight("constant", window)),
        lambda: solve(prob),
    ]
    for call in calls:
        with pytest.raises(UncertifiedTruncationError, match="allow_uncertified"):
            call()


def test_problem_needs_an_orbit_with_dichotomy_data(scenarios):
    sc = scenarios["uniform-rot-coupled"]
    window = Window.symmetric(3)
    with pytest.raises(ValueError, match="without dichotomy data"):
        ShadowingProblem(
            orbit=OrbitCache(sc.cocycle, sc.base_point),
            perturbation=sc.perturbation,
            pseudo_orbit=WindowSequence.zeros(window, 2),
            weights=sc.default_weights(window),
            epsilon=sc.epsilon,
        )


def test_defect_allowance_matches_the_expressions_it_replaced(scenarios, block4):
    # One helper replaces the per-index, interior and delta/(4K) forms of the
    # allowance delta(n) / (2 K(sigma^n w)); halving is exact, so all agree bit for bit.
    window = Window(-7, 9)
    for sc in list(scenarios.values()) + [block4]:
        weights = sc.default_weights(window)
        orbit = sc.orbit()
        allowed = _defect_allowance(orbit, weights)
        per_index = np.array(
            [weights.value_at(n) / (2.0 * orbit.bound(n)) for n in window.indices()]
        )
        assert np.array_equal(allowed, per_index), sc.name
        bounds = np.array([orbit.bound(n) for n in range(window.n_min + 1, window.n_max + 1)])
        assert np.array_equal(allowed[1:], weights.values[1:] / (2.0 * bounds)), sc.name
        quarter = min(weights.value_at(n) / (4.0 * orbit.bound(n)) for n in window.indices())
        assert 0.5 * float(np.min(allowed)) == quarter, sc.name


def test_solve_nonconvergence_reports_last_step(scenarios):
    sc = scenarios["uniform-diag"]
    prob = _problem_from(sc, half=6, seed=39)
    with pytest.raises(NonConvergenceError) as err:
        solve(prob, tol=1e-14, max_iter=2)
    assert err.value.last_step > 0.0


def test_linear_hyers_ulam_constant_defect(scenarios):
    # f = 0, uniform defect allowance t: the solver realizes |x - y| <= L t.
    sc = scenarios["uniform-diag"]
    rng = np.random.default_rng(40)
    window = Window.symmetric(10)
    pert0 = Perturbation.zero(2)
    orbit = nonlinear_orbit(sc.orbit(), pert0, np.array([0.2, 0.3]), window)
    t = 0.02
    weights = make_weight("constant", window, scale=t)
    jitter = rng.standard_normal((window.length, 2))
    jitter *= (t / (2 * (1 + 2.0))) / np.linalg.norm(jitter, axis=1)[:, None]
    pseudo = WindowSequence(window, orbit.values + jitter)
    prob = replace(sc.problem(pseudo, weights), perturbation=pert0)
    res = solve(prob, tol=1e-12)
    L, _ = prob.constants
    assert res.defect.all_within
    for n in window.indices():
        err = np.linalg.norm(res.orbit.value_at(n) - pseudo.value_at(n))
        assert err <= L * t + 1e-12


def test_uniform_rescale_families(scenarios):
    window = Window.symmetric(6)
    base = make_weight("constant", window)
    assert np.allclose(base.scaled(1.0).values, base.values)
    assert np.allclose(base.scaled(2.0).values, 2.0 * base.values)
    expo = make_weight("exponential", window, rate=0.3)
    scaled = expo.scaled(4.0)
    assert scaled.ratio_bound == expo.ratio_bound
    ratios = scaled.values[1:] / scaled.values[:-1]
    assert np.allclose(ratios, expo.values[1:] / expo.values[:-1])


def test_uniqueness_identical_orbits(scenarios):
    sc = scenarios["uniform-diag"]
    window = Window.symmetric(8)
    orbit = nonlinear_orbit(sc.orbit(), sc.perturbation, np.array([0.1, 0.02]), window)
    prob = sc.problem(orbit)
    rep = check_uniqueness(prob, orbit, orbit)
    assert rep.hypothesis_met and rep.coincide


def test_uniqueness_deterministic_resolve(scenarios):
    sc = scenarios["uniform-diag"]
    prob = _problem_from(sc, half=8, seed=41)
    first = solve(prob, tol=1e-11)
    second = solve(prob, tol=1e-11)
    assert (first.orbit - second.orbit).sup_norm() <= 1e-12
    rep = check_uniqueness(prob, first.orbit, second.orbit)
    assert rep.hypothesis_met and rep.coincide


def test_uniqueness_distinct_orbits_fail_hypothesis(scenarios):
    # Distinct exact orbits separate along the hyperbolic directions, so the
    # adapted-norm closeness hypothesis fails and no verdict is issued.
    sc = scenarios["uniform-diag"]
    window = Window.symmetric(8)
    o1 = nonlinear_orbit(sc.orbit(), sc.perturbation, np.array([1.0, 0.0]), window)
    o2 = nonlinear_orbit(sc.orbit(), sc.perturbation, np.array([2.0, 0.0]), window)
    prob = sc.problem(o1)
    rep = check_uniqueness(prob, o1, o2)
    assert not rep.hypothesis_met
    assert rep.coincide is None


def test_uniqueness_rejects_non_orbits(scenarios):
    sc = scenarios["uniform-diag"]
    window = Window.symmetric(6)
    orbit = nonlinear_orbit(sc.orbit(), sc.perturbation, np.array([0.1, 0.0]), window)
    junk = WindowSequence(window, orbit.values + 0.5)
    prob = sc.problem(orbit)
    with pytest.raises(ValueError):
        check_uniqueness(prob, orbit, junk)


# Per-index reference loops for the batched window stepper: each entry is
# built from _nonlinear_step (or its two terms) one index at a time.
def _reference_defect(prob):
    y = prob.pseudo_orbit
    return np.array(
        [
            y.value_at(n) - _nonlinear_step(prob, n - 1, y.value_at(n - 1))
            for n in range(prob.window.n_min + 1, prob.window.n_max + 1)
        ]
    ).reshape(-1, y.dim)


def _reference_source(prob, z):
    win, y, cache = prob.window, prob.pseudo_orbit, prob.orbit
    out = np.zeros((win.length, z.dim))
    for n in range(win.n_min + 1, win.n_max + 1):
        m = n - 1
        out[win.offset(n)] = (
            prob.perturbation(cache.point(m), z.value_at(m) + y.value_at(m))
            + cache.matrix(m) @ y.value_at(m)
            - y.value_at(n)
        )
    return out


def _reference_green_residual(cache, z, w):
    win = z.window
    return np.array(
        [
            w.value_at(n) - cache.matrix(n - 1) @ w.value_at(n - 1) - z.value_at(n)
            for n in range(win.n_min + 1, win.n_max + 1)
        ]
    ).reshape(-1, z.dim)


def _reference_orbit_residuals(prob, orbit):
    residuals, floor = [], 0.0
    for n in range(prob.window.n_min + 1, prob.window.n_max + 1):
        prev = orbit.value_at(n - 1)
        residuals.append(orbit.value_at(n) - _nonlinear_step(prob, n - 1, prev))
        scale = float(np.linalg.norm(orbit.value_at(n))) + float(
            np.linalg.norm(prob.orbit.matrix(n - 1) @ prev)
        )
        floor = max(floor, 64.0 * float(np.finfo(float).eps) * (1.0 + scale))
    return np.array(residuals).reshape(-1, orbit.dim), floor


_STEPPER_WINDOWS = [Window(0, 0), Window(-3, 12), Window.symmetric(16)]


@pytest.mark.parametrize("window", _STEPPER_WINDOWS, ids=lambda w: f"{w.n_min}..{w.n_max}")
@pytest.mark.parametrize(
    "name",
    ["uniform-diag", "uniform-rot-coupled", "nonuniform-layered", "remark-scalar", "block4"],
)
def test_window_stepper_matches_per_index_loop(scenarios, block4, name, window):
    sc = block4 if name == "block4" else scenarios[name]
    rng = np.random.default_rng(61)
    pseudo, weights = noisy_pseudo_orbit(sc, window, rng)
    prob = sc.problem(pseudo, weights)
    z = WindowSequence(window, rng.standard_normal((window.length, sc.cocycle.dim)))

    assert np.array_equal(defect(prob).values, _reference_defect(prob))
    assert np.array_equal(source_term(prob, z).values, _reference_source(prob, z))
    cache = sc.orbit()
    w = green_apply(cache, z)
    rep = green_residual(cache, z, w)
    assert np.array_equal(rep.residuals, _reference_green_residual(cache, z, w))

    res = solve(prob)
    residuals, floor = _reference_orbit_residuals(prob, res.orbit)
    assert np.array_equal(res.orbit_residuals, residuals)
    assert type(res.residual_floor) is float
    assert res.residual_floor == floor


def test_solve_and_defect_share_one_orbit_cache(scenarios, monkeypatch):
    sc = scenarios["uniform-rot-coupled"]
    pseudo, weights = noisy_pseudo_orbit(sc, Window.symmetric(8), np.random.default_rng(31))
    created = []
    init = OrbitCache.__init__

    def counting(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OrbitCache, "__init__", counting)
    prob = sc.problem(pseudo, weights)
    solve(prob)
    defect(prob)
    assert created == [prob.orbit]
    # A replaced problem keeps its orbit segment.
    assert replace(prob, epsilon=0.4).orbit is prob.orbit


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_row_norms_match_linalg_norm_bitwise(dim):
    rng = np.random.default_rng(dim)
    rows = rng.standard_normal((20000, dim)) * 10.0 ** rng.uniform(-300, 300, (20000, 1))
    # Rows near the float limit: squares near and past the overflow threshold.
    top = np.finfo(float).max
    rows[:64] = rng.uniform(-1.0, 1.0, (64, dim)) * top
    rows[64:128] = rng.uniform(-1.0, 1.0, (64, dim)) * math.sqrt(top)
    rows[128] = 0.0
    with np.errstate(over="ignore"):
        got = _row_norms(rows)
        ref = np.array([np.linalg.norm(row) for row in rows])
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_scaled_row_norms_match_the_per_row_form_bitwise(dim):
    rng = np.random.default_rng(dim + 10)
    rows = rng.standard_normal((20000, dim)) * np.exp(rng.uniform(-700, 700, (20000, 1)))
    # Rows near the float limit whose norms are finite: sqrt(dim) / 4 < 1.
    rows[:64] = rng.uniform(-1.0, 1.0, (64, dim)) * (np.finfo(float).max / 4)
    rows[64:96] = 0.0
    got = _scaled_row_norms(rows)
    assert np.array_equal(got, [_scaled_norm(row) for row in rows])
    assert np.all(np.isfinite(got))
    assert _scaled_row_norms(np.zeros((0, dim))).shape == (0,)


def test_scaled_measures_of_zero_and_non_finite_rows(scenarios, block4):
    """A zero row measures 0; inf and nan rows are measured unscaled, so the
    adapted-norm kernel and the safe row norm are non-finite on the same rows
    and leave the rows in range beside them as they are alone."""
    for sc in list(scenarios.values()) + [block4]:
        orbit = sc.orbit()
        d = sc.cocycle.dim
        ones = np.ones(d - 1)
        odd = np.array([
            np.zeros(d), np.full(d, np.inf), np.full(d, np.nan),
            np.r_[-np.inf, ones], np.r_[np.nan, ones],
        ])
        fine = np.random.default_rng(3).standard_normal((len(odd), d))
        ns = np.zeros(2 * len(odd), dtype=np.int64)
        with np.errstate(invalid="ignore"):
            plain = _scaled_row_norms(odd)
            stable, unstable = _adapted_norm_parts(orbit, ns, np.concatenate([odd, fine]))
            unscaled = _row_norms(odd)
        alone = _adapted_norm_parts(orbit, ns[: len(fine)], fine)
        value = (stable + unstable)[: len(odd)]
        assert plain[0] == 0.0 and value[0] == 0.0, sc.name
        assert np.array_equal(plain, unscaled, equal_nan=True), sc.name
        assert np.array_equal(np.isfinite(value), np.isfinite(plain)), sc.name
        assert np.isnan(plain[[2, 4]]).all() and np.isnan(value[[2, 4]]).all(), sc.name
        assert stable[len(odd) :].tobytes() == alone[0].tobytes(), sc.name
        assert unstable[len(odd) :].tobytes() == alone[1].tobytes(), sc.name
        empty = _adapted_norm_parts(orbit, ns[:0], np.zeros((0, d)))
        assert [part.shape for part in empty] == [(0,), (0,)]


def test_solve_residual_floor_matches_the_per_row_loop(scenarios, block4):
    for sc in list(scenarios.values()) + [block4]:
        prob = _problem_from(sc, half=12)
        res = solve(prob)
        linear, _ = _window_steps(prob, res.orbit.values)
        floor, unit = 0.0, 64.0 * np.finfo(float).eps
        for x_n, ax in zip(res.orbit.values[1:], linear):
            floor = max(floor, unit * (1.0 + (_scaled_norm(x_n) + _scaled_norm(ax))))
        assert res.residual_floor == floor, sc.name


def test_perturbation_without_range_form_maps_rows_per_point(scenarios, block4):
    # Plain per-point coefficients (block4's and the rotation scenarios'
    # shifts, a test lambda) go through the per-point loop: one call per
    # index, rows equal to the range form's, and a solve through them gives
    # the same bytes.
    rng = np.random.default_rng(83)
    sc = scenarios["nonuniform-layered"]
    ranged = sc.perturbation
    seen = []

    def plain(point):
        seen.append(point)
        return ranged.coefficients(point)

    pert = Perturbation(plain, ranged.kick, ranged.lipschitz_budget, ranged.bound)
    orbit = sc.orbit()
    xs = rng.standard_normal((7, 2))
    assert np.array_equal(pert.apply(orbit, -3, xs), ranged.apply(orbit, -3, xs))
    assert seen == [orbit.point(n) for n in range(-3, 4)]
    assert pert.apply(orbit, 2, np.zeros((0, 2))).shape == (0, 2)

    prob = _problem_from(sc, half=12)
    res = solve(prob)
    res_plain = solve(replace(prob, perturbation=pert))
    assert np.array_equal(res_plain.orbit.values, res.orbit.values)
    assert np.array_equal(res_plain.orbit_residuals, res.orbit_residuals)

    assert not isinstance(block4.perturbation.coefficients, RangeMap)
    orbit4 = block4.orbit()
    xs4 = rng.standard_normal((5, 4))
    want = [block4.perturbation(orbit4.point(n), x) for n, x in zip(range(-2, 3), xs4)]
    assert np.array_equal(block4.perturbation.apply(orbit4, -2, xs4), want)


@pytest.mark.parametrize(
    "rows, match",
    [
        (lambda cs, xs: np.zeros((len(cs), 3)), r"perturbation returned shape \(3,\), expected \(2,\)"),
        (lambda cs, xs: np.zeros((len(cs) + 1, 2)), "perturbation range form returned shape"),
        (lambda cs, xs: np.zeros(len(cs)), "perturbation returned shape"),
    ],
    ids=["row-shape", "row-count", "flat"],
)
def test_perturbation_range_form_of_wrong_shape_raises(scenarios, rows, match):
    # A kick whose rows along a run have the wrong shape.
    sc = scenarios["uniform-diag"]
    bad = Perturbation(sc.perturbation.coefficients, rows, sc.perturbation.lipschitz_budget)
    with pytest.raises(ValueError, match=match):
        bad.apply(sc.orbit(), -2, np.zeros((5, 2)))
    prob = replace(_problem_from(sc), perturbation=bad)
    with pytest.raises(ValueError, match=match):
        defect(prob)
