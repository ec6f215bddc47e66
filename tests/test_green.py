import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shadowrds import (
    AdmissibilityError,
    OrbitCache,
    WeightSequence,
    Window,
    WindowSequence,
    cocycle_eval,
    dense_green_solve,
    green_apply,
    green_norm_bound_check,
    green_residual,
    make_weight,
    source_term,
    step,
    weighted_norm,
)
from shadowrds.checks import (
    admissible_weight_kinds,
    check_green_inversion,
    check_green_linearity,
)


def _impulse(window: Window, dim: int, at: int = 0) -> WindowSequence:
    vals = np.zeros((window.length, dim))
    vals[window.offset(at)] = 1.0
    return WindowSequence(window, vals)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(1, 5)
    with pytest.raises(ValueError):
        Window(-5, -1)
    w = Window(-4, 4)
    assert w.length == 9
    assert w.offset(-4) == 0
    with pytest.raises(IndexError):
        w.offset(5)


def test_window_sequence_arithmetic():
    w = Window(-2, 2)
    a = WindowSequence(w, np.ones((5, 2)))
    b = WindowSequence(w, np.full((5, 2), 2.0))
    assert np.allclose((a + b).values, 3.0)
    assert np.allclose((2.0 * a - b).values, 0.0)
    assert a.sup_norm() == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValueError):
        a + WindowSequence(Window(-1, 1), np.ones((3, 2)))


def test_weight_sequence_detects_bad_ratio():
    w = Window(-2, 2)
    with pytest.raises(AdmissibilityError) as err:
        WeightSequence(w, np.array([1.0, 1.0, 1.0, 1.0, 3.0]), 2.0)
    assert err.value.index == 1


def test_make_weight_families():
    w = Window(-5, 5)
    const = make_weight("constant", w, scale=1.0)
    assert const.ratio_bound == 1.0
    assert np.all(const.values == 1.0)
    expo = make_weight("exponential", w, rate=0.3)
    assert expo.value_at(2) == pytest.approx(math.exp(0.6))
    assert expo.value_at(-2) == pytest.approx(math.exp(0.6))
    assert expo.ratio_bound == pytest.approx(math.exp(0.3))
    poly = make_weight("polynomial", w)
    ratios = np.maximum(poly.values[1:] / poly.values[:-1],
                        poly.values[:-1] / poly.values[1:])
    assert float(np.max(ratios)) == pytest.approx(2.0)
    assert poly.ratio_bound == 2.0


def test_green_zero_maps_to_zero(scenarios):
    sc = scenarios["uniform-diag"]
    z = WindowSequence.zeros(Window(-6, 6), 2)
    w = green_apply(sc.cocycle, sc.dichotomy, sc.base_point, z)
    assert w.sup_norm() == 0.0
    rep = green_residual(sc.cocycle, sc.dichotomy, sc.base_point, z, w)
    assert rep.max_norm == 0.0


def test_green_scalar_impulse_geometric(scenarios):
    # d=1, A = 1/2, projector identity: impulse response is (1/2)^n forward.
    sc = scenarios["remark-scalar"]
    win = Window(-4, 4)
    z = _impulse(win, 1)
    w = green_apply(sc.cocycle, sc.dichotomy, sc.base_point, z)
    for n in win.indices():
        expect = 0.5**n if n >= 0 else 0.0
        assert w.value_at(n)[0] == pytest.approx(expect, abs=1e-15)
    rep = green_residual(sc.cocycle, sc.dichotomy, sc.base_point, z, w)
    assert rep.max_norm <= 1e-15
    assert rep.left_edge_gap <= 1e-15


def test_green_unstable_impulse_backward():
    # Pure unstable scalar: response decays backward and the right edge holds
    # no unstable future.
    import shadowrds as s

    base = s.IrrationalRotation.default()
    cocycle = s.CocycleSystem(1, lambda p: np.array([[2.0]]), base)
    dich = s.DichotomyData(
        projector=lambda p: np.array([[0.0]]),
        rate=math.log(2.0),
        margin=0.0,
        bound=lambda p: 1.0,
    )
    point = s.RotationPoint.from_angle(0.4)
    win = Window(-4, 4)
    w = green_apply(cocycle, dich, point, _impulse(win, 1))
    for n in win.indices():
        expect = -(2.0**n) if n < 0 else 0.0
        assert w.value_at(n)[0] == pytest.approx(expect, abs=1e-15)


def test_green_matches_dense_oracle(scenarios, block4):
    rng = np.random.default_rng(21)
    for sc in [scenarios["uniform-diag"], scenarios["uniform-rot-coupled"],
               scenarios["nonuniform-layered"], block4]:
        win = Window(-8, 8)
        for _ in range(5):
            z = WindowSequence(win, rng.standard_normal((win.length, sc.cocycle.dim)))
            w = green_apply(sc.cocycle, sc.dichotomy, sc.base_point, z)
            dense = dense_green_solve(sc.cocycle, sc.dichotomy, sc.base_point, z)
            rel = (w - dense).sup_norm() / w.sup_norm()
            assert rel <= 1e-10, sc.name


def test_green_residual_is_inverse_property(scenarios, block4):
    for sc in list(scenarios.values()) + [block4]:
        res = check_green_inversion(sc, np.random.default_rng(22))
        assert res.passed, f"{sc.name}: {res}"


def test_green_converse_inversion(scenarios):
    # A sequence with vanishing interior residual, instantaneous-only stable
    # part at n_min, and vanishing unstable part at n_max is reproduced by
    # green_apply of its own residual-defining input.
    sc = scenarios["uniform-rot-coupled"]
    rng = np.random.default_rng(23)
    win = Window(-6, 6)
    z = WindowSequence(win, rng.standard_normal((win.length, 2)))
    w = green_apply(sc.cocycle, sc.dichotomy, sc.base_point, z)
    # Rebuild the input from w via the residual identity, then re-apply.
    import shadowrds as s

    cache = s.OrbitCache(sc.cocycle, sc.base_point, sc.dichotomy)
    rebuilt = np.zeros_like(z.values)
    rebuilt[0] = z.value_at(win.n_min)  # only the instantaneous term survives
    for i, n in enumerate(range(win.n_min + 1, win.n_max + 1), start=1):
        rebuilt[i] = w.value_at(n) - cache.matrix(n - 1) @ w.value_at(n - 1)
    again = green_apply(sc.cocycle, sc.dichotomy, sc.base_point,
                        WindowSequence(win, rebuilt))
    assert (again - w).sup_norm() / w.sup_norm() <= 1e-10


def test_green_linearity(scenarios, block4):
    for sc in list(scenarios.values()) + [block4]:
        res = check_green_linearity(sc, np.random.default_rng(24))
        assert res.passed, f"{sc.name}: {res}"


def test_weighted_norm_zero_and_single_term(scenarios):
    sc = scenarios["remark-scalar"]
    win = Window(-4, 4)
    weights = make_weight("constant", win)
    zero = WindowSequence.zeros(win, 1)
    assert weighted_norm(
        sc.cocycle, sc.dichotomy, sc.base_point, zero, weights, 8,
        allow_uncertified=True,
    ) == 0.0
    # Unit impulse: single-term sup equals the adapted norm of the unit vector.
    val = weighted_norm(
        sc.cocycle, sc.dichotomy, sc.base_point, _impulse(win, 1), weights, 8,
        allow_uncertified=True,
    )
    assert val == pytest.approx(1.0, abs=1e-14)


def test_weighted_norm_dominates_each_index(scenarios):
    from shadowrds.cocycle import adapted_norm

    sc = scenarios["uniform-diag"]
    win = Window(-6, 6)
    weights = make_weight("constant", win)
    rng = np.random.default_rng(25)
    z = WindowSequence(win, rng.standard_normal((win.length, 2)))
    total = weighted_norm(
        sc.cocycle, sc.dichotomy, sc.base_point, z, weights, 8,
        allow_uncertified=True,
    )
    import shadowrds as s

    for n in win.indices():
        here = adapted_norm(
            sc.cocycle, sc.dichotomy, s.step(sc.base, sc.base_point, n),
            z.value_at(n), 8, allow_uncertified=True,
        ).value
        assert total >= here / weights.value_at(n) - 1e-12


def test_weighted_norm_window_mismatch(scenarios):
    sc = scenarios["uniform-diag"]
    z = WindowSequence.zeros(Window(-3, 3), 2)
    weights = make_weight("constant", Window(-2, 2))
    with pytest.raises(ValueError):
        weighted_norm(sc.cocycle, sc.dichotomy, sc.base_point, z, weights, 8,
                      allow_uncertified=True)


def test_norm_bound_formula_at_log2():
    # (1 + e^-eps) / (1 - e^-eps) at eps = log 2 is exactly 3.
    eps = math.log(2.0)
    assert (1 + math.exp(-eps)) / (1 - math.exp(-eps)) == pytest.approx(3.0, rel=1e-14)


def test_norm_bound_impulse_scalar(scenarios):
    sc = scenarios["remark-scalar"]
    win = Window(-4, 4)
    weights = make_weight("constant", win)
    rng = np.random.default_rng(26)
    rep = green_norm_bound_check(
        sc.cocycle, sc.dichotomy, sc.base_point, weights, sc.epsilon, 20, 8, rng,
        allow_uncertified=True,
    )
    assert rep.bound == pytest.approx(3.0, rel=1e-14)
    assert rep.passed


def test_norm_bound_all_scenarios_and_families(scenarios, block4):
    for sc in list(scenarios.values()) + [block4]:
        win = Window(-8, 8)
        for kind in admissible_weight_kinds(sc):
            if kind == "exponential":
                weights = make_weight(
                    "exponential", win, rate=sc.dichotomy.rate - sc.epsilon
                )
            else:
                weights = make_weight(kind, win)
            rep = green_norm_bound_check(
                sc.cocycle, sc.dichotomy, sc.base_point, weights, sc.epsilon,
                40, sc.horizon, np.random.default_rng(27),
                allow_uncertified=sc.allow_uncertified_truncation,
            )
            assert rep.passed, f"{sc.name}/{kind}: ratio {rep.max_ratio} > {rep.bound}"


def test_norm_bound_rejects_inadmissible_weights(scenarios):
    # Polynomial weights have ratio bound 2 > e^{rate - eps} for uniform-diag.
    sc = scenarios["uniform-diag"]
    win = Window(-5, 5)
    weights = make_weight("polynomial", win)
    with pytest.raises(AdmissibilityError) as err:
        green_norm_bound_check(
            sc.cocycle, sc.dichotomy, sc.base_point, weights, sc.epsilon, 5, 8,
            np.random.default_rng(28), allow_uncertified=True,
        )
    assert err.value.index is not None


_MISMATCHED_CALLS = {
    "green_apply": lambda sc, z, cache: green_apply(
        sc.cocycle, sc.dichotomy, sc.base_point, z, cache=cache
    ),
    "weighted_norm": lambda sc, z, cache: weighted_norm(
        sc.cocycle, sc.dichotomy, sc.base_point, z,
        sc.default_weights(z.window), sc.horizon, cache=cache,
    ),
    "green_residual": lambda sc, z, cache: green_residual(
        sc.cocycle, sc.dichotomy, sc.base_point, z, z, cache=cache
    ),
    "dense_green_solve": lambda sc, z, cache: dense_green_solve(
        sc.cocycle, sc.dichotomy, sc.base_point, z, cache=cache
    ),
    "cocycle_eval": lambda sc, z, cache: cocycle_eval(
        sc.cocycle, sc.base_point, 3, cache=cache
    ),
    "source_term": lambda sc, z, cache: source_term(
        sc.problem(WindowSequence.zeros(z.window, sc.cocycle.dim)), z, cache
    ),
}


def _foreign_cache(scenarios, kind: str) -> OrbitCache:
    sc = scenarios["uniform-rot-coupled"]
    if kind == "point":
        return OrbitCache(sc.cocycle, step(sc.base, sc.base_point, 5), sc.dichotomy)
    if kind == "system":
        other = scenarios["uniform-diag"].cocycle
        return OrbitCache(other, sc.base_point, sc.dichotomy)
    return OrbitCache(sc.cocycle, sc.base_point, replace(sc.dichotomy, margin=0.1))


@pytest.mark.parametrize("kind", ["point", "system", "dichotomy"])
@pytest.mark.parametrize("func", sorted(_MISMATCHED_CALLS))
def test_cache_built_for_another_orbit_is_rejected(scenarios, func, kind):
    # A cache belongs to one (system, base point, dichotomy); cocycle_eval uses
    # no dichotomy, so only a foreign system or base point concerns it.
    sc = scenarios["uniform-rot-coupled"]
    window = Window(-3, 4)
    z = WindowSequence(window, np.random.default_rng(5).standard_normal((8, 2)))
    call = _MISMATCHED_CALLS[func]
    call(sc, z, OrbitCache(sc.cocycle, sc.base_point, sc.dichotomy))
    if func == "cocycle_eval" and kind == "dichotomy":
        call(sc, z, _foreign_cache(scenarios, kind))
        return
    with pytest.raises(ValueError, match="cache was built"):
        call(sc, z, _foreign_cache(scenarios, kind))


def test_cache_without_dichotomy_serves_dichotomy_free_calls(scenarios):
    sc = scenarios["uniform-rot-coupled"]
    cache = OrbitCache(sc.cocycle, sc.base_point)
    assert np.array_equal(
        cocycle_eval(sc.cocycle, sc.base_point, -4, cache=cache),
        cocycle_eval(sc.cocycle, sc.base_point, -4),
    )
    z = WindowSequence.zeros(Window(-2, 2), 2)
    with pytest.raises(ValueError, match="cache was built"):
        green_apply(sc.cocycle, sc.dichotomy, sc.base_point, z, cache=cache)


_WINDOW_SCENARIOS = (
    "uniform-diag", "uniform-rot-coupled", "nonuniform-layered", "remark-scalar",
    "block4",
)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    name=st.sampled_from(_WINDOW_SCENARIOS),
    left=st.integers(0, 12),
    right=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="uniform-rot-coupled", left=0, right=0, seed=0)
@example(name="block4", left=12, right=0, seed=1)
@example(name="nonuniform-layered", left=0, right=12, seed=2)
def test_green_matches_oracle_on_asymmetric_windows(
    scenarios, block4, name, left, right, seed
):
    sc = block4 if name == "block4" else scenarios[name]
    window = Window(-left, right)
    rng = np.random.default_rng(seed)
    z = WindowSequence(window, rng.standard_normal((window.length, sc.cocycle.dim)))
    cache = OrbitCache(sc.cocycle, sc.base_point, sc.dichotomy)
    w = green_apply(sc.cocycle, sc.dichotomy, sc.base_point, z, cache=cache)
    dense = dense_green_solve(sc.cocycle, sc.dichotomy, sc.base_point, z, cache=cache)
    assert (w - dense).sup_norm() <= 1e-10 * w.sup_norm()
    rep = green_residual(sc.cocycle, sc.dichotomy, sc.base_point, z, w, cache=cache)
    assert max(rep.max_norm, rep.left_edge_gap) <= 1e-10 * (1.0 + z.sup_norm())
