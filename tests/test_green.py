import math
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
    adapted_norm,
    check_norm_equivalence,
    check_one_step_contraction,
    cocycle_eval,
    dense_green_solve,
    green_apply,
    green_norm_bound_check,
    green_residual,
    linear_exponents_qr,
    make_weight,
    nonlinear_orbit,
    step,
    weighted_norm,
)
from shadowrds.checks import (
    admissible_weight_kinds,
    check_green_inversion,
    check_green_linearity,
)
from shadowrds.green import _green_sweep


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


def test_sup_norm_of_rows_near_the_float_limit():
    seq = WindowSequence(Window(0, 1), np.array([[1e200, 1e200], [0.0, 0.0]]))
    assert seq.sup_norm() == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)


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
    orbit = sc.orbit()
    w = green_apply(orbit, z)
    assert w.sup_norm() == 0.0
    rep = green_residual(orbit, z, w)
    assert rep.max_norm == 0.0


def test_green_scalar_impulse_geometric(scenarios):
    # d=1, A = 1/2, projector identity: impulse response is (1/2)^n forward.
    sc = scenarios["remark-scalar"]
    win = Window(-4, 4)
    z = _impulse(win, 1)
    orbit = sc.orbit()
    w = green_apply(orbit, z)
    for n in win.indices():
        expect = 0.5**n if n >= 0 else 0.0
        assert w.value_at(n)[0] == pytest.approx(expect, abs=1e-15)
    rep = green_residual(orbit, z, w)
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
        horizon=8,
    )
    point = s.RotationPoint.from_angle(0.4)
    win = Window(-4, 4)
    w = green_apply(s.OrbitCache(cocycle, point, dich), _impulse(win, 1))
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
            w = green_apply(sc.orbit(), z)
            dense = dense_green_solve(sc.orbit(), z)
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
    cache = sc.orbit()
    w = green_apply(cache, z)
    # Rebuild the input from w via the residual identity, then re-apply.
    rebuilt = np.zeros_like(z.values)
    rebuilt[0] = z.value_at(win.n_min)  # only the instantaneous term survives
    for i, n in enumerate(range(win.n_min + 1, win.n_max + 1), start=1):
        rebuilt[i] = w.value_at(n) - cache.matrix(n - 1) @ w.value_at(n - 1)
    again = green_apply(cache, WindowSequence(win, rebuilt))
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
    assert weighted_norm(sc.orbit(), zero, weights) == 0.0
    # Unit impulse: single-term sup equals the adapted norm of the unit vector.
    val = weighted_norm(sc.orbit(), _impulse(win, 1), weights)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_weighted_norm_dominates_each_index(scenarios):
    sc = scenarios["uniform-diag"]
    win = Window(-6, 6)
    weights = make_weight("constant", win)
    rng = np.random.default_rng(25)
    z = WindowSequence(win, rng.standard_normal((win.length, 2)))
    total = weighted_norm(sc.orbit(), z, weights)
    for n in win.indices():
        here = adapted_norm(sc.orbit(step(sc.base, sc.base_point, n)), z.value_at(n)).value
        assert total >= here / weights.value_at(n) - 1e-12


def test_weighted_norm_window_mismatch(scenarios):
    sc = scenarios["uniform-diag"]
    z = WindowSequence.zeros(Window(-3, 3), 2)
    weights = make_weight("constant", Window(-2, 2))
    with pytest.raises(ValueError):
        weighted_norm(sc.orbit(), z, weights)


def test_norm_bound_formula_at_log2():
    # (1 + e^-eps) / (1 - e^-eps) at eps = log 2 is exactly 3.
    eps = math.log(2.0)
    assert (1 + math.exp(-eps)) / (1 - math.exp(-eps)) == pytest.approx(3.0, rel=1e-14)


def test_norm_bound_impulse_scalar(scenarios):
    sc = scenarios["remark-scalar"]
    win = Window(-4, 4)
    weights = make_weight("constant", win)
    rng = np.random.default_rng(26)
    rep = green_norm_bound_check(sc.orbit(), weights, sc.epsilon, 20, rng)
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
                sc.orbit(), weights, sc.epsilon, 40, np.random.default_rng(27)
            )
            assert rep.passed, f"{sc.name}/{kind}: ratio {rep.max_ratio} > {rep.bound}"


def test_norm_bound_rejects_inadmissible_weights(scenarios):
    # Polynomial weights have ratio bound 2 > e^{rate - eps} for uniform-diag.
    sc = scenarios["uniform-diag"]
    win = Window(-5, 5)
    weights = make_weight("polynomial", win)
    with pytest.raises(AdmissibilityError) as err:
        green_norm_bound_check(sc.orbit(), weights, sc.epsilon, 5, np.random.default_rng(28))
    assert err.value.index is not None


def test_cache_without_dichotomy_serves_dichotomy_free_calls(scenarios):
    sc = scenarios["uniform-rot-coupled"]
    bare = OrbitCache(sc.cocycle, sc.base_point)
    assert np.array_equal(cocycle_eval(bare, -4), cocycle_eval(sc.orbit(), -4))
    assert np.array_equal(linear_exponents_qr(bare, 50), linear_exponents_qr(sc.orbit(), 50))
    x = np.array([0.3, -0.2])
    window = Window(-2, 2)
    assert np.array_equal(
        nonlinear_orbit(bare, sc.perturbation, x, window).values,
        nonlinear_orbit(sc.orbit(), sc.perturbation, x, window).values,
    )
    z = WindowSequence.zeros(window, 2)
    weights = make_weight("constant", window)
    rng = np.random.default_rng(0)
    needs_dichotomy = [
        lambda: green_apply(bare, z),
        lambda: adapted_norm(bare, x),
        lambda: check_one_step_contraction(bare, x, 2),
        lambda: check_norm_equivalence(bare, x),
        lambda: weighted_norm(bare, z, weights),
        lambda: green_residual(bare, z, z),
        lambda: dense_green_solve(bare, z),
        lambda: green_norm_bound_check(bare, weights, sc.epsilon, 1, rng),
        lambda: bare.projectors(-2, 3),
        lambda: bare.bounds(-2, 3),
        lambda: bare.stable_maps(-2, 3),
        lambda: bare.unstable_maps(-2, 3),
    ]
    for call in needs_dichotomy:
        with pytest.raises(ValueError, match="dichotomy data"):
            call()


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
    orbit = sc.orbit()
    w = green_apply(orbit, z)
    dense = dense_green_solve(orbit, z)
    assert (w - dense).sup_norm() <= 1e-10 * w.sup_norm()
    rep = green_residual(orbit, z, w)
    assert max(rep.max_norm, rep.left_edge_gap) <= 1e-10 * (1.0 + z.sup_norm())


@pytest.mark.parametrize("name", _WINDOW_SCENARIOS)
def test_green_long_window_residual_identity(scenarios, block4, name):
    # L = 4097: too long for the dense oracle, so the output is checked
    # against the difference equation and both boundary conditions.
    sc = block4 if name == "block4" else scenarios[name]
    window = Window.symmetric(2048)
    rng = np.random.default_rng(4097)
    z = WindowSequence(window, rng.standard_normal((window.length, sc.cocycle.dim)))
    orbit = sc.orbit()
    w = green_apply(orbit, z)
    scale = 1.0 + z.sup_norm()
    rep = green_residual(orbit, z, w)
    assert rep.max_norm <= 1e-10 * scale
    assert rep.left_edge_gap <= 1e-12 * scale
    right = w.value_at(window.n_max)
    right_gap = np.linalg.norm(right - orbit.projector(window.n_max) @ right)
    assert right_gap <= 1e-12 * scale


def _stacked_product_sweep(orbit, win, zs):
    """The Green sweeps with one stacked (d, d) @ (d, 1) product per vector
    and step, all k vectors of a step in one batched call."""
    fwd = orbit.stable_maps(win.n_min, win.n_max)
    bwd = orbit.unstable_maps(win.n_min, win.n_max)
    zs = zs[..., None]
    out = np.matmul(orbit.projectors(win.n_min, win.n_max + 1), zs)
    steps = out.transpose(1, 0, 2, 3)
    qz = (zs - out).transpose(1, 0, 2, 3)
    for i in range(1, win.length):
        steps[i] += np.matmul(fwd[i - 1], steps[i - 1])
    u = np.zeros_like(qz[0])
    for i in range(win.length - 2, -1, -1):
        u = np.matmul(bwd[i], u + qz[i + 1])
        steps[i] -= u
    return out[..., 0]


@pytest.mark.parametrize("k", [1, 2, 30])
def test_green_sweep_matches_stacked_products_bit_for_bit(scenarios, block4, k):
    # k = 1 steps with plain 2-D products, k >= 2 with one dgemv per output
    # component; both round as the stacked per-vector products do.
    for sc in list(scenarios.values()) + [block4]:
        orbit = sc.orbit()
        for half in (0, 1, 16, 128):
            win = Window.symmetric(half)
            zs = np.random.default_rng(half + k).standard_normal((k, win.length, sc.cocycle.dim))
            want = _stacked_product_sweep(orbit, win, zs)
            assert np.asarray(_green_sweep(orbit, win, zs)).tobytes() == want.tobytes()
            if k == 1:
                got = green_apply(orbit, WindowSequence(win, zs[0])).values
                assert got.tobytes() == want[0].tobytes(), (sc.name, half)


def test_batched_green_sweep_matches_per_trial_green_apply(scenarios, block4):
    # The norm-bound check's one sweep over a (k, L, d) stack equals
    # green_apply on each trial bit for bit, and its report equals the ratio
    # of per-trial weighted norms.
    for sc in list(scenarios.values()) + [block4]:
        dim = sc.cocycle.dim
        for half in (0, 8, 16):
            win = Window.symmetric(half)
            orbit = sc.orbit()
            zs = np.random.default_rng(half).standard_normal((30, win.length, dim))
            want = [green_apply(orbit, WindowSequence(win, z)).values for z in zs]
            assert np.array_equal(_green_sweep(orbit, win, zs), want), (sc.name, half)

            weights = make_weight("constant", win)
            rep = green_norm_bound_check(orbit, weights, sc.epsilon, 30, np.random.default_rng(half))
            ratios = [
                weighted_norm(orbit, WindowSequence(win, w), weights)
                / weighted_norm(orbit, WindowSequence(win, z), weights)
                for z, w in zip(zs, want)
            ]
            assert rep.max_ratio == max(ratios), (sc.name, half)
