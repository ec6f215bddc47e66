import math

import numpy as np
import pytest

from shadowrds import (
    AdaptedNorm,
    CocycleSystem,
    DichotomyData,
    IrrationalRotation,
    OrbitCache,
    RotationPoint,
    SingularityError,
    UncertifiedTruncationError,
    adapted_norm,
    build_envelope,
    check_norm_equivalence,
    check_one_step_contraction,
    cocycle_eval,
    step,
)
from shadowrds import cocycle as cocycle_module
from shadowrds.checks import check_cocycle_property, check_dichotomy_bounds
from shadowrds.cocycle import _adapted_norm_at, _adapted_norm_parts


def _scalar_half():
    base = IrrationalRotation.default()
    cocycle = CocycleSystem(1, lambda p: np.array([[0.5]]), base)
    dich = DichotomyData(
        projector=lambda p: np.array([[1.0]]),
        rate=math.log(2.0),
        margin=0.0,
        bound=lambda p: 1.0,
    )
    return cocycle, dich, RotationPoint.from_angle(0.1)


def _diag_half_two():
    base = IrrationalRotation.default()
    cocycle = CocycleSystem(2, lambda p: np.diag([0.5, 2.0]), base)
    dich = DichotomyData(
        projector=lambda p: np.diag([1.0, 0.0]),
        rate=math.log(2.0),
        margin=0.0,
        bound=lambda p: 1.0,
    )
    return cocycle, dich, RotationPoint.from_angle(0.3)


def test_cocycle_identity_at_zero():
    cocycle, _, p = _scalar_half()
    assert np.array_equal(cocycle_eval(cocycle, p, 0), np.eye(1))


def test_cocycle_constant_scalar_power():
    cocycle, _, p = _scalar_half()
    assert cocycle_eval(cocycle, p, 3)[0, 0] == pytest.approx(0.125, abs=0.0)


def test_cocycle_negative_steps_are_inverses():
    cocycle, _, p = _diag_half_two()
    m = cocycle_eval(cocycle, p, -3)
    assert np.allclose(m, np.diag([8.0, 0.125]))


def test_cocycle_composition_random_2x2(scenarios):
    # A(w,5) = A(s^2 w, 3) A(w, 2), direct product oracle.
    sc = scenarios["uniform-rot-coupled"]
    p = sc.base_point
    whole = cocycle_eval(sc.cocycle, p, 5)
    part = cocycle_eval(sc.cocycle, step(sc.base, p, 2), 3) @ cocycle_eval(
        sc.cocycle, p, 2
    )
    rel = np.linalg.norm(whole - part, 2) / np.linalg.norm(whole, 2)
    assert rel <= 1e-12


def test_cocycle_property_sweep(scenarios, block4):
    for sc in list(scenarios.values()) + [block4]:
        res = check_cocycle_property(sc, np.random.default_rng(1))
        assert res.passed, f"{sc.name}: {res}"


def test_dichotomy_bounds_sweep(scenarios, block4):
    for sc in list(scenarios.values()) + [block4]:
        res = check_dichotomy_bounds(sc, np.random.default_rng(2))
        assert res.passed, f"{sc.name}: {res}"


def test_singular_generator_rejected():
    base = IrrationalRotation.default()
    cocycle = CocycleSystem(2, lambda p: np.array([[1.0, 0.0], [0.0, 0.0]]), base)
    with pytest.raises(SingularityError) as err:
        cocycle_eval(cocycle, RotationPoint.from_angle(0.2), 3)
    assert err.value.index == 0


def test_adapted_norm_zero_vector():
    cocycle, dich, p = _scalar_half()
    res = adapted_norm(cocycle, dich, p, np.zeros(1), 8, allow_uncertified=True)
    assert res.value == 0.0


def test_adapted_norm_scalar_exact_cancellation():
    # A = 1/2, projector identity, rate log 2: every sup term equals |x|.
    cocycle, dich, p = _scalar_half()
    res = adapted_norm(cocycle, dich, p, np.array([1.0]), 8, allow_uncertified=True)
    assert res.value == pytest.approx(1.0, abs=1e-14)


def test_adapted_norm_requires_margin_or_override():
    cocycle, dich, p = _scalar_half()
    with pytest.raises(UncertifiedTruncationError):
        adapted_norm(cocycle, dich, p, np.array([1.0]), 8)


def test_adapted_norm_extended_horizon_oracle(scenarios):
    # Brute-force sup over 10x the horizon agrees within the reported tail.
    sc = scenarios["uniform-rot-coupled"]
    cache = OrbitCache(sc.cocycle, sc.base_point, sc.dichotomy)
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.standard_normal(2)
        short = adapted_norm(sc.cocycle, sc.dichotomy, sc.base_point, x, 12, cache=cache)
        long = adapted_norm(sc.cocycle, sc.dichotomy, sc.base_point, x, 120, cache=cache)
        assert long.value >= short.value - 1e-12
        assert long.value <= short.value + short.tail + 1e-12


def test_adapted_norm_diag_extended_horizon(scenarios):
    sc = scenarios["uniform-diag"]
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = rng.standard_normal(2)
        short = adapted_norm(
            sc.cocycle, sc.dichotomy, sc.base_point, x, 8, allow_uncertified=True
        )
        long = adapted_norm(
            sc.cocycle, sc.dichotomy, sc.base_point, x, 80, allow_uncertified=True
        )
        assert long.value == pytest.approx(short.value, abs=1e-12)


def test_norm_equivalence_zero_and_scalar():
    cocycle, dich, p = _scalar_half()
    rep = check_norm_equivalence(
        cocycle, dich, p, np.zeros(1), 8, allow_uncertified=True
    )
    assert rep.passed and rep.plain == 0.0 and rep.adapted.value == 0.0
    rep = check_norm_equivalence(
        cocycle, dich, p, np.array([1.0]), 8, allow_uncertified=True
    )
    assert rep.passed
    assert (rep.plain, rep.adapted.value, rep.upper) == (1.0, 1.0, 2.0)


def test_norm_equivalence_sweep_diag():
    cocycle, dich, p = _diag_half_two()
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = rng.standard_normal(2)
        rep = check_norm_equivalence(
            cocycle, dich, p, x, 12, allow_uncertified=True
        )
        assert rep.passed


def test_one_step_contraction_trivial_and_scalar():
    cocycle, dich, p = _scalar_half()
    rep = check_one_step_contraction(
        cocycle, dich, p, np.array([1.0]), 0, 8, allow_uncertified=True
    )
    assert rep.passed and rep.stable_margin >= 0.0
    rep = check_one_step_contraction(
        cocycle, dich, p, np.array([1.0]), 3, 8, allow_uncertified=True
    )
    assert rep.passed


def test_one_step_contraction_sweep_diag():
    cocycle, dich, p = _diag_half_two()
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal(2)
        n = int(rng.integers(0, 11))
        rep = check_one_step_contraction(
            cocycle, dich, p, x, n, 12, allow_uncertified=True
        )
        assert rep.stable_margin >= -1e-9 and rep.unstable_margin >= -1e-9


def test_envelope_constant_bound():
    cocycle, dich, p = _scalar_half()
    env = build_envelope(cocycle.base, dich, p, rho=0.1, horizon=50)
    assert env.bound(p) == pytest.approx(1.0)
    assert env.build_report.dominates_bound


def test_envelope_direct_max_oracle():
    # K(sigma^n w) = 1 + |n - offset| style growth: envelope equals the
    # directly computed max over the window.
    base = IrrationalRotation.default()
    anchor = RotationPoint.from_angle(0.25)

    def bound(point):
        # distance of the angle from the anchor angle, a crude tempered shape
        gap = abs(point.angle - anchor.angle)
        return 1.0 + 10.0 * min(gap, 1.0 - gap)

    dich = DichotomyData(
        projector=lambda p: np.array([[1.0]]),
        rate=0.5,
        margin=0.1,
        bound=bound,
    )
    rho, horizon = 0.1, 100
    env = build_envelope(base, dich, anchor, rho, horizon)
    terms = [
        bound(step(base, anchor, n)) * math.exp(-rho * abs(n))
        for n in range(-horizon, horizon + 1)
    ]
    assert env.bound(anchor) == pytest.approx(max(terms), rel=1e-12)


def test_envelope_invariants_on_sampled_points(scenarios):
    sc = scenarios["nonuniform-layered"]
    rng = np.random.default_rng(12)
    env = sc.layering.envelope
    for _ in range(10):
        p = sc.sample_point(rng)
        d_here = env.bound(p)
        assert sc.dichotomy.bound(p) <= d_here * (1 + 1e-12)
        for n in (-7, -2, 1, 5):
            q = step(sc.base, p, n)
            assert env.bound(q) <= d_here * math.exp(env.rho * abs(n)) * (1 + 1e-9)


def _reference_adapted_norm_at(cache, base_index, x, horizon, allow_uncertified):
    """The per-vector adapted norm: one matrix-vector product per step."""
    dich = cache.dichotomy
    if dich is None:
        raise ValueError("adapted norm requires dichotomy data")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    mu = dich.margin
    if mu <= 0 and not allow_uncertified:
        raise UncertifiedTruncationError(
            "strictness margin is zero: adapted-norm truncation cannot be"
            " certified (pass allow_uncertified=True to override)"
        )
    x = np.asarray(x, dtype=float)
    growth = math.exp(dich.rate)

    v = cache.projector(base_index) @ x
    stable = float(np.linalg.norm(v))
    weight = 1.0
    for k in range(horizon):
        v = cache.stable_map(base_index + k) @ v
        weight *= growth
        stable = max(stable, float(np.linalg.norm(v)) * weight)

    u = x - cache.projector(base_index) @ x
    unstable = float(np.linalg.norm(u))
    weight = 1.0
    for k in range(horizon):
        u = cache.unstable_map(base_index - k - 1) @ u
        weight *= growth
        unstable = max(unstable, float(np.linalg.norm(u)) * weight)

    value = stable + unstable
    if mu > 0:
        t = cache.bound(base_index) * math.exp(-mu * (horizon + 1)) * float(
            np.linalg.norm(x)
        )
        tail = max(stable, t) + max(unstable, t) - value
        certified = True
    else:
        tail = math.inf
        certified = False
    return AdaptedNorm(value, tail, certified, stable, unstable)


@pytest.mark.parametrize(
    "rows, n_lo, norm_rows",
    [
        pytest.param(1, 3, None, id="1-3"),
        pytest.param(17, -5, None, id="17--5"),
        pytest.param(257, -200, None, id="257--200"),
        # Chunks of 7 rows put chunk boundaries inside both windows.
        pytest.param(17, -5, 7, id="17--5-chunks-of-7"),
        pytest.param(257, -200, 7, id="257--200-chunks-of-7"),
    ],
)
def test_adapted_norm_kernel_matches_per_vector_loop(
    scenarios, block4, monkeypatch, rows, n_lo, norm_rows
):
    if norm_rows is not None:
        monkeypatch.setattr(cocycle_module, "_NORM_ROWS", norm_rows)
    rng = np.random.default_rng(rows)
    for sc in list(scenarios.values()) + [block4]:
        cache = OrbitCache(sc.cocycle, sc.base_point, sc.dichotomy)
        xs = rng.standard_normal((rows, sc.cocycle.dim))
        stable, unstable = _adapted_norm_parts(cache, n_lo, xs, sc.horizon, True)
        for i, x in enumerate(xs):
            ref = _reference_adapted_norm_at(cache, n_lo + i, x, sc.horizon, True)
            assert stable[i] == pytest.approx(ref.stable_part, rel=1e-14, abs=0.0)
            assert unstable[i] == pytest.approx(ref.unstable_part, rel=1e-14, abs=0.0)
            if rows == 1:
                one = _adapted_norm_at(cache, n_lo + i, x, sc.horizon, True)
                assert one.certified == ref.certified
                assert one.value == pytest.approx(ref.value, rel=1e-14, abs=0.0)
                assert one.tail == pytest.approx(ref.tail, rel=1e-14, abs=1e-14 * ref.value)


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the test compares what was raised
        return type(exc), str(exc)
    return None


def test_adapted_norm_kernel_raises_like_per_vector_loop(block4):
    sc = block4
    xs = np.ones((3, 4))
    nonpositive = DichotomyData(
        sc.dichotomy.projector, sc.dichotomy.rate, sc.dichotomy.margin, lambda p: 0.0
    )
    zero_margin = DichotomyData(
        sc.dichotomy.projector, sc.dichotomy.rate, 0.0, sc.dichotomy.bound
    )
    cases = [
        (sc.dichotomy, 0, False),  # horizon < 1
        (zero_margin, 8, False),  # uncertified truncation
        (None, 8, False),  # no dichotomy data
        (nonpositive, 8, False),  # K <= 0
    ]
    for dich, horizon, allow in cases:
        cache = OrbitCache(sc.cocycle, sc.base_point, dich)
        ref = _raised(lambda: [
            _reference_adapted_norm_at(cache, n, x, horizon, allow)
            for n, x in enumerate(xs, -1)
        ])
        assert ref is not None
        assert _raised(lambda: _adapted_norm_parts(cache, -1, xs, horizon, allow)) == ref
        assert _raised(lambda: _adapted_norm_at(cache, -1, xs[0], horizon, allow)) == ref
