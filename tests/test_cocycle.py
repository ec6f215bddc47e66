import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowrds import (
    AdaptedNorm,
    BernoulliShift,
    CocycleSystem,
    DichotomyData,
    IrrationalRotation,
    OrbitCache,
    RangeMap,
    RotationPoint,
    ShiftPoint,
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
from shadowrds.cocycle import (
    _adapted_norm_at,
    _adapted_norm_parts,
    _adapted_norms,
    _cocycle_at,
    envelope_along_orbit,
)


def _scalar_half():
    base = IrrationalRotation.default()
    cocycle = CocycleSystem(1, lambda p: np.array([[0.5]]), base)
    dich = DichotomyData(
        projector=lambda p: np.array([[1.0]]),
        rate=math.log(2.0),
        margin=0.0,
        bound=lambda p: 1.0,
        horizon=8,
        allow_uncertified=True,
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
        horizon=12,
        allow_uncertified=True,
    )
    return cocycle, dich, RotationPoint.from_angle(0.3)


def test_cocycle_identity_at_zero():
    cocycle, _, p = _scalar_half()
    assert np.array_equal(cocycle_eval(OrbitCache(cocycle, p), 0), np.eye(1))


def test_cocycle_constant_scalar_power():
    cocycle, _, p = _scalar_half()
    assert cocycle_eval(OrbitCache(cocycle, p), 3)[0, 0] == pytest.approx(0.125, abs=0.0)


def test_cocycle_negative_steps_are_inverses():
    cocycle, _, p = _diag_half_two()
    m = cocycle_eval(OrbitCache(cocycle, p), -3)
    assert np.allclose(m, np.diag([8.0, 0.125]))


def test_cocycle_composition_random_2x2(scenarios):
    # A(w,5) = A(s^2 w, 3) A(w, 2), direct product oracle.
    sc = scenarios["uniform-rot-coupled"]
    p = sc.base_point
    whole = cocycle_eval(sc.orbit(), 5)
    part = cocycle_eval(sc.orbit(step(sc.base, p, 2)), 3) @ cocycle_eval(sc.orbit(), 2)
    rel = np.linalg.norm(whole - part, 2) / np.linalg.norm(whole, 2)
    assert rel <= 1e-12


def _plain_cocycle(orbit, n):
    """A(w, n) as one product per step onto the identity, the loop's order."""
    out = np.eye(orbit.dim)
    for m in orbit.matrices(0, n) if n >= 0 else orbit.inverses(n, 0)[::-1]:
        out = m @ out
    return out


_SCENARIO_NAMES = [
    "uniform-diag", "uniform-rot-coupled", "nonuniform-layered", "remark-scalar", "block4",
]


@pytest.mark.parametrize("name", _SCENARIO_NAMES)
def test_left_factor_off_the_segment_equals_a_new_segment(request, name):
    if name == "block4":  # built without the registry
        sc = request.getfixturevalue("block4")
    else:
        sc = request.getfixturevalue("scenarios")[name]
    orbit = sc.orbit(sc.sample_point(np.random.default_rng(3)))

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.integers(-64, 64), st.integers(-64, 64))
    def left_factor(n, m):
        shifted = cocycle_eval(sc.orbit(orbit.point(m)), n)
        assert _cocycle_at(orbit, m, n).tobytes() == shifted.tobytes()

    left_factor()
    assert cocycle_eval(orbit, 5).tobytes() == _plain_cocycle(orbit, 5).tobytes()
    assert cocycle_eval(orbit, -5).tobytes() == _plain_cocycle(orbit, -5).tobytes()


# The first step n whose product leaves the float range, from each builtin's base point.
_FIRST_NON_FINITE = [
    ("uniform-diag", 1024), ("uniform-diag", -1024),
    ("uniform-rot-coupled", 888), ("uniform-rot-coupled", -888),
    ("nonuniform-layered", 474), ("nonuniform-layered", -473),
    ("remark-scalar", -1024),
]


@pytest.mark.parametrize("name, first", _FIRST_NON_FINITE)
def test_cocycle_eval_names_the_first_step_beyond_the_float_range(scenarios, name, first):
    orbit = scenarios[name].orbit()
    last = first - (1 if first > 0 else -1)
    kept = cocycle_eval(orbit, last)
    assert np.isfinite(kept).all()
    assert kept.tobytes() == _plain_cocycle(orbit, last).tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(_plain_cocycle(orbit, first)).all()
        for n in (first, first + (first - last)):
            with pytest.raises(ValueError, match=rf"float range at step n = {first}$"):
                cocycle_eval(orbit, n)


def test_cocycle_eval_stays_finite_where_the_product_contracts(scenarios):
    orbit = scenarios["remark-scalar"].orbit()
    a = cocycle_eval(orbit, 1024)
    assert np.isfinite(a).all() and a.tobytes() == _plain_cocycle(orbit, 1024).tobytes()


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
        cocycle_eval(OrbitCache(cocycle, RotationPoint.from_angle(0.2)), 3)
    assert err.value.index == 0


def _offset_generator(bad=(), calls=None, range_form=False):
    """A 2 x 2 generator over a Bernoulli shift, singular at the offsets in ``bad``;
    with ``range_form`` it is a RangeMap whose range form stacks the same values."""

    def gen(point):
        if calls is not None:
            calls.append(point.offset)
        if point.offset in bad:
            return np.array([[1.0, 0.0], [0.0, 0.0]])
        return np.array([[2.0, 0.1 * (point.offset % 7)], [0.0, 0.5]])

    def along(omega, ns):
        return np.array([gen(ShiftPoint(omega.seed, omega.offset + n)) for n in ns.tolist()])

    return CocycleSystem(
        2, RangeMap(gen, along) if range_form else gen, BernoulliShift(2, (0.5, 0.5))
    )


def test_range_fill_names_the_singular_index_like_a_single_fill():
    with pytest.raises(SingularityError) as single:
        OrbitCache(_offset_generator(bad=(7,)), ShiftPoint(5)).matrix(7)
    for range_form in (False, True):
        cocycle = _offset_generator(bad=(7,), range_form=range_form)
        with pytest.raises(SingularityError) as block:
            OrbitCache(cocycle, ShiftPoint(5)).matrices(0, 20)
        assert block.value.index == single.value.index == 7
        assert str(block.value) == str(single.value)
        with pytest.raises(SingularityError) as inverse:
            OrbitCache(cocycle, ShiftPoint(5)).inverses(-3, 20)
        assert inverse.value.index == 7
        # Two bad entries in one fill: the lowest index is named.
        two_bad = _offset_generator(bad=(4, 11), range_form=range_form)
        with pytest.raises(SingularityError) as two:
            OrbitCache(two_bad, ShiftPoint(5)).matrices(0, 20)
        assert two.value.index == 4


def test_range_fill_rejects_non_finite_generator_values():
    cocycle = CocycleSystem(1, lambda p: np.array([[np.nan if p.offset == 3 else 1.0]]),
                            BernoulliShift(2, (0.5, 0.5)))
    with pytest.raises(ValueError, match="non-finite"):
        OrbitCache(cocycle, ShiftPoint(5)).matrices(0, 8)


def test_range_reads_fill_each_index_once_and_match_per_matrix_values():
    calls = []
    cocycle = _offset_generator(calls=calls)
    cache = OrbitCache(cocycle, ShiftPoint(5))
    cache.matrices(0, 5)
    cache.matrix(12)
    cache.inverses(-4, 2)
    cache.matrix(-30)
    mats = cache.matrices(-30, 15)
    invs = cache.inverses(-30, 15)
    assert sorted(calls) == list(range(-30, 15))
    for n in range(-30, 15):
        ref = np.asarray(cocycle.generator(ShiftPoint(5, n)), dtype=float)
        assert np.array_equal(mats[n + 30], ref)
        assert np.array_equal(cache.matrix(n), ref)
        assert np.array_equal(invs[n + 30], np.linalg.inv(ref))
        assert np.array_equal(cache.inverse(n), np.linalg.inv(ref))
    assert mats.shape == (45, 2, 2) and cache.matrices(3, 3).shape == (0, 2, 2)
    for block in (mats, invs, cache.matrix(0), cache.inverse(0)):
        assert not block.flags.writeable


def _counting_dichotomy(dich, calls):
    """``dich`` with projector and bound callables that record each point they see."""

    def projector(point):
        calls["projector"].append(point)
        return dich.projector(point)

    def bound(point):
        calls["bound"].append(point)
        return dich.bound(point)

    return replace(dich, projector=projector, bound=bound)


# Overlapping, far-apart, zero-crossing and empty ranges, read in this order.
_RANGES = [(0, 6), (-3, 4), (2, 9), (-40, -33), (50, 58), (-2, 2), (5, 5), (-7, -7), (-45, 60)]


def test_range_reads_match_per_point_evaluation(scenarios, block4):
    for sc in list(scenarios.values()) + [block4]:
        calls = {"projector": [], "bound": []}
        cache = OrbitCache(sc.cocycle, sc.base_point, _counting_dichotomy(sc.dichotomy, calls))
        eye = np.eye(sc.cocycle.dim)
        for n_lo, n_hi in _RANGES:
            reads = [
                cache.projectors(n_lo, n_hi), cache.bounds(n_lo, n_hi),
                cache.stable_maps(n_lo, n_hi), cache.unstable_maps(n_lo, n_hi),
            ]
            projs, ks, fwd, bwd = reads
            assert projs.shape == fwd.shape == bwd.shape == (n_hi - n_lo,) + eye.shape
            assert ks.shape == (n_hi - n_lo,)
            for block in reads:
                assert not block.flags.writeable
            for i, n in enumerate(range(n_lo, n_hi)):
                point = step(sc.base, sc.base_point, n)
                p = np.asarray(sc.dichotomy.projector(point), dtype=float)
                p_next = np.asarray(
                    sc.dichotomy.projector(step(sc.base, sc.base_point, n + 1)), dtype=float
                )
                a = np.asarray(sc.cocycle.generator(point), dtype=float)
                assert np.array_equal(projs[i], p)
                assert ks[i] == float(sc.dichotomy.bound(point))
                assert np.array_equal(fwd[i], p_next @ a)
                assert np.array_equal(bwd[i], (eye - p) @ np.linalg.inv(a))
                assert np.array_equal(cache.projector(n), p)
                assert cache.bound(n) == ks[i]
        assert not cache.projector(0).flags.writeable
        for name, seen in calls.items():
            assert len(seen) == len(set(seen)), f"{sc.name}: a {name} was evaluated twice"
        # Maps reach one index past the last range, for P at j + 1.
        assert len(calls["projector"]) == 106 and len(calls["bound"]) == 105


def _constant(value, range_form):
    """A callable with one value everywhere; with ``range_form`` a RangeMap
    whose range form stacks that value."""
    if not range_form:
        return lambda point: value
    return RangeMap(lambda point: value, lambda omega, ns: np.array([value] * len(ns)))


def test_range_fills_reject_bad_projectors_and_bounds(block4):
    sc = block4
    for range_form in (False, True):
        wrong_shape = replace(sc.dichotomy, projector=_constant(np.eye(3), range_form))
        with pytest.raises(ValueError, match="^projector has wrong shape$"):
            OrbitCache(sc.cocycle, sc.base_point, wrong_shape).projectors(-2, 5)
        with pytest.raises(ValueError, match="^projector has wrong shape$"):
            OrbitCache(sc.cocycle, sc.base_point, wrong_shape).stable_maps(-2, 5)
        wrong_gen = replace(sc.cocycle, generator=_constant(np.eye(3), range_form))
        message = r"^generator returned shape \(3, 3\), expected \(4, 4\)$"
        with pytest.raises(ValueError, match=message):
            OrbitCache(wrong_gen, sc.base_point).matrices(-2, 5)
        for k in (0.0, -1.0, math.nan):
            bad_bound = replace(sc.dichotomy, bound=_constant(k, range_form))
            with pytest.raises(ValueError, match="^dichotomy bound K must be positive$"):
                OrbitCache(sc.cocycle, sc.base_point, bad_bound).bounds(-2, 5)
            with pytest.raises(ValueError, match="^dichotomy bound K must be positive$"):
                OrbitCache(sc.cocycle, sc.base_point, bad_bound).bound(3)
    # Range forms only: too few rows.  Rows of the wrong shape, in either form.
    short = RangeMap(lambda point: 1.0, lambda omega, ns: np.ones(len(ns) - 1))
    with pytest.raises(ValueError, match=r"^bound range form returned shape \(6,\) for 7 indices$"):
        OrbitCache(sc.cocycle, sc.base_point, replace(sc.dichotomy, bound=short)).bounds(-2, 5)
    rows = RangeMap(lambda point: 1.0, lambda omega, ns: np.ones((len(ns), 2)))
    for bound in (rows, lambda point: np.ones(2)):
        with pytest.raises(ValueError, match="^dichotomy bound K has wrong shape$"):
            OrbitCache(sc.cocycle, sc.base_point, replace(sc.dichotomy, bound=bound)).bounds(-2, 5)


def _per_point(sc):
    """``sc`` with its generator, projector and bound wrapped as plain functions,
    so that an orbit segment evaluates them one point at a time."""
    cocycle, dich = sc.cocycle, sc.dichotomy
    return replace(
        sc,
        cocycle=replace(cocycle, generator=lambda p: cocycle.generator(p)),
        dichotomy=replace(
            dich, projector=lambda p: dich.projector(p), bound=lambda p: dich.bound(p)
        ),
    )


def test_range_form_fills_match_per_point_fills_bitwise(scenarios, block4):
    for sc in list(scenarios.values()) + [block4]:
        ranged, plain = sc.orbit(), _per_point(sc).orbit()
        for n_lo, n_hi in _RANGES:
            for read in ("matrices", "inverses", "projectors", "bounds",
                         "stable_maps", "unstable_maps"):
                got = getattr(ranged, read)(n_lo, n_hi)
                want = getattr(plain, read)(n_lo, n_hi)
                assert got.shape == want.shape, (sc.name, read)
                assert got.tobytes() == want.tobytes(), (sc.name, read, n_lo, n_hi)


def test_far_read_starts_a_new_block_instead_of_spanning_the_gap():
    cocycle = _offset_generator()
    cache = OrbitCache(cocycle, ShiftPoint(5))
    cache.matrices(0, 10)
    far = 3 * cocycle_module._SPAN_LIMIT
    assert np.array_equal(cache.matrix(far), cocycle.generator(ShiftPoint(5, far)))
    assert len(cache._mats.filled) <= cocycle_module._SPAN_LIMIT
    assert np.array_equal(cache.matrix(3), cocycle.generator(ShiftPoint(5, 3)))


def test_adapted_norm_zero_vector():
    cocycle, dich, p = _scalar_half()
    res = adapted_norm(OrbitCache(cocycle, p, dich), np.zeros(1))
    assert res.value == 0.0


def test_adapted_norm_scalar_exact_cancellation():
    # A = 1/2, projector identity, rate log 2: every sup term equals |x|.
    cocycle, dich, p = _scalar_half()
    res = adapted_norm(OrbitCache(cocycle, p, dich), np.array([1.0]))
    assert res.value == pytest.approx(1.0, abs=1e-14)


def test_adapted_norm_requires_margin_or_override():
    cocycle, dich, p = _scalar_half()
    with pytest.raises(UncertifiedTruncationError):
        adapted_norm(
            OrbitCache(cocycle, p, replace(dich, allow_uncertified=False)), np.array([1.0])
        )


def test_dichotomy_rejects_a_horizon_below_one():
    _, dich, _ = _scalar_half()
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        replace(dich, horizon=0)


def _with_horizon(sc, horizon):
    """A new orbit segment of the scenario, its adapted norms truncated at ``horizon``."""
    return OrbitCache(sc.cocycle, sc.base_point, replace(sc.dichotomy, horizon=horizon))


def test_adapted_norm_extended_horizon_oracle(scenarios):
    # Brute-force sup over 10x the horizon agrees within the reported tail.
    sc = scenarios["uniform-rot-coupled"]
    short_orbit, long_orbit = _with_horizon(sc, 12), _with_horizon(sc, 120)
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.standard_normal(2)
        short = adapted_norm(short_orbit, x)
        long = adapted_norm(long_orbit, x)
        assert long.value >= short.value - 1e-12
        assert long.value <= short.value + short.tail + 1e-12


def test_adapted_norm_diag_extended_horizon(scenarios):
    sc = scenarios["uniform-diag"]
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = rng.standard_normal(2)
        short = adapted_norm(_with_horizon(sc, 8), x)
        long = adapted_norm(_with_horizon(sc, 80), x)
        assert long.value == pytest.approx(short.value, abs=1e-12)


def test_norm_equivalence_zero_and_scalar():
    cocycle, dich, p = _scalar_half()
    orbit = OrbitCache(cocycle, p, dich)
    rep = check_norm_equivalence(orbit, np.zeros(1))
    assert rep.passed and rep.plain == 0.0 and rep.adapted.value == 0.0
    rep = check_norm_equivalence(orbit, np.array([1.0]))
    assert rep.passed
    assert (rep.plain, rep.adapted.value, rep.upper) == (1.0, 1.0, 2.0)


def test_norm_equivalence_sweep_diag():
    cocycle, dich, p = _diag_half_two()
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = rng.standard_normal(2)
        rep = check_norm_equivalence(OrbitCache(cocycle, p, dich), x)
        assert rep.passed


def test_one_step_contraction_trivial_and_scalar():
    cocycle, dich, p = _scalar_half()
    orbit = OrbitCache(cocycle, p, dich)
    rep = check_one_step_contraction(orbit, np.array([1.0]), 0)
    assert rep.passed and rep.stable_margin >= 0.0
    rep = check_one_step_contraction(orbit, np.array([1.0]), 3)
    assert rep.passed


def test_one_step_contraction_sweep_diag():
    cocycle, dich, p = _diag_half_two()
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal(2)
        n = int(rng.integers(0, 11))
        rep = check_one_step_contraction(OrbitCache(cocycle, p, dich), x, n)
        assert rep.stable_margin >= -1e-9 and rep.unstable_margin >= -1e-9


def test_envelope_constant_bound():
    cocycle, dich, p = _scalar_half()
    env = build_envelope(OrbitCache(cocycle, p, dich), rho=0.1, half_width=50)
    assert env.bound(p) == pytest.approx(1.0)
    assert env.build_report.dominates_bound


def _rotation_oracle_orbit():
    # K grows with the distance of the angle from the anchor angle, a crude
    # tempered shape.
    base = IrrationalRotation.default()
    anchor = RotationPoint.from_angle(0.25)

    def bound(point):
        gap = abs(point.angle - anchor.angle)
        return 1.0 + 10.0 * min(gap, 1.0 - gap)

    dich = DichotomyData(
        projector=lambda p: np.array([[1.0]]),
        rate=0.5,
        margin=0.1,
        bound=bound,
        horizon=8,
    )
    return OrbitCache(CocycleSystem(1, lambda p: np.array([[0.5]]), base), anchor, dich)


def test_envelope_direct_max_oracle():
    # The envelope equals the directly computed max over the window.
    orbit = _rotation_oracle_orbit()
    rho, half_width = 0.1, 100
    env = build_envelope(orbit, rho, half_width)
    terms = [
        orbit.dichotomy.bound(step(orbit.system.base, orbit.omega, n)) * math.exp(-rho * abs(n))
        for n in range(-half_width, half_width + 1)
    ]
    assert env.bound(orbit.omega) == pytest.approx(max(terms), rel=1e-12)


def test_envelope_along_segment_matches_per_point_envelope(scenarios):
    # One range read of K along a segment gives the same bits as the
    # envelope's per-point bound at each stepped point.
    oracle = _rotation_oracle_orbit()
    oracle_env = build_envelope(oracle, 0.1, 100)
    layered = scenarios["nonuniform-layered"]
    layered_env = layered.layering.envelope
    # Each envelope's report reads the same envelope at its anchor.
    assert oracle_env.build_report.origin_value == oracle_env.bound(oracle.omega)
    assert layered_env.build_report.origin_value == layered_env.bound(layered.base_point)
    rng = np.random.default_rng(31)
    cases = [(oracle, oracle_env)]
    for point in [layered.base_point] + [layered.sample_point(rng) for _ in range(3)]:
        cases.append((layered.orbit(point), layered_env))
    for orbit, env in cases:
        for n_lo, n_hi in ((-7, 5), (-1, 0), (0, 0), (-250, 3), (-2, 140)):
            got = envelope_along_orbit(orbit, env.rho, env.half_width, n_lo, n_hi)
            want = [
                env.bound(step(orbit.system.base, orbit.omega, n))
                for n in range(n_lo, n_hi + 1)
            ]
            assert got.tolist() == want, (n_lo, n_hi)


@pytest.mark.parametrize("scratch", [1, 201, 1000])
def test_envelope_read_in_chunks_matches_one_product(scenarios, monkeypatch, scratch):
    # Weighing the sliding windows in chunks of any size gives the bits of
    # one product over all windows.
    sc = scenarios["nonuniform-layered"]
    env = sc.layering.envelope
    orbit = sc.orbit()
    n_lo, n_hi = -37, 60
    ks = orbit.bounds(n_lo - env.half_width, n_hi + env.half_width + 1)
    decay = np.exp(-env.rho * np.abs(np.arange(-env.half_width, env.half_width + 1)))
    windows = np.lib.stride_tricks.sliding_window_view(ks, 2 * env.half_width + 1)
    want = np.max(windows * decay, axis=1)
    monkeypatch.setattr(cocycle_module, "_ENVELOPE_SCRATCH", scratch)
    got = envelope_along_orbit(orbit, env.rho, env.half_width, n_lo, n_hi)
    assert np.array_equal(got, want)


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


def _kernel_norm(v):
    """|v| rounded as the adapted-norm kernel rounds it: the squares summed in
    index order, then the square root (np.linalg.norm of a vector takes a dot
    product, which can round differently)."""
    return math.sqrt(float(np.square(v).sum()))


def _reference_adapted_norm_at(cache, base_index, x):
    """The per-vector adapted norm: one matrix-vector product per step."""
    dich = cache.dichotomy
    if dich is None:
        raise ValueError("cache was built without dichotomy data")
    horizon = dich.horizon
    mu = dich.margin
    if mu <= 0 and not dich.allow_uncertified:
        raise UncertifiedTruncationError(
            "strictness margin is zero: adapted-norm truncation cannot be"
            " certified (set DichotomyData.allow_uncertified to override)"
        )
    x = np.asarray(x, dtype=float)
    growth = math.exp(dich.rate)

    v = cache.projector(base_index) @ x
    stable = _kernel_norm(v)
    weight = 1.0
    for k in range(horizon):
        v = cache.stable_maps(base_index + k, base_index + k + 1)[0] @ v
        weight *= growth
        stable = max(stable, _kernel_norm(v) * weight)

    u = x - cache.projector(base_index) @ x
    unstable = _kernel_norm(u)
    weight = 1.0
    for k in range(horizon):
        u = cache.unstable_maps(base_index - k - 1, base_index - k)[0] @ u
        weight *= growth
        unstable = max(unstable, _kernel_norm(u) * weight)

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


def _bytes(values):
    return np.asarray(values, dtype=float).tobytes()


def _contraction_rows(rng):
    # The rows of check_one_step_contraction_rows: at 0, at n and at -n.
    steps = rng.integers(0, 11, 50)
    return np.concatenate([np.zeros(50, dtype=np.int64), steps, -steps])


# Orbit indices of the kernel's rows, drawn from a generator.
_INDEX_CASES = {
    "consecutive-1-at-3": lambda rng: np.arange(3, 4),
    "consecutive-17-at--5": lambda rng: np.arange(-5, 12),
    "consecutive-257-at--200": lambda rng: np.arange(-200, 57),
    "zeros-250": lambda rng: np.zeros(250, dtype=np.int64),
    "mixed-plus-minus-10": lambda rng: rng.integers(0, 11, 120) * rng.choice([-1, 1], 120),
    "unsorted-repeated": lambda rng: rng.permutation(np.repeat(rng.integers(-30, 31, 20), 4)),
    "stacked-windows-17x12": lambda rng: np.tile(np.arange(-8, 9), 12),
    "contraction-rows": _contraction_rows,
    "gapped-repeated-3": lambda rng: np.repeat(np.array([-40, -3, 0, 5, 90]), 3),
}


#: Per-vector references of the kernel test, keyed by the case, the system,
#: the rate boost and the rows' bytes: they do not depend on the chunk size,
#: so each is computed once for the three chunk settings.
_ADAPTED_REFS: dict = {}


@pytest.mark.parametrize(
    "chunk_rows", [None, 7, 64], ids=["one-chunk", "chunks-of-7", "chunks-of-64"]
)
@pytest.mark.parametrize("case", sorted(_INDEX_CASES))
def test_adapted_norm_kernel_matches_per_vector_loop(
    scenarios, block4, monkeypatch, case, chunk_rows
):
    rng = np.random.default_rng(len(case))
    systems = list(scenarios.values()) + [block4]
    # With the rate raised by 2 the weighted sups sit at the horizon's end, so
    # every gathered map enters the result; at the declared rate most sit at
    # k = 0, where no map does.
    for sc, boost in [(sc, boost) for sc in systems for boost in (0.0, 2.0)]:
        dich = replace(sc.dichotomy, rate=sc.dichotomy.rate + boost, allow_uncertified=True)
        d = sc.cocycle.dim
        if chunk_rows is not None:
            # Chunks of chunk_rows rows then walk the horizon one step per
            # block, and smaller ones in blocks of a few steps.  Chunk
            # boundaries fall inside runs of repeated indices, and at 7 rows
            # the 250 rows at one index, the 12 stacked windows' rows at each
            # index and the 50 contraction rows at 0 exceed the budget alone.
            monkeypatch.setattr(cocycle_module, "_NORM_SCRATCH", chunk_rows * 2 * d)
        cache = OrbitCache(sc.cocycle, sc.base_point, dich)
        ns = _INDEX_CASES[case](rng)
        xs = rng.standard_normal((len(ns), d))
        stable, unstable = _adapted_norm_parts(cache, ns, xs)
        norms = _adapted_norms(cache, ns, xs)
        key = (case, sc.name, boost, ns.tobytes(), xs.tobytes())
        if key not in _ADAPTED_REFS:
            _ADAPTED_REFS[key] = [
                _reference_adapted_norm_at(cache, int(n), x) for n, x in zip(ns, xs)
            ]
        refs = _ADAPTED_REFS[key]
        assert _bytes(stable) == _bytes([r.stable_part for r in refs]), sc.name
        assert _bytes(unstable) == _bytes([r.unstable_part for r in refs]), sc.name
        assert _bytes(norms.stable_part) == _bytes(stable)
        assert _bytes(norms.value) == _bytes([r.value for r in refs]), sc.name
        assert _bytes(norms.tail) == _bytes([r.tail for r in refs]), sc.name
        assert norms.certified == refs[0].certified
        for i in range(min(3, len(ns))):
            assert _adapted_norm_at(cache, int(ns[i]), xs[i]) == refs[i]


@pytest.mark.parametrize("d", [1, 2, 4, 7, 8, 9])
@pytest.mark.parametrize("k", [1, 2, 3, 17, 100])
def test_apply_shared_matches_one_product_per_row(d, k):
    # Signed zeros, tiny and huge entries as well as normal ones; the output
    # is a strided view, as the kernel's buffer planes and columns are.
    rng = np.random.default_rng(100 * d + k)
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, 3.5, -2.25])
    maps = rng.standard_normal((9, d, d))
    vs = rng.standard_normal((9, k, d))
    maps[0] = rng.choice(special, (d, d))
    vs[1] = rng.choice(special, (k, d))
    out = np.full((9, k, d + 3), np.nan)[..., 1 : d + 1]
    want = np.empty((9, k, d))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(9):
            for r in range(k):
                want[i, r] = (maps[i] @ vs[i, r][:, None])[:, 0]
        got = cocycle_module._apply_shared(maps, vs, out)
        # One map for all rows, as a Green sweep step applies it.
        one = cocycle_module._apply_shared(maps[2], vs[2], np.empty((k, d)))
    assert got is out
    assert _bytes(out) == _bytes(want)
    assert _bytes(one) == _bytes(want[2])


@pytest.mark.parametrize("d", [8, 9])
def test_adapted_norm_kernel_keeps_per_row_forms_for_long_vectors(d):
    # From d = 8 the kernel takes the per-row products and numpy's own sum
    # of squares; rows grouped by index must still equal the per-vector loop.
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    half = np.arange(d) < d // 2
    a = q @ np.diag(np.where(half, 0.5, 2.0)) @ q.T
    p = q @ np.diag(half.astype(float)) @ q.T
    cocycle = CocycleSystem(d, lambda point: a, IrrationalRotation.default())
    dich = DichotomyData(lambda point: p, math.log(2.0), 0.0, lambda point: 1.0, 8, True)
    cache = OrbitCache(cocycle, RotationPoint.from_angle(0.3), dich)
    ns = np.concatenate([np.zeros(40, dtype=np.int64), np.tile(np.arange(-3, 4), 5)])
    xs = rng.standard_normal((len(ns), d))
    stable, unstable = _adapted_norm_parts(cache, ns, xs)
    refs = [_reference_adapted_norm_at(cache, int(n), x) for n, x in zip(ns, xs)]
    assert _bytes(stable) == _bytes([r.stable_part for r in refs])
    assert _bytes(unstable) == _bytes([r.unstable_part for r in refs])
    for rows in (slice(0, 40), slice(40, None)):  # one index; stacked windows
        alone = _adapted_norm_parts(cache, ns[rows], xs[rows])
        assert _bytes(alone[0]) == _bytes(stable[rows])


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the test compares what was raised
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "ns", [[-1, 0, 1], [2, -1, 2], [0, 0, 0]], ids=["consecutive", "unsorted-repeated", "zeros"]
)
def test_adapted_norm_kernel_raises_like_per_vector_loop(block4, ns):
    sc = block4
    xs = np.ones((3, 4))
    cases = [
        replace(sc.dichotomy, horizon=8, margin=0.0),  # uncertified truncation
        None,  # no dichotomy data
        replace(sc.dichotomy, horizon=8, bound=lambda p: 0.0),  # K <= 0
    ]
    for dich in cases:
        cache = OrbitCache(sc.cocycle, sc.base_point, dich)
        ref = _raised(lambda: [
            _reference_adapted_norm_at(cache, n, x) for n, x in zip(ns, xs)
        ])
        assert ref is not None
        assert _raised(lambda: _adapted_norm_parts(cache, ns, xs)) == ref
        assert _raised(lambda: _adapted_norms(cache, ns, xs)) == ref
        assert _raised(lambda: _adapted_norm_at(cache, ns[0], xs[0])) == ref


@pytest.mark.parametrize("magnitude", [1e-200, 1e-150, 1e150, 1e200, 1e300])
def test_adapted_norms_near_the_float_range(scenarios, block4, magnitude):
    rng = np.random.default_rng(44)
    for sc in list(scenarios.values()) + [block4]:
        orbit = sc.orbit()
        d = sc.cocycle.dim
        units = rng.standard_normal((6, d))
        units /= np.max(np.abs(units), axis=1)[:, None]  # largest entry +-1
        xs = magnitude * units
        scale = np.max(np.abs(xs), axis=1)
        ns = np.array([0, 0, 3, -3, 7, -10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stable, unstable = _adapted_norm_parts(orbit, ns, xs)
            unit_stable, unit_unstable = _adapted_norm_parts(orbit, ns, xs / scale[:, None])
            one = adapted_norm(orbit, xs[0])
            rep = check_norm_equivalence(orbit, xs[0])
        value = stable + unstable
        assert np.all(np.isfinite(value)) and np.all(value > 0), sc.name
        want = scale * (unit_stable + unit_unstable)
        assert np.allclose(value, want, rtol=1e-14, atol=0.0), sc.name
        assert one.value == pytest.approx(value[0], rel=1e-14, abs=0.0)
        assert math.isfinite(one.tail) or not one.certified
        assert rep.plain == pytest.approx(scale[0] * np.linalg.norm(units[0]), rel=1e-14)
        assert rep.passed, (sc.name, rep)
        # Rows in range keep the bytes they get alone, and rescaled rows are
        # measured at their own indices wherever they sit in the block.
        alone = _adapted_norm_parts(orbit, ns, units)
        both = _adapted_norm_parts(
            orbit, np.concatenate([ns, ns[::-1]]), np.concatenate([units, xs[::-1]])
        )
        assert _bytes(both[0][: len(ns)]) == _bytes(alone[0])
        assert _bytes(both[1][: len(ns)]) == _bytes(alone[1])
        assert _bytes(both[0][len(ns) :]) == _bytes(stable[::-1])
        assert _bytes(both[1][len(ns) :]) == _bytes(unstable[::-1])
