import math
from dataclasses import replace

import numpy as np
import pytest

from shadowrds import Perturbation, RangeMap, builtin_scenarios, get_scenario, step
from shadowrds.checks import (
    check_layer_coverage,
    check_layered_shadowing,
    noisy_pseudo_orbit,
    run_invariant_suite,
    scenario_self_test,
)
from shadowrds.checks import _operator_norms
from shadowrds.cocycle import envelope_along_orbit, operator_norm
from shadowrds.scenarios import _layer_indices


def test_registry_contains_required_scenarios(scenarios):
    for name in ("uniform-diag", "uniform-rot-coupled", "nonuniform-layered",
                 "remark-scalar"):
        assert name in scenarios


def test_get_scenario_unknown_name():
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")


def test_self_tests_pass(scenarios, block4):
    for sc in list(scenarios.values()) + [block4]:
        report = scenario_self_test(sc)
        assert report.passed, report.describe()


def test_uniform_diag_dichotomy_is_exact(scenarios):
    # (td1)/(td2) with K = 1 and rate log 2 hold with equality for diagonal
    # powers.
    sc = scenarios["uniform-diag"]
    from shadowrds import OrbitCache, operator_norm

    cache = OrbitCache(sc.cocycle, sc.base_point, sc.dichotomy)
    fwd = cache.projector(0)
    for n in range(1, 20):
        fwd = cache.stable_maps(n - 1, n)[0] @ fwd
        assert operator_norm(fwd) == pytest.approx(math.exp(-math.log(2.0) * n),
                                                   rel=1e-12)


def test_remark_scalar_kick_membership(scenarios):
    # The kick applies exactly on the forward orbit of the anchor point.
    sc = scenarios["remark-scalar"]
    anchor = sc.base_point
    x = np.array([0.3])
    assert sc.perturbation(anchor, x)[0] == 0.01
    assert sc.perturbation(step(sc.base, anchor, 5), x)[0] == 0.01
    assert sc.perturbation(step(sc.base, anchor, -1), x)[0] == 0.0
    other = type(anchor)(anchor.seed + 1, 0)
    assert sc.perturbation(other, x)[0] == 0.0


def test_remark_scalar_hypotheses_small_kick(scenarios):
    # Kick 0.01 fits under the delta/(4K) allowance for constant weights.
    sc = scenarios["remark-scalar"]
    assert sc.perturbation.bound <= 1.0 / 4.0


def test_nonuniform_bound_varies_per_symbol(scenarios):
    sc = scenarios["nonuniform-layered"]
    rng = np.random.default_rng(55)
    values = set()
    for _ in range(30):
        p = sc.sample_point(rng)
        values.add(round(sc.dichotomy.bound(p), 12))
    assert len(values) == 3  # one K value per symbol


def test_nonuniform_lipschitz_chain(scenarios):
    # For a point in layer m: lip(f) <= (c/T) e^{-rho|m-1|} and
    # K(sigma w) <= D(sigma w) <= T e^{rho|m-1|}, so lip(f) <= c / K(sigma w).
    sc = scenarios["nonuniform-layered"]
    lay = sc.layering
    rng = np.random.default_rng(56)
    budget = sc.perturbation.lipschitz_budget
    checked = 0
    for _ in range(40):
        p = sc.sample_point(rng)
        m = lay.layer_index(p)
        if m is None:
            continue
        checked += 1
        nxt = step(sc.base, p, 1)
        layer_lip = (budget / lay.level_threshold) * math.exp(-lay.envelope.rho * abs(m - 1))
        k_next = sc.dichotomy.bound(nxt)
        d_next = lay.envelope.bound(nxt)
        assert k_next <= d_next * (1 + 1e-12)
        assert d_next <= lay.level_threshold * math.exp(lay.envelope.rho * abs(m - 1)) * (1 + 1e-9)
        assert layer_lip <= budget / k_next * (1 + 1e-12)
        # observed Lipschitz constant of f at p stays under the layer value
        for _ in range(5):
            x = rng.standard_normal(2)
            y = rng.standard_normal(2)
            num = np.linalg.norm(sc.perturbation(p, x) - sc.perturbation(p, y))
            assert num <= layer_lip * np.linalg.norm(x - y) * (1 + 1e-12)
    assert checked >= 30


def test_nonuniform_layer_first_hitting(scenarios):
    # Layer m means sigma^m(w) is the first orbit point inside the level set.
    sc = scenarios["nonuniform-layered"]
    lay = sc.layering
    rng = np.random.default_rng(57)
    for _ in range(25):
        p = sc.sample_point(rng)
        m = lay.layer_index(p)
        if m is None:
            continue
        for k in range(m):
            assert lay.envelope.bound(step(sc.base, p, k)) > lay.level_threshold
        assert lay.envelope.bound(step(sc.base, p, m)) <= lay.level_threshold


def _per_point_layer_index(sc, point, level, scan_limit=400):
    """The layer scan as one envelope evaluation per stepped point."""
    for n in range(scan_limit + 1):
        if sc.layering.envelope.bound(step(sc.base, point, n)) <= level:
            return n
    return None


def test_layer_index_matches_per_point_scan(scenarios):
    # layer_index walks one segment through the point; it must find the
    # same layer as the per-point scan.  The shipped level e^{beta - rho} is
    # the largest D at a point whose own symbol is not 0, so about half the
    # points lie in layer 0 there; a lower level, between two attained
    # envelope values, gives deeper layers still.
    sc = scenarios["nonuniform-layered"]
    lay = sc.layering
    rng = np.random.default_rng(59)
    lower = math.exp(1.05)
    deep = 0
    for _ in range(60):
        p = sc.sample_point(rng)
        assert lay.layer_index(p) == _per_point_layer_index(sc, p, lay.level_threshold)
        [m] = _layer_indices(sc.orbit(p), lay.envelope, lower, 400, 0, 1).tolist()
        m = None if m < 0 else m
        assert m == _per_point_layer_index(sc, p, lower)
        deep += m is not None and m > 0
    assert deep >= 20


def test_layered_level_is_the_closed_form(scenarios):
    # e^{beta - rho} as the product the envelope's neighbour term reads, bit
    # for bit; math.exp(1.1) is another float.
    level = scenarios["nonuniform-layered"].layering.level_threshold
    assert level == math.exp(1.2) * math.exp(-0.1)
    assert level != math.exp(1.1)


def test_layered_points_fill_deeper_layers(scenarios):
    # The symbol-0 points (half the mass) lie outside the good set, so a
    # fixed share of sampled points lies in layers m > 0.
    sc = scenarios["nonuniform-layered"]
    rng = np.random.default_rng(62)
    layers = [sc.layering.layer_index(sc.sample_point(rng)) for _ in range(200)]
    assert None not in layers
    assert sum(m > 0 for m in layers) >= 0.4 * len(layers)


def _full_read_coverage(sc, rng, samples, depth=200):
    """Coverage as one envelope read over [0, depth] per sampled point."""
    env, level = sc.layering.envelope, sc.layering.level_threshold
    hits = 0
    for _ in range(samples):
        orbit = sc.orbit(sc.sample_point(rng))
        values = envelope_along_orbit(orbit, env.rho, env.half_width, 0, depth)
        hits += bool(np.any(values <= level))
    return hits / samples


def test_layer_coverage_scan_equals_the_full_read(scenarios):
    # At the shipped level every point is hit; at e^{0.8} a hit needs seven
    # symbols in a row without a 0, so some points find none within the depth.
    sc = scenarios["nonuniform-layered"]
    low = replace(sc, layering=replace(sc.layering, level_threshold=math.exp(0.8)))
    coverages = []
    for case in (sc, low):
        res = check_layer_coverage(case, np.random.default_rng(63), samples=80)
        coverage = _full_read_coverage(case, np.random.default_rng(63), samples=80)
        assert res.worst == 1.0 - coverage
        coverages.append(coverage)
    assert coverages[0] == 1.0
    assert 0.0 < coverages[1] < 1.0


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_operator_norms_match_per_matrix_calls_bitwise(dim):
    rng = np.random.default_rng(dim + 20)
    ms = rng.standard_normal((2000, dim, dim)) * np.exp(rng.uniform(-30, 30, (2000, 1, 1)))
    assert np.array_equal(_operator_norms(ms), [operator_norm(m) for m in ms])
    assert _operator_norms(ms[:0]).shape == (0,)


def test_nonuniform_layer_coverage(scenarios):
    res = check_layer_coverage(
        scenarios["nonuniform-layered"], np.random.default_rng(58), samples=300
    )
    assert res.passed, res


def test_nonuniform_layered_shadowing(scenarios):
    res = check_layered_shadowing(
        scenarios["nonuniform-layered"], np.random.default_rng(59)
    )
    assert res.passed, res


@pytest.mark.parametrize(
    "name",
    ["uniform-diag", "uniform-rot-coupled", "nonuniform-layered", "remark-scalar"],
)
def test_invariant_suite_all_builtins(scenarios, name):
    results = run_invariant_suite(scenarios[name], seed=60)
    for r in results:
        assert r.passed, f"{r.name}: {r.detail or r.worst}"


def test_noisy_pseudo_orbit_respects_allowance(scenarios):
    from shadowrds import Window, defect

    for name in ("uniform-diag", "uniform-rot-coupled", "nonuniform-layered"):
        sc = scenarios[name]
        pseudo, weights = noisy_pseudo_orbit(
            sc, Window.symmetric(10), np.random.default_rng(61), noise=1.0
        )
        rep = defect(sc.problem(pseudo, weights))
        assert rep.all_within, name


def test_registry_is_cached():
    assert builtin_scenarios() is builtin_scenarios()


def test_perturbations_map_blocks_row_by_row(scenarios):
    # Every builtin perturbation and the zero one: rows of a (k, d) block
    # equal one-vector calls bit for bit, and the kick returns the shape of x.
    rng = np.random.default_rng(23)
    for sc in scenarios.values():
        dim = sc.cocycle.dim
        cache = sc.orbit()
        for pert in (sc.perturbation, Perturbation.zero(dim)):
            for n in range(-100, 100):
                point = cache.point(n)
                block = rng.standard_normal((8, dim)) * np.geomspace(1e-3, 1e3, 8)[:, None]
                rows = pert(point, block)
                assert rows.shape == block.shape
                for i in range(8):
                    one = pert(point, block[i])
                    assert one.shape == (dim,)
                    assert np.array_equal(rows[i], one), (sc.name, n, i)


_BUILTINS = ["uniform-diag", "uniform-rot-coupled", "nonuniform-layered", "remark-scalar"]


@pytest.mark.parametrize("name", _BUILTINS + ["block4"])
def test_perturbation_range_form_matches_per_point_form(scenarios, block4, name):
    # The coefficient rows of a range read equal the per-point rows bit for
    # bit, and ``apply`` equals the per-point calls: on runs through 0 into
    # negative indices, across remark-scalar's anchor (offset 0 of its seed),
    # on one index, and on the empty run of a length-1 window's interior.
    # The rotation scenarios' and block4's coefficients are per-point
    # functions, read one call per point; the others carry a range form.
    sc = block4 if name == "block4" else scenarios[name]
    pert = sc.perturbation
    assert isinstance(pert.coefficients, RangeMap) == (
        name in ("nonuniform-layered", "remark-scalar")
    )
    dim = sc.cocycle.dim
    rng = np.random.default_rng(71)
    omegas = [sc.base_point, step(sc.base, sc.base_point, 3), sc.sample_point(rng)]
    for omega in omegas:
        orbit = sc.orbit(omega)
        for n_lo, n_hi in ((-40, 25), (-7, -6), (5, 5), (0, 1)):
            ns = np.arange(n_lo, n_hi)
            xs = rng.standard_normal((ns.size, dim)) * np.geomspace(1e-3, 1e3, ns.size)[:, None]
            points = [step(sc.base, omega, n) for n in ns.tolist()]
            coefs = orbit.evaluate(pert.coefficients, ns, "coefficients")
            assert len(coefs) == ns.size
            for row, point in zip(coefs, points):
                want_row = np.asarray(pert.coefficients(point), dtype=float)
                assert row.tobytes() == want_row.tobytes(), (omega, n_lo, n_hi)
            want = np.array([pert(p, x) for p, x in zip(points, xs)]).reshape(xs.shape)
            got = pert.apply(orbit, n_lo, xs)
            assert got.shape == xs.shape
            assert np.array_equal(got, want), (omega, n_lo, n_hi)
    if name == "remark-scalar":
        orbit = sc.orbit()
        sizes = orbit.evaluate(pert.coefficients, np.arange(-3, 3), "coefficients")[:, 0]
        assert sizes.tolist() == [0.0] * 3 + [0.01] * 3
        kicks = pert.apply(orbit, -3, np.zeros((6, 1)))[:, 0]
        assert kicks.tolist() == [0.0] * 3 + [0.01] * 3


@pytest.mark.parametrize("name", _BUILTINS + ["block4", "zero"])
def test_kick_returns_the_shape_of_x(scenarios, block4, name):
    # Per point the kick takes one coefficient row and a (d,) or (k, d)
    # input; along a run an (m, c) stack and (m, d) rows.  An empty run
    # gives (0, d).
    sc = block4 if name == "block4" else scenarios.get(name, scenarios["uniform-diag"])
    dim = sc.cocycle.dim
    pert = Perturbation.zero(dim) if name == "zero" else sc.perturbation
    orbit = sc.orbit()
    rng = np.random.default_rng(13)
    for n in range(-5, 5):
        cs = pert.coefficients(orbit.point(n))
        assert pert.kick(cs, rng.standard_normal(dim)).shape == (dim,)
        for k in (1, 3):
            assert pert.kick(cs, rng.standard_normal((k, dim))).shape == (k, dim)
    ns = np.arange(-4, 6)
    cs = orbit.evaluate(pert.coefficients, ns, "coefficients")
    assert pert.kick(cs, rng.standard_normal((ns.size, dim))).shape == (ns.size, dim)
    for n_lo in (-3, 0, 7):
        empty = pert.apply(orbit, n_lo, np.zeros((0, dim)))
        assert empty.shape == (0, dim) and empty.dtype == float


def test_layer_indices_match_per_point_scan_over_ranges(scenarios):
    # The layers of an index range, from one envelope read plus the scan past
    # it, equal the per-point scan at every index of the range: at the shipped
    # level (every point in layer 0), and at a lower level with the shipped,
    # a short and a zero scan limit, where deeper layers and None both occur.
    sc = scenarios["nonuniform-layered"]
    lay = sc.layering
    rng = np.random.default_rng(73)
    seen, open_tails = set(), 0
    for level, scan_limit in (
        (lay.level_threshold, 400), (math.exp(1.05), 400), (math.exp(1.05), 3),
        (math.exp(1.05), 0),
    ):
        for _ in range(6):
            p = sc.sample_point(rng)
            n_lo = int(rng.integers(-30, 5))
            n_hi = n_lo + int(rng.integers(1, 40))
            layers = _layer_indices(sc.orbit(p), lay.envelope, level, scan_limit, n_lo, n_hi)
            got = [None if m < 0 else m for m in layers.tolist()]
            want = [
                _per_point_layer_index(sc, step(sc.base, p, n), level, scan_limit)
                for n in range(n_lo, n_hi)
            ]
            assert got == want, (p, level, scan_limit, n_lo, n_hi)
            seen.update("none" if m is None else "deep" if m else "zero" for m in want)
            open_tails += want[-1] != 0
        empty = _layer_indices(sc.orbit(p), lay.envelope, level, scan_limit, 4, 4)
        assert empty.shape == (0,)
    assert seen == {"zero", "deep", "none"}
    assert open_tails >= 3  # ranges whose last index needed the scan past the range
