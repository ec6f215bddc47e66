"""The invariant suite's vector checks measure whole blocks of rows in one
adapted-norm kernel call.  These tests replay the same seeded draws through
the one-vector public functions (one-row calls of the contraction check's
batched form), and through per-vector reference loops, and
require every per-row value to carry the same bits, and each check's
reported worst value to be the one the one-vector replay gives.  The suite's
CSV cannot show this: several of its ``worst`` values start at 0.0 and stay
there on every builtin scenario."""

import math
from dataclasses import replace

import numpy as np
import pytest

from shadowrds import (
    WindowSequence,
    check_norm_equivalence,
    green_apply,
    green_norm_bound_check,
    source_term,
    weighted_norm,
)
from shadowrds import checks
from shadowrds.checks import (
    _GREEN_HALF,
    _check_perturbation_lipschitz,
    _operator_norms,
    _orbits,
    CheckResult,
    admissible_weight_kinds,
    check_dichotomy_bounds,
    check_layered_shadowing,
    check_norm_equivalence_sweep,
    check_one_step_contraction_sweep,
    check_projectors,
    check_solver_certificates,
    check_source_lipschitz,
    noisy_pseudo_orbit,
    run_invariant_suite,
)
from shadowrds.cocycle import _adapted_norm_at, _row, check_one_step_contraction_rows
from shadowrds.green import Window, weighted_norms

NAMES = ["uniform-diag", "uniform-rot-coupled", "nonuniform-layered", "remark-scalar"]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _reference_equivalence(orbit, x):
    """(plain, upper) of the norm chain, one vector with numpy's own norm."""
    plain = float(np.linalg.norm(x))
    return plain, 2.0 * orbit.bound(0) * plain


def _reference_contraction(orbit, x, steps):
    """(stable, unstable) contraction margins: one matrix-vector product per
    step and three one-row adapted norms."""
    base = _adapted_norm_at(orbit, 0, x)
    rhs = math.exp(-orbit.dichotomy.rate * steps) * base.value
    v = orbit.projector(0) @ x
    for m in orbit.stable_maps(0, steps):
        v = m @ v
    u = x - orbit.projector(0) @ x
    for m in orbit.unstable_maps(-steps, 0)[::-1]:
        u = m @ u
    there, back = _adapted_norm_at(orbit, steps, v), _adapted_norm_at(orbit, -steps, u)
    certified = base.certified and there.certified and back.certified
    return (
        rhs - (there.value + (there.tail if certified else 0.0)),
        rhs - (back.value + (back.tail if certified else 0.0)),
    )


def test_one_block_draw_fills_the_values_of_one_draw_per_row():
    for shape in [(250, 2), (100, 17, 2), (50, 2, 17, 4)]:
        block = np.random.default_rng(7).standard_normal(shape)
        rng = np.random.default_rng(7)
        rows = [rng.standard_normal(shape[1:]) for _ in range(shape[0])]
        assert block.tobytes() == np.array(rows).tobytes()


def _record(monkeypatch, name):
    """Calls of ``checks.<name>`` as (args, result) pairs, recorded as the
    suite's checks make them."""
    calls = []
    fn = getattr(checks, name)

    def spy(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(checks, name, spy)
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_norm_equivalence_sweep_replays_one_vector_checks(scenarios, monkeypatch, name):
    sc = scenarios[name]
    calls = _record(monkeypatch, "check_norm_equivalence_rows")
    swept = np.random.default_rng(17)
    result = check_norm_equivalence_sweep(sc, swept)
    rng = np.random.default_rng(17)
    margins, failures = [], 0
    points = [orbit.omega for orbit in _orbits(sc, rng, 4)]
    assert len(calls) == len(points)
    for point, ((orbit, xs), rows) in zip(points, calls):
        assert orbit.omega == point
        replayed = [rng.standard_normal(sc.cocycle.dim) for _ in range(250)]
        assert _bits(xs) == _bits(replayed)
        reps = [check_norm_equivalence(sc.orbit(point), x) for x in replayed]
        assert _bits(rows.plain) == _bits([r.plain for r in reps])
        assert _bits(rows.upper) == _bits([r.upper for r in reps])
        refs = [_reference_equivalence(orbit, x) for x in replayed]
        assert _bits(rows.plain) == _bits([plain for plain, _ in refs])
        assert _bits(rows.upper) == _bits([upper for _, upper in refs])
        for field in ("value", "tail", "stable_part", "unstable_part"):
            want = [getattr(r.adapted, field) for r in reps]
            assert _bits(getattr(rows.adapted, field)) == _bits(want), field
        assert rows.adapted.certified is reps[0].adapted.certified
        assert rows.passed.tolist() == [r.passed for r in reps]
        failures += sum(not r.passed for r in reps)
        for r in reps:
            margins += [r.plain - r.adapted.value, r.adapted.value - r.upper]
    assert result.worst == max(margins)
    assert result.detail == f"{failures} failures"
    assert swept.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("name", NAMES)
def test_contraction_sweep_replays_one_vector_checks(scenarios, monkeypatch, name):
    sc = scenarios[name]
    calls = _record(monkeypatch, "check_one_step_contraction_rows")
    swept = np.random.default_rng(19)
    result = check_one_step_contraction_sweep(sc, swept)
    rng = np.random.default_rng(19)
    margins = []
    points = [orbit.omega for orbit in _orbits(sc, rng, 4)]
    assert len(calls) == len(points)
    for point, ((orbit, xs, steps), rows) in zip(points, calls):
        assert orbit.omega == point
        replayed, counts = [], []
        for _ in range(50):
            replayed.append(rng.standard_normal(sc.cocycle.dim))
            counts.append(int(rng.integers(0, 11)))
        assert _bits(xs) == _bits(replayed)
        assert rows.steps.tolist() == list(steps) == counts
        reps = [_row(check_one_step_contraction_rows(sc.orbit(point), x[None], [n]))
                for x, n in zip(replayed, counts)]
        assert _bits(rows.stable_margin) == _bits([r.stable_margin for r in reps])
        assert _bits(rows.unstable_margin) == _bits([r.unstable_margin for r in reps])
        refs = [_reference_contraction(orbit, x, n) for x, n in zip(replayed, counts)]
        assert _bits(rows.stable_margin) == _bits([stable for stable, _ in refs])
        assert _bits(rows.unstable_margin) == _bits([unstable for _, unstable in refs])
        assert rows.certified is reps[0].certified
        assert rows.passed.tolist() == [r.passed for r in reps]
        for r in reps:
            margins += [-r.stable_margin, -r.unstable_margin]
    assert result.worst == max(margins)
    assert swept.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("name", NAMES)
def test_green_norm_bound_check_replays_one_sequence_norms(scenarios, name):
    sc = scenarios[name]
    window = Window.symmetric(_GREEN_HALF)
    orbit = sc.orbit()
    for kind in admissible_weight_kinds(sc):
        weights = replace(sc, weight_kind=kind).default_weights(window)
        swept = np.random.default_rng(23)
        rep = green_norm_bound_check(orbit, weights, sc.epsilon, 40, swept)
        rng = np.random.default_rng(23)
        zs = [
            WindowSequence(window, rng.standard_normal((window.length, sc.cocycle.dim)))
            for _ in range(40)
        ]
        ws = [green_apply(orbit, z=z) for z in zs]
        zn = [weighted_norm(orbit, seq=z, weights=weights) for z in zs]
        wn = [weighted_norm(orbit, seq=w, weights=weights) for w in ws]
        assert _bits(weighted_norms(orbit, zs, weights)) == _bits(zn)
        assert _bits(weighted_norms(orbit, ws, weights)) == _bits(wn)
        assert rep.max_ratio == max(0.0, *(b / a for a, b in zip(zn, wn) if a != 0.0))
        assert swept.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("name", NAMES)
def test_source_lipschitz_replays_one_sequence_norms(scenarios, monkeypatch, name):
    sc = scenarios[name]
    window = Window.symmetric(_GREEN_HALF)
    calls = _record(monkeypatch, "weighted_norms")
    swept = np.random.default_rng(29)
    result = check_source_lipschitz(sc, swept)
    rng = np.random.default_rng(29)
    pseudo, weights = noisy_pseudo_orbit(sc, window, rng)
    prob = sc.problem(pseudo, weights)
    factor = (
        2.0 * sc.perturbation.lipschitz_budget * math.exp(sc.dichotomy.rate - sc.epsilon)
    )
    sources, diffs = [], []
    for _ in range(50):
        z1 = WindowSequence(window, rng.standard_normal((window.length, sc.cocycle.dim)))
        z2 = WindowSequence(window, rng.standard_normal((window.length, sc.cocycle.dim)))
        sources.append(source_term(prob, z1) - source_term(prob, z2))
        diffs.append(z1 - z2)
    num = [weighted_norm(prob.orbit, seq=s, weights=weights) for s in sources]
    den = [weighted_norm(prob.orbit, seq=z, weights=weights) for z in diffs]
    assert len(calls) == 2
    ((_, swept_sources, _), swept_num), ((_, swept_diffs, _), swept_den) = calls
    assert _bits([s.values for s in swept_sources]) == _bits([s.values for s in sources])
    assert _bits([z.values for z in swept_diffs]) == _bits([z.values for z in diffs])
    assert _bits(swept_num) == _bits(num)
    assert _bits(swept_den) == _bits(den)
    assert result.worst == max(a - factor * b for a, b in zip(num, den))
    assert swept.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("name", NAMES[:3])
def test_suite_reports_the_true_worst_margin(scenarios, name):
    # The worst margin is the largest one observed, not clamped at 0: on these
    # builtins every margin of the four checks is negative.  (remark-scalar's
    # scalar margins reach 0 exactly.)
    results = {r.name: r for r in run_invariant_suite(scenarios[name])}
    for check in ("norm-equivalence", "adapted-contraction", "source-lipschitz",
                  "perturbation-lipschitz"):
        assert results[check].worst < 0, check
        assert results[check].passed, check


def test_weighted_norms_rejects_a_foreign_window(scenarios):
    sc = scenarios["uniform-diag"]
    window = Window.symmetric(_GREEN_HALF)
    weights = sc.default_weights(window)
    other = WindowSequence.zeros(Window.symmetric(_GREEN_HALF + 1), sc.cocycle.dim)
    with pytest.raises(ValueError, match="window mismatch"):
        weighted_norms(sc.orbit(), [WindowSequence.zeros(window, sc.cocycle.dim), other], weights)
    assert weighted_norms(sc.orbit(), [], weights).shape == (0,)


# Reference copies of the structural checks as one loop per product, pair and
# vector: cocycle products one matrix at a time, one perturbation call and one
# np.linalg.norm per vector.


def _plain_cocycle(cache, n):
    out = np.eye(cache.dim)
    for m in cache.matrices(0, n):
        out = m @ out
    return out


def _reference_projectors(scenario, rng, points=4, span=32):
    idem, equiv = [], []
    for cache in _orbits(scenario, rng, points):
        p = cache.projector(0)
        idem.append(p @ p - p)
        for n in (1, 2, 5, span // 2, span):
            a_n = _plain_cocycle(cache, n)
            equiv.append((cache.projector(n) @ a_n - a_n @ p, a_n))
    worst_idem = float(np.max(_operator_norms(idem), initial=0.0))
    gap, scale = _operator_norms(np.concatenate(equiv)).reshape(-1, 2).T
    worst_equiv = float(np.max(gap / np.maximum(scale, 1e-300), initial=0.0))
    passed = worst_idem <= 1e-10 and worst_equiv <= 1e-8
    return CheckResult(
        "projector-family", max(worst_idem, worst_equiv), 1e-8, passed,
        detail=f"idempotency {worst_idem:.2e}, equivariance {worst_equiv:.2e}",
    )


def _reference_dichotomy_bounds(scenario, rng, points=3, max_n=64):
    dich = scenario.dichotomy
    strict = dich.rate + dich.margin
    maps, bounds = [], []
    for cache in _orbits(scenario, rng, points):
        k = cache.bound(0)
        fwd = cache.projector(0).copy()
        bwd = np.eye(scenario.cocycle.dim) - cache.projector(0)
        stable = cache.stable_maps(0, max_n)
        unstable = cache.unstable_maps(-max_n, 0)
        for n in range(1, max_n + 1):
            fwd = stable[n - 1] @ fwd
            bwd = unstable[max_n - n] @ bwd
            maps += [fwd, bwd]
            bounds.append(k * math.exp(-strict * n))
    norms = _operator_norms(maps).reshape(-1, 2)
    worst = float(np.max(norms / np.array(bounds)[:, None] - 1.0, initial=0.0))
    return CheckResult("dichotomy-bounds", worst, 1e-9, worst <= 1e-9)


def _reference_perturbation_lipschitz(scenario, rng):
    budget = scenario.perturbation.lipschitz_budget
    worst = -math.inf
    for orbit in _orbits(scenario, rng, 4):
        point = orbit.omega
        allowed = budget / orbit.bound(1)
        for _ in range(40):
            x = rng.standard_normal(scenario.cocycle.dim) * 2.0
            y = rng.standard_normal(scenario.cocycle.dim) * 2.0
            num = float(np.linalg.norm(
                scenario.perturbation(point, x) - scenario.perturbation(point, y)
            ))
            den = float(np.linalg.norm(x - y))
            if den > 0:
                worst = max(worst, num - allowed * den)
    return CheckResult("perturbation-lipschitz", worst, 1e-9, worst <= 1e-9)


_STRUCTURAL = [
    (check_projectors, _reference_projectors, {}),
    (check_projectors, _reference_projectors, {"points": 3, "span": 16}),
    (check_dichotomy_bounds, _reference_dichotomy_bounds, {}),
    (check_dichotomy_bounds, _reference_dichotomy_bounds, {"points": 2, "max_n": 32}),
    (_check_perturbation_lipschitz, _reference_perturbation_lipschitz, {}),
]


@pytest.mark.parametrize("check, reference, kwargs", _STRUCTURAL)
@pytest.mark.parametrize("name", NAMES + ["block4"])
def test_structural_checks_match_their_reference_loops(
    scenarios, block4, name, check, reference, kwargs
):
    sc = block4 if name == "block4" else scenarios[name]
    for seed in (0, 421, 90521):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result, expected = check(sc, rng, **kwargs), reference(sc, ref_rng, **kwargs)
        assert result == expected
        assert _bits(result.worst) == _bits(expected.worst)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("check, name", [
    (check_solver_certificates, "uniform-diag"),
    (check_layered_shadowing, "nonuniform-layered"),
])
def test_failed_orbit_residual_names_the_round_off_floor(scenarios, monkeypatch, check, name):
    solves = []

    def loose_solve(prob, **kwargs):
        solves.append(replace(checks_solve(prob, **kwargs), max_orbit_residual=2.3e-8))
        return solves[-1]

    checks_solve = checks.solve
    monkeypatch.setattr(checks, "solve", loose_solve)
    result = check(scenarios[name], np.random.default_rng(5))
    [res] = solves
    assert not result.passed and result.worst >= 2.3e-8
    assert f"orbit residual 2.30e-08 (round-off floor {res.residual_floor:.2e})" in result.detail
