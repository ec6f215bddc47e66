"""Numerical verification suite shared by self-tests, tests, and the runner.

Every check returns a CheckResult with the worst observed violation and the
threshold it was held to.  Checks draw their randomness from an explicit
generator, so a fixed seed reproduces identical results.

Each sampled point is read once, from its own orbit segment: the left factor
A(sigma^m w, n) of the composition law comes off the point's segment, and
the projector and dichotomy checks take their cocycle products from the one
running-product loop of ``cocycle`` over that segment's blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cocycle import (
    OrbitCache,
    _cocycle_at,
    _products,
    _row_norms,
    check_norm_equivalence_rows,
    check_one_step_contraction_rows,
    cocycle_eval,
    envelope_along_orbit,
)
from .green import (
    WeightSequence,
    Window,
    WindowSequence,
    dense_green_solve,
    green_apply,
    green_norm_bound_check,
    green_residual,
    weighted_norms,
)
from .shadowing import (
    ContractionError,
    _defect_allowance,
    _source_terms,
    iteration_bound,
    nonlinear_orbit,
    shadow_constant,
    solve,
)
from .scenarios import _layer_indices

__all__ = [
    "CheckResult",
    "SelfTestReport",
    "scenario_self_test",
    "noisy_pseudo_orbit",
    "admissible_weight_kinds",
    "check_cocycle_property",
    "check_projectors",
    "check_dichotomy_bounds",
    "check_norm_equivalence_sweep",
    "check_one_step_contraction_sweep",
    "check_green_linearity",
    "check_green_inversion",
    "check_green_norm_bounds",
    "check_source_lipschitz",
    "check_solver_certificates",
    "check_envelope_growth",
    "check_layer_coverage",
    "check_layered_shadowing",
    "run_invariant_suite",
]

_GREEN_HALF = 8  # window half-width of the Green and source-map checks
_SOLVER_HALF = 10  # window half-width of the solver runs
_ENVELOPE_HORIZON = 200  # orbit half-length of check_envelope_growth
_COVERAGE_DEPTH = 200  # steps within which check_layer_coverage looks for a hit
_SELF_TEST_SEED = 90521


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    threshold: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SelfTestReport:
    scenario: str
    results: tuple[CheckResult, ...]
    passed: bool

    def describe(self) -> str:
        lines = []
        for r in self.results:
            status = "ok" if r.passed else "FAIL"
            lines.append(
                f"  [{status}] {r.name}: worst {r.worst:.3e} vs {r.threshold:.3e}"
                + (f" ({r.detail})" if r.detail else "")
            )
        return "\n".join(lines)


def _operator_norms(ms) -> np.ndarray:
    """``operator_norm`` of each matrix of a stack bit for bit, in one call."""
    return np.linalg.norm(np.asarray(ms, dtype=float), 2, axis=(1, 2))


def _orbits(scenario, rng, count: int) -> list[OrbitCache]:
    """Segments through the base point and count - 1 sampled points."""
    pts = [scenario.base_point] + [scenario.sample_point(rng) for _ in range(count - 1)]
    return [scenario.orbit(point) for point in pts]


def check_cocycle_property(scenario, rng, pairs: int = 25, span: int = 32) -> CheckResult:
    """A(w, n+m) = A(sigma^m w, n) A(w, m) at relative error <= 1e-10.

    The error is measured relative to |A(s^m w, n)| |A(w, m)|, the
    backward-stable scale: for opposite-sign n, m the two factors nearly
    cancel, and no multiplication order can deliver accuracy relative to the
    (exponentially smaller) result itself.
    """
    products = []  # (whole, left, right, whole - left right) of each pair
    for orbit in _orbits(scenario, rng, 3):
        for _ in range(pairs):
            n = int(rng.integers(-span, span + 1))
            m = int(rng.integers(-span, span + 1))
            whole = cocycle_eval(orbit, n + m)
            left = _cocycle_at(orbit, m, n)
            right = cocycle_eval(orbit, m)
            products.append((whole, left, right, whole - left @ right))
    whole, left, right, gap = _operator_norms(np.concatenate(products)).reshape(-1, 4).T
    scale = np.maximum(whole, left * right)
    worst = float(np.max(gap / np.maximum(scale, 1e-300), initial=0.0))
    return CheckResult("cocycle-composition", worst, 1e-10, worst <= 1e-10)


def check_projectors(scenario, rng, points: int = 4, span: int = 32) -> CheckResult:
    """P^2 = P within 1e-10 and equivariance within 1e-8 relative."""
    idem, equiv = [], []  # P^2 - P at each point; (P(n) A_n - A_n P, A_n) at each n
    steps = (1, 2, 5, span // 2, span)
    for cache in _orbits(scenario, rng, points):
        p = cache.projector(0)
        idem.append(p @ p - p)
        a = [np.eye(cache.dim), *_products(cache.matrices(0, max(steps)), np.eye(cache.dim))]
        equiv += [(cache.projector(n) @ a[n] - a[n] @ p, a[n]) for n in steps]  # a[n] = A(w, n)
    worst_idem = float(np.max(_operator_norms(idem), initial=0.0))
    gap, scale = _operator_norms(np.concatenate(equiv)).reshape(-1, 2).T
    worst_equiv = float(np.max(gap / np.maximum(scale, 1e-300), initial=0.0))
    passed = worst_idem <= 1e-10 and worst_equiv <= 1e-8
    return CheckResult(
        "projector-family", max(worst_idem, worst_equiv), 1e-8, passed,
        detail=f"idempotency {worst_idem:.2e}, equivariance {worst_equiv:.2e}",
    )


def check_dichotomy_bounds(scenario, rng, points: int = 3, max_n: int = 64) -> CheckResult:
    """Contraction bounds with K(w) at the declared rate and at rate + margin.

    The operators A(w,n)P(w) and A(w,-n)(I-P(w)) are accumulated with
    projector-sandwiched factors, which is the same matrix in exact
    arithmetic but keeps round-off from leaking into the expanding
    complementary direction.
    """
    dich = scenario.dichotomy
    strict = dich.rate + dich.margin
    maps, bounds = [], []  # fwd then bwd for n = 1..max_n at each point; K(w) e^{-strict n}
    for cache in _orbits(scenario, rng, points):
        k, p = cache.bound(0), cache.projector(0)
        maps += [*_products(cache.stable_maps(0, max_n), p),
                 *_products(cache.unstable_maps(-max_n, 0)[::-1], np.eye(cache.dim) - p, -1)]
        bounds += [k * math.exp(-strict * n) for n in range(1, max_n + 1)]
    norms = _operator_norms(maps).reshape(-1, 2, max_n)
    worst = float(np.max(norms / np.array(bounds).reshape(-1, 1, max_n) - 1.0, initial=0.0))
    return CheckResult("dichotomy-bounds", worst, 1e-9, worst <= 1e-9)


def check_norm_equivalence_sweep(scenario, rng) -> CheckResult:
    """|x| <= |x|_w <= 2 K(w) |x| over 250 random vectors at each of 4 points."""
    worst = -math.inf
    failures = 0
    for orbit in _orbits(scenario, rng, 4):
        xs = rng.standard_normal((250, scenario.cocycle.dim))
        rep = check_norm_equivalence_rows(orbit, xs)
        failures += int(np.count_nonzero(~rep.passed))
        lower = rep.plain - rep.adapted.value
        upper = rep.adapted.value - rep.upper
        worst = max(worst, float(np.max(lower)), float(np.max(upper)))
    return CheckResult(
        "norm-equivalence", worst, 1e-9, failures == 0,
        detail=f"{failures} failures",
    )


def check_one_step_contraction_sweep(scenario, rng) -> CheckResult:
    """n-step adapted-norm contraction margins stay above -1e-9.

    50 random vectors at each of 4 points, each with a random n in [0, 10].
    """
    worst = -math.inf
    for orbit in _orbits(scenario, rng, 4):
        # Each vector's draw is followed by its step count's.
        xs, steps = zip(*[
            (rng.standard_normal(scenario.cocycle.dim), rng.integers(0, 11)) for _ in range(50)
        ])
        rep = check_one_step_contraction_rows(orbit, np.array(xs), steps)
        margins = np.concatenate([rep.stable_margin, rep.unstable_margin])
        # 0 - margin: a zero margin gives 0 here, where -margin gives -0.
        worst = max(worst, float(np.max(0.0 - margins)))
    return CheckResult("adapted-contraction", worst, 1e-9, worst <= 1e-9)


def check_green_linearity(scenario, rng) -> CheckResult:
    """Linearity of the Green operator to 1e-12 relative, over 10 trials."""
    window = Window.symmetric(_GREEN_HALF)
    orbit = scenario.orbit()
    worst = 0.0
    for _ in range(10):
        z1 = WindowSequence(window, rng.standard_normal((window.length, scenario.cocycle.dim)))
        z2 = WindowSequence(window, rng.standard_normal((window.length, scenario.cocycle.dim)))
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        combo = green_apply(orbit, z=a * z1 + b * z2)
        parts = a * green_apply(orbit, z=z1) + b * green_apply(orbit, z=z2)
        scale = max(combo.sup_norm(), 1e-300)
        worst = max(worst, (combo - parts).sup_norm() / scale)
    return CheckResult("green-linearity", worst, 1e-12, worst <= 1e-12)


def check_green_inversion(scenario, rng) -> CheckResult:
    """Residual identity and dense-oracle equivalence, both directions, 20 trials.

    Forward: the residual of green_apply output vanishes on interior indices.
    Converse: the dense boundary-value solve of the same input reproduces
    green_apply, so any sequence satisfying the residual identity plus the
    two boundary conditions is the Green image of its residual.
    """
    window = Window.symmetric(_GREEN_HALF)
    orbit = scenario.orbit()
    worst_res = 0.0
    worst_dense = 0.0
    for _ in range(20):
        z = WindowSequence(window, rng.standard_normal((window.length, scenario.cocycle.dim)))
        w = green_apply(orbit, z=z)
        rep = green_residual(orbit, z=z, w=w)
        worst_res = max(
            worst_res,
            max(rep.max_norm, rep.left_edge_gap) / (1.0 + z.sup_norm()),
        )
        dense = dense_green_solve(orbit, z=z)
        scale = max(w.sup_norm(), 1e-300)
        worst_dense = max(worst_dense, (w - dense).sup_norm() / scale)
    worst = max(worst_res, worst_dense)
    return CheckResult(
        "green-inversion", worst, 1e-10, worst <= 1e-10,
        detail=f"residual {worst_res:.2e}, dense gap {worst_dense:.2e}",
    )


def admissible_weight_kinds(scenario) -> list[str]:
    """Weight families whose ratio bound fits e^{rate - eps} for the scenario."""
    limit = math.exp(scenario.dichotomy.rate - scenario.epsilon)
    kinds = ["constant"]
    if scenario.dichotomy.rate > scenario.epsilon:
        kinds.append("exponential")
    if limit >= 2.0:
        kinds.append("polynomial")
    return kinds


def check_green_norm_bounds(scenario, rng) -> CheckResult:
    """Weighted-norm amplification below (1+e^{-eps})/(1-e^{-eps}) + 1e-6.

    100 random inputs per admissible weight family.
    """
    window = Window.symmetric(_GREEN_HALF)
    worst = -math.inf
    kinds = admissible_weight_kinds(scenario)
    for kind in kinds:
        weights = replace(scenario, weight_kind=kind).default_weights(window)
        rep = green_norm_bound_check(scenario.orbit(), weights, scenario.epsilon, 100, rng)
        worst = max(worst, rep.max_ratio - rep.bound)
    return CheckResult(
        "green-norm-bound", worst, 1e-6, worst <= 1e-6,
        detail=f"families {', '.join(kinds)}",
    )


def _jitter(
    orbit: OrbitCache,
    window: Window,
    allowed: np.ndarray,
    lipschitz: float,
    noise: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random rows of norm noise * allowed(n) / (1 + G k) on the window.

    G is the largest |A| on the window plus ``lipschitz`` and k the worst
    adjacent ratio of the allowances, so the triangle inequality keeps every
    defect of an exact orbit plus this jitter within noise times its allowance.
    """
    norms = _operator_norms(orbit.matrices(window.n_min, window.n_max))
    growth = float(np.max(norms, initial=0.0)) + lipschitz
    adjacent = float(np.max(allowed[:-1] / allowed[1:])) if len(allowed) > 1 else 1.0
    amp = noise * allowed / (1.0 + growth * adjacent)
    jitter = rng.standard_normal((window.length, orbit.dim))
    norms = np.linalg.norm(jitter, axis=1)
    norms[norms == 0] = 1.0
    return jitter / norms[:, None] * amp[:, None]


def noisy_pseudo_orbit(
    scenario,
    window: Window,
    rng: np.random.Generator,
    *,
    noise: float = 0.5,
) -> tuple[WindowSequence, WeightSequence]:
    """An exact orbit plus jitter scaled to respect the defect allowance.

    The weights are the scenario's default weights on the window.  The
    allowance at index n is delta(n) / (2 K(sigma^n w)); ``_jitter`` is
    given the perturbation Lipschitz constant c / min K over the window.
    """
    if not 0 <= noise <= 1:
        raise ValueError("noise must lie in [0, 1]")
    weights = scenario.default_weights(window)
    cache = scenario.orbit()
    start = 0.5 * rng.standard_normal(scenario.cocycle.dim)
    orbit = nonlinear_orbit(cache, scenario.perturbation, start, window)
    allowed = _defect_allowance(cache, weights)
    lipschitz = scenario.perturbation.lipschitz_budget / float(
        np.min(cache.bounds(window.n_min, window.n_max + 1))
    )
    jitter = _jitter(cache, window, allowed, lipschitz, noise, rng)
    return WindowSequence(window, orbit.values + jitter), weights


def check_source_lipschitz(scenario, rng) -> CheckResult:
    """Weighted-norm Lipschitz bound 2 c e^{rate-eps} of the source map, 50 pairs."""
    window = Window.symmetric(_GREEN_HALF)
    pseudo, weights = noisy_pseudo_orbit(scenario, window, rng)
    prob = scenario.problem(pseudo, weights)
    factor = (
        2.0
        * scenario.perturbation.lipschitz_budget
        * math.exp(scenario.dichotomy.rate - scenario.epsilon)
    )
    # Pair j draws z1 then z2: rows [j, 0] and [j, 1] of one draw, and one
    # source call maps all 100 sequences.
    draws = rng.standard_normal((50, 2, window.length, scenario.cocycle.dim))
    sources = _source_terms(prob, draws.reshape(100, window.length, -1)).reshape(draws.shape)
    num = weighted_norms(
        prob.orbit, [WindowSequence(window, a - b) for a, b in sources], weights
    )
    den = weighted_norms(prob.orbit, [WindowSequence(window, a - b) for a, b in draws], weights)
    worst = float(np.max(num - factor * den))
    return CheckResult("source-lipschitz", worst, 1e-9, worst <= 1e-9)


def _residual_issue(res) -> str:
    """A failed orbit residual with the solve's round-off floor beside it: the
    checks hold the residual to an absolute 1e-8, which may lie below the floor."""
    return f"orbit residual {res.max_orbit_residual:.2e} (round-off floor {res.residual_floor:.2e})"


def check_solver_certificates(scenario, rng) -> CheckResult:
    """Run the solver on a noisy orbit and verify every certificate.

    Window sizes are kept moderate so two-sided orbit magnitudes stay well
    inside the range where the absolute residual threshold is meaningful
    (hyperbolic orbits grow like e^{rate * |n|} toward the window edges).
    """
    tol = 1e-10
    window = Window.symmetric(_SOLVER_HALF)
    pseudo, weights = noisy_pseudo_orbit(scenario, window, rng)
    prob = scenario.problem(pseudo, weights)
    res = solve(prob, tol=tol)
    shadow_bound, q = prob.constants
    issues = []
    if not res.defect.all_within:
        issues.append("pseudo-orbit defect exceeded its allowance")
    if not res.shadow_ok:
        issues.append("shadowing certificate failed")
    if not res.ball_ok:
        issues.append("an iterate left the invariant ball")
    if res.max_orbit_residual > 1e-8:
        issues.append(_residual_issue(res))
    if res.fixed_point_gap > 2 * tol:
        issues.append(f"fixed-point gap {res.fixed_point_gap:.2e}")
    if res.iterations > iteration_bound(shadow_bound, q, tol):
        issues.append(f"{res.iterations} iterations exceeded the a-priori bound")
    worst = max(res.max_orbit_residual, res.fixed_point_gap)
    return CheckResult(
        "solver-certificates", worst, 1e-8, not issues, detail="; ".join(issues)
    )


def check_envelope_growth(scenario, rng) -> CheckResult:
    """K <= D and D(sigma^n w) <= D(w) e^{rho |n|} along 5 sampled orbits of
    half-length _ENVELOPE_HORIZON."""
    layering = scenario.layering
    if layering is None:
        raise ValueError("scenario has no layering data")
    env = layering.envelope
    horizon = _ENVELOPE_HORIZON
    ns = np.arange(-horizon, horizon + 1)
    worst = 0.0
    for orbit in _orbits(scenario, rng, 5):
        values = envelope_along_orbit(orbit, env.rho, env.half_width, -horizon, horizon)
        ks = orbit.bounds(-horizon, horizon + 1)
        worst = max(worst, float(np.max(ks / values)) - 1.0)
        origin = values[horizon]
        worst = max(
            worst, float(np.max(values / (origin * np.exp(env.rho * np.abs(ns))))) - 1.0
        )
    return CheckResult("envelope-growth", worst, 1e-9, worst <= 1e-9)


def check_layer_coverage(scenario, rng, samples: int = 400) -> CheckResult:
    """Fraction of points hitting the good level set within _COVERAGE_DEPTH steps."""
    layering = scenario.layering
    if layering is None:
        raise ValueError("scenario has no layering data")
    env, level = layering.envelope, layering.level_threshold
    hits = 0
    for _ in range(samples):
        orbit = scenario.orbit(scenario.sample_point(rng))
        [m] = _layer_indices(orbit, env, level, _COVERAGE_DEPTH, 0, 1)  # -1: no hit
        hits += int(m >= 0)
    coverage = hits / samples
    return CheckResult(
        "layer-coverage", 1.0 - coverage, 0.01, coverage >= 0.99,
        detail=f"coverage {coverage:.3f} at depth {_COVERAGE_DEPTH}",
    )


def check_layered_shadowing(scenario, rng) -> CheckResult:
    """Shadow a pseudo-orbit whose defects obey the per-layer allowance.

    For a point in layer m the allowance at index n is
    delta(n) e^{-rho |n - m|} / (2 T), which the envelope chain converts into
    the generic allowance delta(n) / (2 K(sigma^n w)).
    """
    layering = scenario.layering
    if layering is None:
        raise ValueError("scenario has no layering data")
    point = scenario.base_point
    m = layering.layer_index(point)
    if m is None:
        raise ValueError("anchor point has no layer index")
    window = Window.symmetric(_SOLVER_HALF)
    weights = scenario.default_weights(window)
    cache = scenario.orbit()
    orbit = nonlinear_orbit(
        cache, scenario.perturbation, 0.5 * rng.standard_normal(scenario.cocycle.dim), window
    )
    allowed = np.array(
        [
            weights.value_at(n)
            * math.exp(-layering.envelope.rho * abs(n - m))
            / (2.0 * layering.level_threshold)
            for n in window.indices()
        ]
    )
    generic = _defect_allowance(cache, weights)
    if np.any(allowed > generic * (1 + 1e-12)):
        return CheckResult(
            "layered-shadowing", float(np.max(allowed / generic)) - 1.0, 0.0, False,
            detail="layer allowance exceeds the generic allowance",
        )
    jitter = _jitter(
        cache, window, allowed, scenario.perturbation.lipschitz_budget, 0.8, rng
    )
    pseudo = WindowSequence(window, orbit.values + jitter)
    prob = scenario.problem(pseudo, weights)
    res = solve(prob, tol=1e-10)
    ok = res.defect.all_within and res.shadow_ok and res.ball_ok
    detail = f"layer {m}"
    if res.max_orbit_residual > 1e-8:
        detail += f"; {_residual_issue(res)}"
    return CheckResult(
        "layered-shadowing", res.max_orbit_residual, 1e-8,
        ok and res.max_orbit_residual <= 1e-8, detail=detail,
    )


def scenario_self_test(scenario) -> SelfTestReport:
    """Fast structural validation run when the registry is built."""
    rng = np.random.default_rng(_SELF_TEST_SEED)
    results = [
        check_cocycle_property(scenario, rng, pairs=8, span=16),
        check_projectors(scenario, rng, points=3, span=16),
        check_dichotomy_bounds(scenario, rng, points=2, max_n=32),
        _check_perturbation_lipschitz(scenario, rng),
        _check_contraction_constant(scenario),
    ]
    return SelfTestReport(
        scenario.name, tuple(results), all(r.passed for r in results)
    )


def _check_perturbation_lipschitz(scenario, rng) -> CheckResult:
    pert = scenario.perturbation
    worst = -math.inf
    for orbit in _orbits(scenario, rng, 4):
        allowed = pert.lipschitz_budget / orbit.bound(1)
        # Pair j draws x then y: rows 2j and 2j + 1 of one draw, kicked in one call.
        xs = rng.standard_normal((80, scenario.cocycle.dim)) * 2.0
        kicks = pert.kick(pert.coefficients(orbit.omega), xs)
        num = _row_norms(kicks[0::2] - kicks[1::2])
        den = _row_norms(xs[0::2] - xs[1::2])
        worst = max([worst, *(num - allowed * den)[den > 0].tolist()])
    return CheckResult("perturbation-lipschitz", worst, 1e-9, worst <= 1e-9)


def _check_contraction_constant(scenario) -> CheckResult:
    try:
        _, q = shadow_constant(
            scenario.dichotomy.rate, scenario.epsilon,
            scenario.perturbation.lipschitz_budget,
        )
    except ContractionError:
        return CheckResult("contraction-constant", 1.0, 1.0, False, "q >= 1")
    return CheckResult("contraction-constant", q, 1.0, q < 1.0, f"q = {q:.4f}")


def run_invariant_suite(scenario, seed: int = 421) -> list[CheckResult]:
    """The full property suite for one scenario."""
    rng = np.random.default_rng(seed)
    results = [
        check_cocycle_property(scenario, rng),
        check_projectors(scenario, rng),
        check_dichotomy_bounds(scenario, rng),
        _check_perturbation_lipschitz(scenario, rng),
        _check_contraction_constant(scenario),
        check_norm_equivalence_sweep(scenario, rng),
        check_one_step_contraction_sweep(scenario, rng),
        check_green_linearity(scenario, rng),
        check_green_inversion(scenario, rng),
        check_green_norm_bounds(scenario, rng),
        check_source_lipschitz(scenario, rng),
        check_solver_certificates(scenario, rng),
    ]
    if scenario.layering is not None:
        results.extend(
            [
                check_envelope_growth(scenario, rng),
                check_layer_coverage(scenario, rng, samples=200),
                check_layered_shadowing(scenario, rng),
            ]
        )
    return results
