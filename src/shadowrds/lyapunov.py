"""Lyapunov exponents of the linear cocycle and of its perturbed counterpart.

Linear exponents come from repeated QR factorization along the orbit: the
averaged logs of the R diagonals.  For the perturbed cocycle the forward and
backward exponents at a point are limsups of (1/n) log |orbit|; the finite
surrogate used here is the maximum of that quantity over the tail half of the
run, with the minimum reported as well and a flag when the two disagree.

Finite-time orbits of hyperbolic systems overflow doubles long before
n = 10^4, so the tracker switches to a scaled representation (unit vector
plus log of the norm) once the orbit norm passes 1e30.  In that regime the
bounded perturbation changes the log of the norm by less than
|f|_inf * |A^{-1}| / 1e30 < 1e-28 per step, far below the resolution of the
estimate, so the linearized step is exact at working precision.  Orbits of
moderate size are always stepped exactly, perturbation included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cocycle import MAX_STEPS, OrbitCache
from .green import Window, WindowSequence
from .scenarios import Scenario
from .shadowing import (
    InversionError,
    Perturbation,
    ShadowingProblem,
    ShadowingResult,
    _defect_allowance,
    invert_step,
    nonlinear_orbit,
    solve,
)

__all__ = [
    "NumericalBreakdownError",
    "DegenerateOrbitError",
    "InversionError",
    "linear_exponents_qr",
    "backward_qr_frame",
    "NonlinearExponent",
    "nonlinear_exponent",
    "SpecialPointResult",
    "find_special_point",
    "ForwardConservationRow",
    "ConverseConservationRow",
    "ConservationReport",
    "conservation_experiment",
]

_BIG_NORM = 1e30
_CONVERGENCE_SPREAD = 0.05
_INVERSION_TOL = 1e-13  # of each backward step of a perturbed orbit
_SPECIAL_MAX_ITER = 400  # iteration cap of the solve in find_special_point
_FRAME_STEPS = 256  # QR steps of the backward frame in conservation_experiment


class NumericalBreakdownError(RuntimeError):
    """QR factorization produced a zero diagonal entry."""


class DegenerateOrbitError(ValueError):
    """The orbit norm hit zero, so no growth exponent is defined."""


def _positive_qr(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q, r = np.linalg.qr(b)
    d = np.diagonal(r).copy()
    if np.any(d == 0.0):
        raise NumericalBreakdownError("zero diagonal entry in QR factor")
    s = np.sign(d)
    return q * s, r * s[:, None]


def _check_steps(steps: int) -> None:
    """Reject a sweep longer than MAX_STEPS before its per-step arrays are allocated."""
    if steps > MAX_STEPS:
        raise ValueError(f"steps = {steps} exceeds the limit of {MAX_STEPS}")


def _qr_sweep(orbit: OrbitCache, indices: range) -> tuple[np.ndarray, np.ndarray]:
    """Repeated QR of the matrices at ``indices``, starting from the identity.

    Returns the last orthonormal factor and the running sums of the log R
    diagonals: row k holds the sum over the first k + 1 factorizations.
    """
    _check_steps(len(indices))
    q = np.eye(orbit.dim)
    logs = np.empty((len(indices), orbit.dim))
    for k, n in enumerate(indices):
        q, r = _positive_qr(orbit.matrix(n) @ q)
        logs[k] = np.log(np.diagonal(r))
    return q, np.cumsum(logs, axis=0)


def _sorted_exponents(sums: np.ndarray, steps: int) -> np.ndarray:
    """Exponents after the first ``steps`` factorizations of a sweep, descending."""
    if steps < 1:
        raise ValueError("steps must be positive")
    return np.sort(sums[steps - 1] / steps)[::-1]


def linear_exponents_qr(orbit: OrbitCache, steps: int) -> np.ndarray:
    """Finite-time Lyapunov exponents of the linear cocycle, sorted descending.

    Repeated QR along the orbit: exponents are the averaged logs of the R
    diagonals over ``steps`` factorizations.
    """
    _, sums = _qr_sweep(orbit, range(steps))
    return _sorted_exponents(sums, steps)


def backward_qr_frame(orbit: OrbitCache, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal frame at time 0 accumulated by QR from sigma^{-steps} w.

    Returns (frame, rates): column i of the frame is the direction whose
    finite-time backward growth rate is rates[i], ordered descending.  These
    columns identify one direction per exponent for the conservation runs.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    q, sums = _qr_sweep(orbit, range(-steps, 0))
    rates = sums[-1] / steps
    order = np.argsort(-rates)
    return q[:, order], rates[order]


@dataclass(frozen=True)
class NonlinearExponent:
    """Tail-max surrogate of a forward or backward growth exponent.

    ``estimate`` is the max of (1/n) log |orbit_n| over the tail half of the
    run (n signed for the backward direction), ``tail_min`` the corresponding
    min; ``converged`` is false when they disagree by more than 0.05.
    ``regression_residual`` is the rms residual of a straight-line fit to the
    log norms over the tail, a convergence diagnostic.
    """

    direction: str
    steps: int
    estimate: float
    tail_min: float
    converged: bool
    regression_residual: float
    values: np.ndarray


def _orbit_log_norms(
    perturbation: Perturbation,
    orbit: OrbitCache,
    x: np.ndarray,
    forward: bool,
    steps: int,
) -> np.ndarray:
    """log |orbit| after 1..steps applications of F (or F^{-1})."""
    _check_steps(steps)
    x = np.asarray(x, dtype=float)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise DegenerateOrbitError("starting point has zero norm")
    pure_linear = perturbation.bound == 0.0
    scaled = pure_linear
    if scaled:
        unit, lognorm = x / norm, math.log(norm)
        vec = None
    else:
        vec, unit, lognorm = x, None, 0.0

    logs = np.empty(steps)
    for n in range(steps):
        time_index = n if forward else -(n + 1)
        if not scaled:
            if forward:
                vec = orbit.matrix(time_index) @ vec + perturbation(
                    orbit.point(time_index), vec
                )
            else:
                vec = invert_step(
                    orbit.inverse(time_index), perturbation, orbit.point(time_index),
                    vec, tol=_INVERSION_TOL,
                )
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                raise DegenerateOrbitError(
                    f"orbit norm vanished after {n + 1} steps"
                )
            logs[n] = math.log(norm)
            if norm > _BIG_NORM:
                unit, lognorm = vec / norm, math.log(norm)
                scaled = True
        else:
            m = orbit.matrix(time_index) if forward else orbit.inverse(time_index)
            w = m @ unit
            growth = float(np.linalg.norm(w))
            if growth == 0.0:
                raise DegenerateOrbitError("scaled orbit direction collapsed")
            lognorm += math.log(growth)
            unit = w / growth
            logs[n] = lognorm
            if not pure_linear and lognorm < math.log(_BIG_NORM) - 2.0:
                vec = unit * math.exp(lognorm)
                scaled = False
    return logs


def nonlinear_exponent(
    orbit: OrbitCache,
    perturbation: Perturbation,
    x: np.ndarray,
    direction: str,
    steps: int,
) -> NonlinearExponent:
    """Forward or backward growth exponent of the perturbed orbit through x."""
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    if steps < 4:
        raise ValueError("steps must be at least 4")
    forward = direction == "forward"
    logs = _orbit_log_norms(perturbation, orbit, x, forward, steps)
    ns = np.arange(1, steps + 1)
    signed = ns if forward else -ns
    values = logs / signed
    tail = slice(math.ceil(steps / 2) - 1, steps)
    est = float(np.max(values[tail]))
    low = float(np.min(values[tail]))
    fit = np.polyfit(ns[tail], logs[tail], 1)
    resid = logs[tail] - np.polyval(fit, ns[tail])
    rms = float(np.sqrt(np.mean(resid**2)))
    return NonlinearExponent(
        direction=direction,
        steps=steps,
        estimate=est,
        tail_min=low,
        converged=(est - low) <= _CONVERGENCE_SPREAD,
        regression_residual=rms,
        values=np.column_stack([ns, values]),
    )


@dataclass(frozen=True)
class SpecialPointResult:
    """The initial condition whose perturbed orbit shadows the zero sequence."""

    point: np.ndarray
    orbit: WindowSequence
    result: ShadowingResult
    adapted_margins: np.ndarray
    bound_ok: bool


def find_special_point(
    prob: ShadowingProblem,
    *,
    tol: float = 1e-10,
) -> SpecialPointResult:
    """Shadow the zero sequence and return the time-0 point of the result.

    Requires the perturbation to carry a uniform bound not exceeding
    delta(n) / (4 K(sigma^n w)) on the window; the zero sequence is then an
    admissible pseudo-orbit for the halved weights and the returned orbit
    satisfies |x_n| (adapted) <= L delta(n) / 2.
    """
    pert = prob.perturbation
    if pert.bound is None:
        raise ValueError("perturbation must declare a uniform bound")
    win = prob.window
    allowed = 0.5 * float(np.min(_defect_allowance(prob.orbit, prob.weights)))
    if pert.bound > allowed * (1 + 1e-12):
        raise ValueError(
            f"perturbation bound {pert.bound:.3e} exceeds delta/(4K) = {allowed:.3e}"
        )
    zero_prob = replace(
        prob,
        pseudo_orbit=WindowSequence.zeros(win, prob.orbit.dim),
        weights=prob.weights.scaled(0.5),
    )
    res = solve(zero_prob, tol=tol, max_iter=_SPECIAL_MAX_ITER)
    norms = np.array([np.linalg.norm(v) for v in res.orbit.values])
    margins = res.shadow_bound * zero_prob.weights.values - norms
    return SpecialPointResult(
        point=res.orbit.value_at(0).copy(),
        orbit=res.orbit,
        result=res,
        adapted_margins=margins,
        bound_ok=bool(np.all(margins >= -1e-9)),
    )


@dataclass(frozen=True)
class ForwardConservationRow:
    index: int
    target: float
    direction: str
    measured: float
    gap: float
    passed: bool


@dataclass(frozen=True)
class ConverseConservationRow:
    sample: int
    forward: float
    backward: float
    matched: float | None
    gap: float
    passed: bool


@dataclass(frozen=True)
class ConservationReport:
    linear_exponents: np.ndarray
    forward_rows: tuple[ForwardConservationRow, ...]
    converse_rows: tuple[ConverseConservationRow, ...]
    special_point: np.ndarray
    steps: int
    tolerance: float
    all_passed: bool


def conservation_experiment(
    scenario,
    steps: int,
    sample_count: int,
    *,
    window_half: int = 32,
    seed: int = 0,
    tolerance: float = 0.02,
    solver_tol: float = 1e-10,
) -> ConservationReport:
    """Match linear exponents against perturbed-orbit exponents both ways.

    Forward direction: for each linear exponent, the linear orbit along its
    QR-identified direction is shadowed by a true perturbed orbit, and the
    sign of the exponent selects which of the forward/backward exponents of
    that orbit must reproduce it.  Converse direction: random points away
    from the special point must have at least one of their two exponents
    matching some linear exponent.
    """
    assert isinstance(scenario, Scenario)
    if sample_count < 0:
        raise ValueError("sample count must be nonnegative")
    rng = np.random.default_rng(seed)
    dim = scenario.cocycle.dim
    orbit = scenario.orbit()
    window = Window.symmetric(window_half)
    weights = scenario.default_weights(window)

    lin = linear_exponents_qr(orbit, steps=steps)
    frame, _ = backward_qr_frame(orbit, steps=min(steps, _FRAME_STEPS))

    forward_rows = []
    linear = Perturbation.zero(dim)
    for i, target in enumerate(lin):
        pseudo = nonlinear_orbit(orbit, linear, frame[:, i], window)
        res = solve(scenario.problem(pseudo, weights), tol=solver_tol)
        start = res.orbit.value_at(0)
        direction = "forward" if target > 0 else "backward"
        measured = nonlinear_exponent(
            orbit, scenario.perturbation, start, direction, steps=steps
        ).estimate
        gap = float(abs(measured - target))
        forward_rows.append(
            ForwardConservationRow(i, float(target), direction, measured, gap,
                                   bool(gap <= tolerance))
        )

    special = find_special_point(
        scenario.problem(WindowSequence.zeros(window, dim), weights),
        tol=solver_tol,
    )

    converse_rows = []
    for s in range(sample_count):
        while True:
            x = rng.standard_normal(dim)
            if np.linalg.norm(x - special.point) > 0.1:
                break
        fwd = nonlinear_exponent(
            orbit, scenario.perturbation, x, "forward", steps=steps
        ).estimate
        bwd = nonlinear_exponent(
            orbit, scenario.perturbation, x, "backward", steps=steps
        ).estimate
        gaps = np.array([min(abs(fwd - t), abs(bwd - t)) for t in lin])
        best = int(np.argmin(gaps))
        matched = float(lin[best]) if gaps[best] <= tolerance else None
        converse_rows.append(
            ConverseConservationRow(s, fwd, bwd, matched, float(gaps[best]),
                                    matched is not None)
        )

    all_passed = all(r.passed for r in forward_rows) and all(
        r.passed for r in converse_rows
    )
    return ConservationReport(
        linear_exponents=lin,
        forward_rows=tuple(forward_rows),
        converse_rows=tuple(converse_rows),
        special_point=special.point,
        steps=steps,
        tolerance=tolerance,
        all_passed=all_passed,
    )
