"""Lyapunov exponents of the linear cocycle and of its perturbed counterpart.

Linear exponents come from repeated QR factorization along the orbit: the
averaged logs of the R diagonals.  When every matrix of the sweep is upper
triangular (diagonal and scalar cocycles), LAPACK's factorization of
``m @ q`` is trivial: each Householder vector is zero, so ``tau = 0``,
``Q = I`` and ``R = m @ q``.  With ``q`` a +-1 diagonal, ``m @ q`` stays
triangular with diagonal ``m_ii * q_ii``, so the running sums are one
cumulative sum of ``log |m_ii|`` and the last ``q`` is one factorization of
the last matrix times the accumulated signs.  Both match the per-step loop
bit for bit, signed zeros of ``q`` included, which the tests check against
the loop; every other block runs the loop.

For the perturbed cocycle the forward and backward exponents at a point are
limsups of (1/n) log |orbit|; the finite surrogate used here is the maximum
of that quantity over the tail half of the run, with the minimum reported as
well and a flag when the two disagree.

Finite-time orbits of hyperbolic systems overflow doubles long before
n = 10^4, so the tracker switches to a scaled representation (unit vector
plus log of the norm) once the orbit norm passes 1e30.  In that regime the
bounded perturbation changes the log of the norm by less than
|f|_inf * |A^{-1}| / 1e30 < 1e-28 per step, far below the resolution of the
estimate, so the linearized step is exact at working precision.  Orbits of
moderate size are always stepped exactly, perturbation included.

The sampled orbits of one direction share the base orbit, so
``nonlinear_exponent`` walks a (k, d) block of starting points in lock-step:
each step is one batched product over the rows (one batched ``invert_step``
backward), and each row switches between the plain and the scaled
representation on its own, through a per-row flag.  While every row is
scaled the walk steps in chunks of one product, norm and divide per step,
rolled back to the step where a row falls to the switch-back level.  A chunk
takes a closed form instead when three things hold: every matrix of the
walk is diagonal, every row's unit vector is a signed axis vector +-e_i, and
each row's entries m = A[i, i] over the chunk are non-zero with m^2 a normal
float.  The product is then +-m e_i exactly, its norm sqrt(fl(m^2)) = |m|,
and the divide leaves sign(m) times the unit, so a step's growth is one
gathered |A[i, i]| and the unit's sign a running product; the loop's unit
differs at most in the signs of its zeros, which no norm reads.  Every row
is bit for bit the orbit it would trace when walked alone, so
``conservation_experiment`` walks one block per direction.
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
    _row_norms,
    invert_step,
    nonlinear_orbit,
    solve,
)

__all__ = [
    "NumericalBreakdownError",
    "DegenerateOrbitError",
    "InversionError",
    "linear_exponents_qr",
    "linear_exponents_and_half",
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

#: Floats of scratch per chunk of an all-scaled walk run.  A step of k rows in
#: d dimensions holds k * (d + 1) of them (the rows' directions and growths),
#: so the chunk shortens as the block widens.
_WALK_SCRATCH = 1 << 11


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


def _qr_loop(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Repeated QR of the (N, d, d) block ``mats`` by LAPACK, one ``_positive_qr`` per matrix."""
    q = np.eye(mats.shape[-1])
    logs = np.empty(mats.shape[:2])
    for k, m in enumerate(mats):
        q, r = _positive_qr(m @ q)
        logs[k] = np.log(np.diagonal(r))
    return q, np.cumsum(logs, axis=0)


def _is_upper_triangular(mats: np.ndarray) -> bool:
    """True when no matrix of the block has a non-zero strictly-lower entry
    (one strided read per entry position, no copy of the block)."""
    dim = mats.shape[-1]
    return not any(mats[:, i, j].any() for i in range(1, dim) for j in range(i))


def _is_diagonal(mats: np.ndarray) -> bool:
    """True when no matrix of the block has a non-zero off-diagonal entry."""
    return _is_upper_triangular(mats) and _is_upper_triangular(mats.transpose(0, 2, 1))


def _qr_sweep(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Repeated QR of the finite (N, d, d) block ``mats``, starting from the identity.

    Returns the last orthonormal factor and the running sums of the log R
    diagonals: row k holds the sum over the first k + 1 factorizations.  An
    upper-triangular block takes the closed form in the module docstring,
    bit for bit the per-step loop; any other block runs the loop.
    """
    if not len(mats) or not _is_upper_triangular(mats):
        return _qr_loop(mats)
    diag = np.diagonal(mats, axis1=1, axis2=2)
    if not diag.all():
        raise NumericalBreakdownError("zero diagonal entry in QR factor")
    signs = np.sign(diag[:-1]).prod(axis=0)
    q, _ = _positive_qr(mats[-1] @ (np.eye(mats.shape[-1]) * signs))
    return q, np.cumsum(np.log(np.abs(diag)), axis=0)


def _sorted_exponents(sums: np.ndarray, steps: int) -> np.ndarray:
    """Exponents after the first ``steps`` factorizations of a sweep, descending."""
    if steps < 1:
        raise ValueError("steps must be positive")
    return np.sort(sums[steps - 1] / steps)[::-1]


def _forward_sums(orbit: OrbitCache, steps: int) -> np.ndarray:
    """Running log-R sums of the sweep over the matrices at 0 <= n < steps."""
    _check_steps(steps)
    return _qr_sweep(orbit.matrices(0, steps))[1]


def linear_exponents_qr(orbit: OrbitCache, steps: int) -> np.ndarray:
    """Finite-time Lyapunov exponents of the linear cocycle, sorted descending.

    Repeated QR along the orbit: exponents are the averaged logs of the R
    diagonals over ``steps`` factorizations.
    """
    return _sorted_exponents(_forward_sums(orbit, steps), steps)


def linear_exponents_and_half(orbit: OrbitCache, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponents of ``linear_exponents_qr`` after ``steps`` and after
    ``steps // 2`` factorizations, both read off one sweep.

    The gap between the two is the lyapunov experiment's convergence column.
    """
    sums = _forward_sums(orbit, steps)
    return _sorted_exponents(sums, steps), _sorted_exponents(sums, steps // 2)


def backward_qr_frame(orbit: OrbitCache, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal frame at time 0 accumulated by QR from sigma^{-steps} w.

    Returns (frame, rates): column i of the frame is the direction whose
    finite-time backward growth rate is rates[i], ordered descending.  These
    columns identify one direction per exponent for the conservation runs.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    _check_steps(steps)
    q, sums = _qr_sweep(orbit.matrices(-steps, 0))
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


def _axis_growth(
    mats: np.ndarray, diagonal: bool, unit: np.ndarray, out: np.ndarray
) -> np.ndarray | None:
    """Closed form of an all-scaled chunk run over ``mats``, or None for the loop.

    It holds when the walk's block is ``diagonal`` and each row of ``unit`` is
    a signed axis vector +-e_i.  A step's product is then +-m e_i exactly, with
    m = A[i, i], its norm is sqrt(fl(m^2)), and where m is non-zero and m^2 a
    normal float that norm is |m|, so the divide leaves sign(m) times the
    unit.  Writes the growths sqrt(m * m) into ``out`` (c, k) and returns the
    (c, k) signs of m, whose running product is the unit's sign.
    """
    if not diagonal:
        return None
    mag = np.abs(unit)
    if np.count_nonzero(unit) != len(unit) or not (mag.max(axis=1) == 1.0).all():
        return None
    axes = mag.argmax(axis=1)
    m = mats[:, axes, axes]
    with np.errstate(over="ignore", under="ignore"):
        np.sqrt(np.multiply(m, m, out=out), out=out)
    if not m.all() or not (out == np.abs(m)).all():
        return None
    return np.sign(m)


def _orbit_log_norms(
    perturbation: Perturbation,
    orbit: OrbitCache,
    xs: np.ndarray,
    forward: bool,
    steps: int,
) -> np.ndarray:
    """log |orbit| of each row of xs after 1..steps applications of F (or
    F^{-1}), all rows walked in lock-step; shape (steps, k).

    Each row is plain (``vec``, stepped exactly) or scaled (a unit vector,
    stepped linearly, whose log norm is the row's last logged value); a pure
    linear map starts every row scaled.  While every row is scaled, the walk
    runs chunks of at most _WALK_SCRATCH floats: per step one product, one
    norm and one divide into the chunk's buffers, or, when ``_axis_growth``
    finds the block diagonal, every unit on an axis and each squared entry
    normal, the closed form of the module docstring; then one cumulative sum
    from the current log norms over the chunk's log growths.  With a non-zero
    bound a chunk is rolled back to its first step where a row fell below
    _BIG_NORM / e^2, and the walk goes on step by step from there.  Per-row
    logs use math.log, whose last bit np.log does not always match.
    """
    _check_steps(steps)
    xs = np.asarray(xs, dtype=float)
    k, dim = xs.shape
    norms = _row_norms(xs)
    if not norms.all():
        raise DegenerateOrbitError("starting point has zero norm")
    pure_linear = perturbation.bound == 0.0
    mats = orbit.matrices(0, steps) if forward else orbit.inverses(-steps, 0)[::-1]
    diagonal = _is_diagonal(mats)
    log_low = math.log(_BIG_NORM) - 2.0
    chunk = max(1, min(steps, _WALK_SCRATCH // (k * (dim + 1))))
    # units[j + 1] holds the rows' directions after step j of a chunk run,
    # growth[j] the norms they were divided by; units[0] is the current one.
    units = np.empty((chunk + 1, k, dim, 1))
    units_t = units.transpose(0, 1, 3, 2)
    growth = np.empty((chunk, k, 1, 1))
    unit = units[0, :, :, 0]
    unit[:] = xs / norms[:, None]
    vec = xs.copy()
    # logs[n] holds the log norms after n steps; a scaled row's log norm is
    # its last logged value.
    logs = np.empty((steps + 1, k))
    logs[0] = [math.log(v) for v in norms.tolist()]
    scaled = [pure_linear] * k

    def split():
        plain = [i for i in range(k) if not scaled[i]]
        rows = [i for i in range(k) if scaled[i]]
        return plain, rows, slice(None) if len(plain) == k else plain

    def unscale(rows, n: int) -> bool:
        """Switch the scaled rows whose log norm after n steps fell below
        _BIG_NORM / e^2 back to plain; true when one did."""
        low = [i for i in rows if logs[n, i] < log_low]
        for i in low:
            vec[i] = unit[i] * math.exp(logs[n, i])
            scaled[i] = False
        return bool(low)

    plain, rows, sel = split()
    n = 0
    while n < steps:
        if not plain:
            c = min(chunk, steps - n)
            grown = growth[:c, :, 0, 0]
            signs = _axis_growth(mats[n:n + c], diagonal, unit, grown)
            if signs is None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    for m, u, w, wt, g in zip(mats[n:], units, units[1:], units_t[1:], growth[:c]):
                        np.matmul(m, u, out=w)
                        np.sqrt(np.matmul(wt, w, out=g), out=g)
                        np.divide(w, g, out=w)
            ok = c if grown.all() else int(np.argmin(grown.all(axis=1)))
            block = logs[n:n + ok + 1]
            block[1:] = np.reshape(list(map(math.log, grown[:ok].ravel().tolist())), (ok, k))
            np.cumsum(block, axis=0, out=block)
            low = () if pure_linear else np.flatnonzero((block[1:] < log_low).any(axis=1))
            if len(low):
                c = int(low[0]) + 1
            elif ok < c:
                raise DegenerateOrbitError("scaled orbit direction collapsed")
            if signs is None:
                units[0] = units[c]
            else:
                unit *= signs[:c].prod(axis=0)[:, None]
            n += c
            if len(low) and unscale(range(k), n):
                plain, rows, sel = split()
            continue
        m = mats[n]
        x = vec[sel]
        point = orbit.point(n if forward else -(n + 1))
        if forward:
            new = np.matmul(m, x[:, :, None])[:, :, 0] + perturbation(point, x)
        else:
            new = invert_step(m, perturbation, point, x, tol=_INVERSION_TOL)
        nl = _row_norms(new).tolist()
        if 0.0 in nl:
            raise DegenerateOrbitError(f"orbit norm vanished after {n + 1} steps")
        vec[sel] = new
        logs[n + 1, sel] = [math.log(v) for v in nl]
        switched = False
        if rows:
            w = np.matmul(m, unit[rows][:, :, None])[:, :, 0]
            gl = _row_norms(w).tolist()
            if 0.0 in gl:
                raise DegenerateOrbitError("scaled orbit direction collapsed")
            for j, i in enumerate(rows):
                logs[n + 1, i] = logs[n, i] + math.log(gl[j])
                unit[i] = w[j] / gl[j]
            switched = unscale(rows, n + 1)
        if max(nl) > _BIG_NORM:
            for j, i in enumerate(plain):
                if nl[j] > _BIG_NORM:
                    unit[i] = new[j] / nl[j]
                    scaled[i] = True
            switched = True
        n += 1
        if switched:
            plain, rows, sel = split()
    return logs[1:]


def nonlinear_exponent(
    orbit: OrbitCache,
    perturbation: Perturbation,
    xs: np.ndarray,
    direction: str,
    steps: int,
) -> list[NonlinearExponent]:
    """Forward or backward growth exponents of the perturbed orbits through
    the rows of the (k, d) block xs, one per row, walked together."""
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    if steps < 4:
        raise ValueError("steps must be at least 4")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != orbit.dim:
        raise ValueError(f"xs must be a (k, {orbit.dim}) block of starting points")
    if not len(xs):
        return []
    forward = direction == "forward"
    walks = _orbit_log_norms(perturbation, orbit, xs, forward, steps)
    ns = np.arange(1, steps + 1)
    signed = ns if forward else -ns
    tail = slice(math.ceil(steps / 2) - 1, steps)
    results = []
    for logs in walks.T:
        values = logs / signed
        est = float(np.max(values[tail]))
        low = float(np.min(values[tail]))
        fit = np.polyfit(ns[tail], logs[tail], 1)
        resid = logs[tail] - np.polyval(fit, ns[tail])
        rms = float(np.sqrt(np.mean(resid**2)))
        results.append(NonlinearExponent(
            direction=direction,
            steps=steps,
            estimate=est,
            tail_min=low,
            converged=(est - low) <= _CONVERGENCE_SPREAD,
            regression_residual=rms,
            values=np.column_stack([ns, values]),
        ))
    return results


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
    margins = res.shadow_bound * zero_prob.weights.values - _row_norms(res.orbit.values)
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
    scenario: Scenario,
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
    matching some linear exponent.  Each direction is one lock-step walk over
    the forward rows it measures and every sample.
    """
    if not isinstance(scenario, Scenario):
        raise TypeError(f"scenario must be a Scenario, not {type(scenario).__name__}")
    if sample_count < 0:
        raise ValueError("sample count must be nonnegative")
    if not tolerance >= 0:
        raise ValueError("tolerance must be nonnegative")
    rng = np.random.default_rng(seed)
    dim = scenario.cocycle.dim
    orbit = scenario.orbit()
    window = Window.symmetric(window_half)
    weights = scenario.default_weights(window)

    lin = linear_exponents_qr(orbit, steps=steps)
    frame, _ = backward_qr_frame(orbit, steps=min(steps, _FRAME_STEPS))

    linear = Perturbation.zero(dim)
    starts = np.empty((dim, dim))
    for i in range(dim):
        pseudo = nonlinear_orbit(orbit, linear, frame[:, i], window)
        starts[i] = solve(scenario.problem(pseudo, weights), tol=solver_tol).orbit.value_at(0)

    special = find_special_point(
        scenario.problem(WindowSequence.zeros(window, dim), weights),
        tol=solver_tol,
    )

    xs = np.empty((sample_count, dim))
    for s in range(sample_count):
        while True:
            x = rng.standard_normal(dim)
            if np.linalg.norm(x - special.point) > 0.1:
                break
        xs[s] = x

    # One walk per direction: the starts of the forward rows whose exponent's
    # sign selects that direction, then every sample.
    directions = ["forward" if t > 0 else "backward" for t in lin]
    measured, sampled = {}, {}
    for direction in ("forward", "backward"):
        rows = [i for i in range(dim) if directions[i] == direction]
        exps = [e.estimate for e in nonlinear_exponent(
            orbit, scenario.perturbation, np.vstack([starts[rows], xs]), direction, steps=steps
        )]
        measured.update(zip(rows, exps))
        sampled[direction] = exps[len(rows):]

    forward_rows = []
    for i, (target, direction) in enumerate(zip(lin, directions)):
        gap = float(abs(measured[i] - target))
        forward_rows.append(ForwardConservationRow(
            i, float(target), direction, measured[i], gap, bool(gap <= tolerance)
        ))
    converse_rows = []
    for s, (fwd, bwd) in enumerate(zip(sampled["forward"], sampled["backward"])):
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
