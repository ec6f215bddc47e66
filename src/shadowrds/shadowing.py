"""Turning admissible pseudo-orbits of the perturbed dynamics into true orbits.

The perturbed one-step map at a base point w is F_w = A(w) + f_w with f_w
Lipschitz of constant at most c / K(sigma w).  Given a pseudo-orbit y whose
one-step defects are bounded by delta(n) / (2 K(sigma^n w)), the correction z
solving x = y + z is the fixed point of the contraction

    T(z) = G(source(z)),      source(z)_n = f(z_{n-1} + y_{n-1}) + A y_{n-1} - y_n,

where G is the Green operator of the dichotomy.  T contracts at factor

    q = 2 c e^{rate - eps} (1 + e^{-eps}) / (1 - e^{-eps}) < 1

and the resulting orbit satisfies |x_n - y_n| <= L delta(n) with
L = B / (1 - q), B = (1 + e^{-eps}) / (1 - e^{-eps}).

The iteration starts at z = 0 (the centre of the invariant ball of radius L)
and stops on the a-posteriori contraction estimate
|z^k - z*| <= q/(1-q) |z^k - z^{k-1}|.

A problem is an orbit segment plus a pseudo-orbit: ``ShadowingProblem.orbit``
is the ``OrbitCache`` of the system, base point and dichotomy (with its
adapted-norm truncation), a field shared by every function of the problem
and passed as the orbit argument of the Green operator and the weighted
norm.  ``dataclasses.replace`` keeps it, which is sound because the segment
is a pure memo of its (system, point, dichotomy).  ``nonlinear_orbit`` takes
the orbit segment to step along directly.

A problem reads its perturbation's coefficient rows on [n_min, n_max) once,
at its first use, and keeps them.  Every evaluation of the source term, the
defect and the orbit residual maps a whole window: one batched product for A
and one kick of those rows for f.  ``_source_terms`` maps a stack of k
corrections with the same product and one kick.  A problem built by
``dataclasses.replace`` reads its own rows.  ``nonlinear_orbit`` reads each
direction's coefficient rows once too, and ``invert_step`` takes the row of
its step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .cocycle import (
    OrbitCache,
    RangeMap,
    _adapted_norm_parts,
    _row_norms,
    _scaled_row_norms,
    _stacked,
)
from .driving import BasePoint
from .green import (
    WeightSequence,
    Window,
    WindowSequence,
    green_apply,
    weighted_norm,
    weighted_norms,
)

__all__ = [
    "ContractionError",
    "NonConvergenceError",
    "InversionError",
    "Perturbation",
    "ShadowingProblem",
    "ShadowingResult",
    "IterationRecord",
    "DefectReport",
    "defect",
    "shadow_constant",
    "iteration_bound",
    "source_term",
    "solve",
    "UniquenessReport",
    "check_uniqueness",
    "make_weight",
    "invert_step",
    "nonlinear_orbit",
]

_FLOOR_UNIT = 64.0 * float(np.finfo(float).eps)  # residual floor per unit of magnitude
_ORBIT_TOL = 1e-8  # largest one-step residual of an orbit in check_uniqueness
_COINCIDENCE_TOL = 1e-8  # plain distance of orbits that check_uniqueness calls equal
_INVERT_MAX_ITER = 256  # iteration cap of invert_step


class ContractionError(ValueError):
    """The contraction condition q < 1 fails for the given constants."""


class NonConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach the tolerance within max_iter."""

    def __init__(self, message: str, last_step: float):
        super().__init__(message)
        self.last_step = last_step


class InversionError(RuntimeError):
    """Backward inversion of the perturbed one-step map did not converge."""


@dataclass(frozen=True)
class Perturbation:
    """Lipschitz perturbation family f_w with budget c.

    The maps must satisfy |f_w(x) - f_w(y)| <= (c / K(sigma w)) |x - y|;
    scenarios construct them so this holds analytically.  ``bound`` is an
    optional uniform bound on |f_w(x)|, needed by the Lyapunov machinery.

    ``coefficients(point)`` is the row of floats that f needs at a point (a
    shift, a scale, a kick size): a per-point function, or a ``RangeMap``
    whose ``along`` stacks the rows of an orbit range.  ``kick(cs, xs)``
    returns an array of the shape of xs: per point, cs is one row and xs one
    vector (d,) or a block (k, d) mapped row by row; along a run, cs is an
    (m, c) stack and row i of xs is mapped with row i of cs.  The per-point
    map ``perturbation(point, x)``, also ``func``, and ``apply`` derive from them.
    """

    coefficients: Callable[[BasePoint], object]
    kick: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz_budget: float
    bound: float | None = None

    def __call__(self, point: BasePoint, x: np.ndarray) -> np.ndarray:
        return self.kick(self.coefficients(point), x)

    func = __call__

    def apply(self, orbit: OrbitCache, n_lo: int, xs: np.ndarray) -> np.ndarray:
        """Rows f_{sigma^{n_lo + i} w}(xs_i) of an (m, d) array along the
        orbit, or of each (m, d) block of a (k, m, d) stack: one
        ``OrbitCache.evaluate`` of the m coefficient rows, which the blocks
        share, then one kick of all k * m rows.  A ``ShadowingProblem`` reads
        its window's rows once and kicks them through the same code, so its
        solve makes no ``apply`` call.

        A kick of the wrong shape raises the ValueError of one wrong per-point
        value; a wrong row count names the whole shape.
        """
        ns = np.arange(n_lo, n_lo + xs.shape[-2])
        return self._kick_rows(orbit.evaluate(self.coefficients, ns, "coefficients"), ns, xs)

    def _kick_rows(self, cs: np.ndarray, ns: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """``apply`` of the coefficient rows cs read at the orbit indices ns."""
        if not ns.size:
            return np.empty(xs.shape)
        d = xs.shape[-1]
        blocks = xs.size // (ns.size * d)
        if blocks != 1:
            cs, ns = np.tile(cs, (blocks, 1)), np.tile(ns, blocks)
        kicks = self.kick(cs, xs.reshape(-1, d))
        return _stacked(kicks, ns, (d,), "perturbation").reshape(xs.shape)

    @classmethod
    def zero(cls, dim: int) -> "Perturbation":
        """f = 0 on R^dim: empty coefficient rows and a kick of zeros."""
        none = RangeMap(lambda point: (), lambda omega, ns: np.empty((ns.size, 0)))
        return cls(none, lambda cs, xs: np.zeros(np.shape(xs)[:-1] + (dim,)), 0.0, 0.0)


def shadow_constant(rate: float, epsilon: float, budget: float) -> tuple[float, float]:
    """Closed-form shadowing constant L and contraction factor q.

    B = (1+e^{-eps})/(1-e^{-eps}), q = 2 c e^{rate-eps} B, L = B / (1 - q).
    Raises ContractionError when q >= 1.
    """
    if not 0 < epsilon <= rate:
        raise ValueError("epsilon must lie in (0, rate]")
    if budget < 0:
        raise ValueError("Lipschitz budget must be nonnegative")
    b = (1 + math.exp(-epsilon)) / (1 - math.exp(-epsilon))
    q = 2.0 * budget * math.exp(rate - epsilon) * b
    if q >= 1:
        raise ContractionError(
            f"contraction condition fails: q = {q:.6g} >= 1"
        )
    return b / (1 - q), q


def iteration_bound(shadow_bound: float, contraction: float, tol: float) -> int:
    """A-priori iteration count for the fixed-point solve at tolerance tol."""
    if contraction == 0.0:
        return 2
    arg = tol * (1 - contraction) / shadow_bound
    if arg >= 1.0:
        return 2
    return math.ceil(math.log(arg) / math.log(contraction)) + 2


@dataclass(frozen=True)
class ShadowingProblem:
    """A pseudo-orbit along an orbit segment with dichotomy data, and the
    perturbation, weights and epsilon needed to shadow it."""

    orbit: OrbitCache
    perturbation: Perturbation
    pseudo_orbit: WindowSequence
    weights: WeightSequence
    epsilon: float

    def __post_init__(self) -> None:
        rate = self.orbit.require_dichotomy().rate
        if self.pseudo_orbit.window != self.weights.window:
            raise ValueError("pseudo-orbit and weights must share a window")
        if self.pseudo_orbit.dim != self.orbit.dim:
            raise ValueError("pseudo-orbit dimension must match the cocycle")
        self.weights.require_admissible(math.exp(rate - self.epsilon))
        # Raises ContractionError when q >= 1.
        shadow_constant(rate, self.epsilon, self.perturbation.lipschitz_budget)

    @property
    def window(self) -> Window:
        return self.pseudo_orbit.window

    @property
    def constants(self) -> tuple[float, float]:
        """(L, q) for this problem's rate, epsilon, and budget."""
        return shadow_constant(
            self.orbit.dichotomy.rate, self.epsilon, self.perturbation.lipschitz_budget
        )

    @cached_property
    def _coefficient_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The orbit indices n_min, ..., n_max - 1 of the window's interior
        steps and the perturbation's coefficient rows there, read at their
        first use and kept, read-only, for the problem's lifetime."""
        win = self.window
        ns = np.arange(win.n_min, win.n_max)
        cs = self.orbit.evaluate(self.perturbation.coefficients, ns, "coefficients").view()
        cs.flags.writeable = False
        return ns, cs


def _window_steps(
    prob: ShadowingProblem, x: np.ndarray, at: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Rows A(sigma^{n-1} w) x_{n-1} and f_{sigma^{n-1} w}(at_{n-1}) for the
    interior n = n_min + 1 + i of the window; ``at`` defaults to ``x`` and
    may be a (k, L, d) stack, whose blocks each get their kicks."""
    ns, cs = prob._coefficient_rows
    at = x if at is None else at
    return (prob.orbit.apply(prob.window.n_min, x[:-1]),
            prob.perturbation._kick_rows(cs, ns, at[..., :-1, :]))


@dataclass(frozen=True)
class DefectReport:
    """One-step defects of a pseudo-orbit on interior indices.

    ``allowed`` holds the admissible sizes delta(n) / (2 K(sigma^n w));
    ``within`` flags whether each defect respects its allowance.
    """

    window: Window
    values: np.ndarray
    norms: np.ndarray
    allowed: np.ndarray
    within: np.ndarray
    all_within: bool

    def max_norm(self) -> float:
        return float(np.max(self.norms)) if self.norms.size else 0.0


def _defect_allowance(orbit: OrbitCache, weights: WeightSequence) -> np.ndarray:
    """delta(n) / (2 K(sigma^n w)) at every index n of the weights' window."""
    win = weights.window
    return weights.values / (2.0 * orbit.bounds(win.n_min, win.n_max + 1))


def defect(prob: ShadowingProblem) -> DefectReport:
    """Defect sequence y_n - F_{sigma^{n-1} w}(y_{n-1}) with admissibility flags."""
    win = prob.window
    y = prob.pseudo_orbit.values
    linear, kicks = _window_steps(prob, y)
    values = y[1:] - (linear + kicks)
    allowed = _defect_allowance(prob.orbit, prob.weights)[1:]
    norms = np.linalg.norm(values, axis=1)
    within = norms <= allowed * (1 + 1e-12)
    return DefectReport(win, values, norms, allowed, within, bool(np.all(within)))


def source_term(prob: ShadowingProblem, z: WindowSequence) -> WindowSequence:
    """Forcing sequence fed to the Green operator in the fixed-point iteration.

    Entry n (interior) is f_{s^{n-1}w}(z_{n-1} + y_{n-1}) + A(s^{n-1}w) y_{n-1} - y_n;
    the left edge has no predecessor and is set to zero, matching the
    zero-extension convention of the Green operator.  The perturbation's
    coefficient rows are the problem's, read at its first use, so repeated
    calls on one problem read them once.
    """
    if z.window != prob.window:
        raise ValueError("window mismatch")
    return WindowSequence(z.window, _source_terms(prob, z.values[None])[0])


def _source_terms(prob: ShadowingProblem, zs: np.ndarray) -> np.ndarray:
    """``source_term`` of each sequence of a (k, L, d) stack on the problem's
    window, equal bit for bit to its own: A y is formed once for all k, and
    one kick of the problem's coefficient rows maps every row."""
    y = prob.pseudo_orbit.values
    linear, kicks = _window_steps(prob, y, at=zs + y)
    out = np.zeros(zs.shape)
    out[:, 1:] = kicks + linear - y[1:]
    return out


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    step_norm: float
    correction_norm: float


@dataclass(frozen=True)
class ShadowingResult:
    """Solver output: the true orbit, its correction, and all certificates."""

    orbit: WindowSequence
    correction: WindowSequence
    shadow_bound: float
    contraction: float
    iterations: int
    final_step_norm: float
    trace: tuple[IterationRecord, ...]
    defect: DefectReport
    orbit_residuals: np.ndarray
    max_orbit_residual: float
    residual_floor: float
    shadow_margins: np.ndarray
    shadow_ok: bool
    ball_ok: bool
    fixed_point_gap: float


def solve(prob: ShadowingProblem, tol: float = 1e-10, max_iter: int = 200) -> ShadowingResult:
    """Iterate z <- G(source(z)) from z = 0 until the contraction certificate.

    Stops when q/(1-q) * |z^k - z^{k-1}| <= tol, so the returned correction is
    within tol of the exact fixed point in the weighted norm.  Raises
    NonConvergenceError when max_iter is exhausted.

    The defect, every source term, the fixed-point gap and the orbit
    residual kick the problem's coefficient rows, read once per problem.
    Each iteration measures its step |z^k - z^{k-1}| and |z^k| with one
    ``weighted_norms`` call, equal bit for bit to two ``weighted_norm``
    calls.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    shadow_bound, q = prob.constants
    defect_report = defect(prob)
    z = WindowSequence.zeros(prob.window, prob.pseudo_orbit.dim)
    trace: list[IterationRecord] = []
    ball_ok = True
    converged = False
    step_norm = math.inf
    for k in range(1, max_iter + 1):
        z_next = green_apply(prob.orbit, z=source_term(prob, z))
        step_norm, z_norm = weighted_norms(prob.orbit, [z_next - z, z_next], prob.weights).tolist()
        trace.append(IterationRecord(k, step_norm, z_norm))
        if z_norm > shadow_bound + 1e-9:
            ball_ok = False
        z = z_next
        if q / (1 - q) * step_norm <= tol:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(
            f"no convergence within {max_iter} iterations"
            f" (last step norm {step_norm:.3e})",
            last_step=step_norm,
        )

    gap = weighted_norm(
        prob.orbit, seq=green_apply(prob.orbit, z=source_term(prob, z)) - z, weights=prob.weights
    )

    orbit = prob.pseudo_orbit + z
    linear, kicks = _window_steps(prob, orbit.values)
    residuals = orbit.values[1:] - (linear + kicks)
    # Round-off floor of the residual evaluation: differences of values this
    # large cannot be certified below machine epsilon times their magnitude,
    # which matters on windows where hyperbolic orbits grow to ~1e8 and beyond.
    magnitudes = _scaled_row_norms(orbit.values[1:]) + _scaled_row_norms(linear)
    floor = float(np.max(_FLOOR_UNIT * (1.0 + magnitudes), initial=0.0))
    max_residual = float(np.max(np.linalg.norm(residuals, axis=1))) if len(residuals) else 0.0

    margins = shadow_bound * prob.weights.values - _row_norms(z.values)
    shadow_ok = bool(np.all(margins >= -1e-9))

    return ShadowingResult(
        orbit=orbit,
        correction=z,
        shadow_bound=shadow_bound,
        contraction=q,
        iterations=len(trace),
        final_step_norm=step_norm,
        trace=tuple(trace),
        defect=defect_report,
        orbit_residuals=residuals,
        max_orbit_residual=max_residual,
        residual_floor=floor,
        shadow_margins=margins,
        shadow_ok=shadow_ok,
        ball_ok=ball_ok,
        fixed_point_gap=gap,
    )


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of comparing two orbits under the adapted-norm closeness test.

    When the closeness hypothesis |x1_n - x2_n|_{sigma^n w} <= L delta(n)
    holds on the whole window, expansivity forces the orbits to coincide;
    ``coincide`` then records whether they agree to the coincidence
    tolerance.  When the hypothesis fails the comparison is inconclusive and
    ``coincide`` is None.
    """

    hypothesis_met: bool
    max_adapted_gap: float
    max_plain_gap: float
    coincide: bool | None


def check_uniqueness(
    prob: ShadowingProblem,
    orbit1: WindowSequence,
    orbit2: WindowSequence,
) -> UniquenessReport:
    """Expansivity check at window scale for two orbit sequences."""
    win = prob.window
    if orbit1.window != win or orbit2.window != win:
        raise ValueError("orbits must live on the problem window")
    for seq in (orbit1, orbit2):
        linear, kicks = _window_steps(prob, seq.values)
        norms = np.linalg.norm(seq.values[1:] - (linear + kicks), axis=1)
        bad = np.nonzero(norms > _ORBIT_TOL)[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"input is not an orbit: residual {norms[i]:.3e}"
                f" at index {win.n_min + 1 + i} exceeds {_ORBIT_TOL:.1e}"
            )
    shadow_bound = prob.constants[0]
    stable, unstable = _adapted_norm_parts(
        prob.orbit, np.arange(win.n_min, win.n_max + 1), orbit1.values - orbit2.values
    )
    gaps = stable + unstable
    max_adapted = float(np.max(gaps))
    hypothesis = not bool(
        np.any(gaps > shadow_bound * prob.weights.values * (1 + 1e-12))
    )
    max_plain = (orbit1 - orbit2).sup_norm()
    coincide = max_plain <= _COINCIDENCE_TOL if hypothesis else None
    return UniquenessReport(hypothesis, max_adapted, max_plain, coincide)


def make_weight(kind: str, window: Window, *, scale: float = 1.0,
                rate: float | None = None) -> WeightSequence:
    """Named admissible weight families with their exact ratio bounds.

    constant:    delta(n) = scale,        ratio bound 1
    exponential: delta(n) = e^{rate |n|}, ratio bound e^{rate}
    polynomial:  delta(n) = |n| + 1,      ratio bound 2
    """
    ns = np.arange(window.n_min, window.n_max + 1)
    if kind == "constant":
        if scale <= 0:
            raise ValueError("scale must be positive")
        return WeightSequence(window, np.full(window.length, float(scale)), 1.0)
    if kind == "exponential":
        if rate is None or rate < 0:
            raise ValueError("exponential weights need a nonnegative rate")
        top = math.log(np.finfo(float).max) / rate if rate else math.inf
        if max(-window.n_min, window.n_max) > top:
            raise ValueError(f"exponential weights at rate {rate:g} are finite only up to "
                             f"half-width {math.floor(top)}")
        return WeightSequence(window, np.exp(rate * np.abs(ns)), math.exp(rate))
    if kind == "polynomial":
        return WeightSequence(window, (np.abs(ns) + 1).astype(float), 2.0)
    raise ValueError(f"unknown weight kind {kind!r}")


def invert_step(
    inverse_matrix: np.ndarray,
    perturbation: Perturbation,
    coefficients: np.ndarray,
    target: np.ndarray,
    *,
    tol: float = 1e-14,
) -> np.ndarray:
    """Solve A u + kick(coefficients, u) = target by the contraction
    u <- A^{-1}(target - kick(coefficients, u)), with A^{-1} the
    ``inverse_matrix`` and ``coefficients`` the perturbation's row at the step.

    ``target`` is one vector (d,) or a block (k, d) whose rows are solved
    together; each row stops at its own convergence, so every row equals
    the iteration run on it alone.  Only the kick is iterated.  Convergent
    whenever |A^{-1}| Lip(f) < 1, which all scenarios guarantee.
    """
    target = np.asarray(target, dtype=float)
    rows = np.atleast_2d(target)
    out = np.empty_like(rows)
    live = np.arange(len(rows))
    goal = rows
    u = np.matmul(inverse_matrix, rows[:, :, None])[:, :, 0]
    for _ in range(_INVERT_MAX_ITER):
        if not live.size:
            break
        kicked = goal - perturbation.kick(coefficients, u)
        u_next = np.matmul(inverse_matrix, kicked[:, :, None])[:, :, 0]
        done = _row_norms(u_next - u) <= tol * (1.0 + _row_norms(u_next))
        out[live[done]] = u_next[done]
        live, goal, u = live[~done], goal[~done], u_next[~done]
    if live.size:
        raise InversionError(
            f"backward inversion did not converge within {_INVERT_MAX_ITER} iterations"
        )
    return out.reshape(target.shape)


def nonlinear_orbit(
    orbit: OrbitCache,
    perturbation: Perturbation,
    x0: np.ndarray,
    window: Window,
) -> WindowSequence:
    """Exact two-sided orbit of the perturbed map through x0 on a window.

    Raises ValueError naming the first index, counted outward from 0, whose
    value leaves the float range.
    """
    x0 = np.asarray(x0, dtype=float)
    values = np.zeros((window.length, x0.size))
    values[window.offset(0)] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        mats = orbit.matrices(0, window.n_max)
        cs = orbit.evaluate(perturbation.coefficients, np.arange(window.n_max), "coefficients")
        x = x0
        for n in range(0, window.n_max):
            x = mats[n] @ x + perturbation.kick(cs[n], x)
            if not np.all(np.isfinite(x)):
                raise ValueError(f"orbit is not finite at index {n + 1}")
            values[window.offset(n + 1)] = x
        invs = orbit.inverses(window.n_min, 0)
        cs = orbit.evaluate(perturbation.coefficients, np.arange(window.n_min, 0), "coefficients")
        x = x0
        for n in range(0, window.n_min, -1):
            inv = invs[n - 1 - window.n_min]
            try:
                x = invert_step(inv, perturbation, cs[n - 1 - window.n_min], x)
            except InversionError:
                # The iteration cannot settle once its first guess overflows.
                if np.all(np.isfinite(inv @ x)):
                    raise
                raise ValueError(f"orbit is not finite at index {n - 1}") from None
            values[window.offset(n - 1)] = x
    return WindowSequence(window, values)
