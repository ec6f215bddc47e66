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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cocycle import CocycleSystem, DichotomyData, OrbitCache, _adapted_norm_at
from .driving import BasePoint
from .green import (
    WeightSequence,
    Window,
    WindowSequence,
    green_apply,
    weighted_norm,
)

__all__ = [
    "ContractionError",
    "NonConvergenceError",
    "InversionError",
    "Perturbation",
    "ShadowingProblem",
    "ShadowingResult",
    "IterationRecord",
    "nonlinear_step",
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
    """

    func: Callable[[BasePoint, np.ndarray], np.ndarray]
    lipschitz_budget: float
    bound: float | None = None

    def __call__(self, point: BasePoint, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(point, x), dtype=float)

    @classmethod
    def zero(cls, dim: int) -> "Perturbation":
        return cls(lambda point, x: np.zeros(dim), 0.0, 0.0)


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
    """A pseudo-orbit together with everything needed to shadow it."""

    cocycle: CocycleSystem
    dichotomy: DichotomyData
    perturbation: Perturbation
    omega: BasePoint
    pseudo_orbit: WindowSequence
    weights: WeightSequence
    epsilon: float
    horizon: int = 48
    allow_uncertified_truncation: bool = False

    def __post_init__(self) -> None:
        if self.pseudo_orbit.window != self.weights.window:
            raise ValueError("pseudo-orbit and weights must share a window")
        if self.pseudo_orbit.dim != self.cocycle.dim:
            raise ValueError("pseudo-orbit dimension must match the cocycle")
        self.weights.require_admissible(
            math.exp(self.dichotomy.rate - self.epsilon)
        )
        # Raises ContractionError when q >= 1.
        shadow_constant(self.dichotomy.rate, self.epsilon, self.perturbation.lipschitz_budget)

    @property
    def window(self) -> Window:
        return self.pseudo_orbit.window

    @property
    def constants(self) -> tuple[float, float]:
        """(L, q) for this problem's rate, epsilon, and budget."""
        return shadow_constant(
            self.dichotomy.rate, self.epsilon, self.perturbation.lipschitz_budget
        )

    def cache(self) -> OrbitCache:
        return OrbitCache(self.cocycle, self.omega, self.dichotomy)


def nonlinear_step(prob: ShadowingProblem, n: int, x: np.ndarray,
                   cache: OrbitCache | None = None) -> np.ndarray:
    """One step of the perturbed map at time n: A(sigma^n w) x + f_{sigma^n w}(x)."""
    cache = OrbitCache.for_orbit(cache, prob.cocycle, prob.omega, prob.dichotomy)
    x = np.asarray(x, dtype=float)
    return cache.matrix(n) @ x + prob.perturbation(cache.point(n), x)


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


def defect(prob: ShadowingProblem, cache: OrbitCache | None = None) -> DefectReport:
    """Defect sequence y_n - F_{sigma^{n-1} w}(y_{n-1}) with admissibility flags."""
    cache = OrbitCache.for_orbit(cache, prob.cocycle, prob.omega, prob.dichotomy)
    win = prob.window
    y = prob.pseudo_orbit
    count = win.length - 1
    values = np.zeros((count, y.dim))
    allowed = np.zeros(count)
    for i, n in enumerate(range(win.n_min + 1, win.n_max + 1)):
        values[i] = y.value_at(n) - nonlinear_step(prob, n - 1, y.value_at(n - 1), cache)
        allowed[i] = prob.weights.value_at(n) / (2.0 * cache.bound(n))
    norms = np.linalg.norm(values, axis=1) if count else np.zeros(0)
    within = norms <= allowed * (1 + 1e-12)
    return DefectReport(win, values, norms, allowed, within, bool(np.all(within)))


def source_term(prob: ShadowingProblem, z: WindowSequence,
                cache: OrbitCache | None = None) -> WindowSequence:
    """Forcing sequence fed to the Green operator in the fixed-point iteration.

    Entry n (interior) is f_{s^{n-1}w}(z_{n-1} + y_{n-1}) + A(s^{n-1}w) y_{n-1} - y_n;
    the left edge has no predecessor and is set to zero, matching the
    zero-extension convention of the Green operator.
    """
    if z.window != prob.window:
        raise ValueError("window mismatch")
    cache = OrbitCache.for_orbit(cache, prob.cocycle, prob.omega, prob.dichotomy)
    win = prob.window
    y = prob.pseudo_orbit
    out = np.zeros((win.length, z.dim))
    for n in range(win.n_min + 1, win.n_max + 1):
        m = n - 1
        pt = cache.point(m)
        out[win.offset(n)] = (
            prob.perturbation(pt, z.value_at(m) + y.value_at(m))
            + cache.matrix(m) @ y.value_at(m)
            - y.value_at(n)
        )
    return WindowSequence(win, out)


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
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    shadow_bound, q = prob.constants
    cache = prob.cache()
    win = prob.window
    dim = prob.pseudo_orbit.dim
    uncert = prob.allow_uncertified_truncation

    def wnorm(seq: WindowSequence) -> float:
        return weighted_norm(
            prob.cocycle, prob.dichotomy, prob.omega, seq, prob.weights,
            prob.horizon, allow_uncertified=uncert, cache=cache,
        )

    defect_report = defect(prob, cache)
    z = WindowSequence.zeros(win, dim)
    trace: list[IterationRecord] = []
    ball_ok = True
    converged = False
    step_norm = math.inf
    for k in range(1, max_iter + 1):
        z_next = green_apply(
            prob.cocycle, prob.dichotomy, prob.omega, source_term(prob, z, cache),
            cache=cache,
        )
        step_norm = wnorm(z_next - z)
        z_norm = wnorm(z_next)
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

    gap = wnorm(
        green_apply(prob.cocycle, prob.dichotomy, prob.omega,
                    source_term(prob, z, cache), cache=cache)
        - z
    )

    orbit = prob.pseudo_orbit + z
    count = win.length - 1
    residuals = np.zeros((count, dim))
    floor = 0.0
    for i, n in enumerate(range(win.n_min + 1, win.n_max + 1)):
        prev = orbit.value_at(n - 1)
        residuals[i] = orbit.value_at(n) - nonlinear_step(prob, n - 1, prev, cache)
        # Round-off floor of the residual evaluation: differences of values
        # this large cannot be certified below machine epsilon times their
        # magnitude, which matters on windows where hyperbolic orbits grow
        # to ~1e8 and beyond.
        scale = float(np.linalg.norm(orbit.value_at(n))) + float(
            np.linalg.norm(cache.matrix(n - 1) @ prev)
        )
        floor = max(floor, 64.0 * np.finfo(float).eps * (1.0 + scale))
    max_residual = float(np.max(np.linalg.norm(residuals, axis=1))) if count else 0.0

    margins = np.array(
        [
            shadow_bound * prob.weights.value_at(n)
            - float(np.linalg.norm(z.value_at(n)))
            for n in win.indices()
        ]
    )
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
    shadow_bound: float | None = None,
    *,
    orbit_tol: float = 1e-8,
    coincidence_tol: float = 1e-8,
) -> UniquenessReport:
    """Expansivity check at window scale for two orbit sequences."""
    cache = prob.cache()
    win = prob.window
    if orbit1.window != win or orbit2.window != win:
        raise ValueError("orbits must live on the problem window")
    for seq in (orbit1, orbit2):
        for n in range(win.n_min + 1, win.n_max + 1):
            res = seq.value_at(n) - nonlinear_step(prob, n - 1, seq.value_at(n - 1), cache)
            if np.linalg.norm(res) > orbit_tol:
                raise ValueError(
                    f"input is not an orbit: residual {np.linalg.norm(res):.3e}"
                    f" at index {n} exceeds {orbit_tol:.1e}"
                )
    if shadow_bound is None:
        shadow_bound = prob.constants[0]
    max_adapted = 0.0
    hypothesis = True
    for n in win.indices():
        gap = _adapted_norm_at(
            cache, n, orbit1.value_at(n) - orbit2.value_at(n), prob.horizon,
            prob.allow_uncertified_truncation,
        ).value
        max_adapted = max(max_adapted, gap)
        if gap > shadow_bound * prob.weights.value_at(n) * (1 + 1e-12):
            hypothesis = False
    max_plain = (orbit1 - orbit2).sup_norm()
    coincide = max_plain <= coincidence_tol if hypothesis else None
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
        return WeightSequence(window, np.exp(rate * np.abs(ns)), math.exp(rate))
    if kind == "polynomial":
        return WeightSequence(window, (np.abs(ns) + 1).astype(float), 2.0)
    raise ValueError(f"unknown weight kind {kind!r}")


def invert_step(
    inverse_matrix: np.ndarray,
    perturbation: Perturbation,
    point: BasePoint,
    target: np.ndarray,
    *,
    tol: float = 1e-14,
    max_iter: int = 256,
) -> np.ndarray:
    """Solve F_point(u) = target by the contraction u <- A^{-1}(target - f(u)).

    Convergent whenever |A^{-1}| Lip(f) < 1, which all scenarios guarantee.
    """
    u = inverse_matrix @ target
    for _ in range(max_iter):
        u_next = inverse_matrix @ (target - perturbation(point, u))
        if float(np.linalg.norm(u_next - u)) <= tol * (1.0 + float(np.linalg.norm(u_next))):
            return u_next
        u = u_next
    raise InversionError(
        f"backward inversion did not converge within {max_iter} iterations"
    )


def nonlinear_orbit(
    cocycle: CocycleSystem,
    perturbation: Perturbation,
    omega: BasePoint,
    x0: np.ndarray,
    window: Window,
    *,
    inversion_tol: float = 1e-14,
    cache: OrbitCache | None = None,
) -> WindowSequence:
    """Exact two-sided orbit of the perturbed map through x0 on a window."""
    cache = OrbitCache.for_orbit(cache, cocycle, omega)
    x0 = np.asarray(x0, dtype=float)
    values = np.zeros((window.length, x0.size))
    values[window.offset(0)] = x0
    x = x0
    for n in range(0, window.n_max):
        x = cache.matrix(n) @ x + perturbation(cache.point(n), x)
        values[window.offset(n + 1)] = x
    x = x0
    for n in range(0, window.n_min, -1):
        x = invert_step(
            cache.inverse(n - 1), perturbation, cache.point(n - 1), x,
            tol=inversion_tol,
        )
        values[window.offset(n - 1)] = x
    return WindowSequence(window, values)
