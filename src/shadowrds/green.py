"""The discrete Green operator of the dichotomy on finite windows.

For a two-sided sequence z the operator returns the unique bounded solution
of the inhomogeneous linear difference equation

    w_n - A(sigma^{n-1} w) w_{n-1} = z_n,

splitting the response along the dichotomy: the stable sum accumulates past
inputs pushed forward, the unstable sum accumulates future inputs pulled
backward.  On a finite window z is extended by zero outside, which makes both
series finite and exact and pins the boundary behaviour to "no stable history
before n_min, no unstable future after n_max":

    P(sigma^{n_min} w) w_{n_min} = P(sigma^{n_min} w) z_{n_min},
    (I - P(sigma^{n_max} w)) w_{n_max} = 0.

An independent dense boundary-value solver assembling exactly this system is
provided as an oracle; the series evaluation must reproduce it to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import CocycleSystem, DichotomyData, OrbitCache, _adapted_norm_at
from .driving import BasePoint

__all__ = [
    "MAX_WINDOW",
    "AdmissibilityError",
    "Window",
    "WindowSequence",
    "WeightSequence",
    "weighted_norm",
    "green_apply",
    "GreenResidualReport",
    "green_residual",
    "dense_green_solve",
    "NormBoundReport",
    "green_norm_bound_check",
]

MAX_WINDOW = 1 << 16


class AdmissibilityError(ValueError):
    """A weight sequence violates its declared ratio bound."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Window:
    """Integer index range [n_min, n_max] containing 0."""

    n_min: int
    n_max: int

    def __post_init__(self) -> None:
        if not (self.n_min <= 0 <= self.n_max):
            raise ValueError("window must contain 0")
        if self.length > MAX_WINDOW:
            raise ValueError(f"window length {self.length} exceeds {MAX_WINDOW}")

    @property
    def length(self) -> int:
        return self.n_max - self.n_min + 1

    def indices(self) -> range:
        return range(self.n_min, self.n_max + 1)

    def offset(self, n: int) -> int:
        if not self.n_min <= n <= self.n_max:
            raise IndexError(f"index {n} outside window [{self.n_min}, {self.n_max}]")
        return n - self.n_min

    @classmethod
    def symmetric(cls, half: int) -> "Window":
        return cls(-half, half)


@dataclass(frozen=True)
class WindowSequence:
    """A finite vector-valued two-sided sequence stored as a (length, d) array."""

    window: Window
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.window.length:
            raise ValueError("values length must equal window length")
        if not np.all(np.isfinite(v)):
            raise ValueError("sequence entries must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def value_at(self, n: int) -> np.ndarray:
        return self.values[self.window.offset(n)]

    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.values, axis=1)))

    @classmethod
    def zeros(cls, window: Window, dim: int) -> "WindowSequence":
        return cls(window, np.zeros((window.length, dim)))

    def __add__(self, other: "WindowSequence") -> "WindowSequence":
        if self.window != other.window:
            raise ValueError("window mismatch")
        return WindowSequence(self.window, self.values + other.values)

    def __sub__(self, other: "WindowSequence") -> "WindowSequence":
        if self.window != other.window:
            raise ValueError("window mismatch")
        return WindowSequence(self.window, self.values - other.values)

    def __mul__(self, scalar: float) -> "WindowSequence":
        return WindowSequence(self.window, self.values * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class WeightSequence:
    """Positive weights on a window whose consecutive ratios stay within r."""

    window: Window
    values: np.ndarray
    ratio_bound: float

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float).reshape(-1)
        if v.shape[0] != self.window.length:
            raise ValueError("weights length must equal window length")
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise ValueError("weights must be positive and finite")
        if self.ratio_bound < 1:
            raise ValueError("ratio bound must be >= 1")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        self.require_admissible(self.ratio_bound)

    def value_at(self, n: int) -> float:
        return float(self.values[self.window.offset(n)])

    def scaled(self, factor: float) -> "WeightSequence":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return WeightSequence(self.window, self.values * factor, self.ratio_bound)

    def require_admissible(self, ratio: float) -> None:
        """Raise unless every consecutive ratio is within the given bound."""
        v = self.values
        ratios = np.maximum(v[1:] / v[:-1], v[:-1] / v[1:])
        bad = np.nonzero(ratios > ratio * (1 + 1e-12))[0]
        if bad.size:
            n = self.window.n_min + int(bad[0])
            raise AdmissibilityError(
                f"weight ratio {ratios[bad[0]]:.6g} between indices {n} and {n + 1}"
                f" exceeds the bound {ratio:.6g}",
                index=n,
            )


def weighted_norm(
    system: CocycleSystem,
    dichotomy: DichotomyData,
    omega: BasePoint,
    seq: WindowSequence,
    weights: WeightSequence,
    horizon: int,
    *,
    allow_uncertified: bool = False,
    cache: OrbitCache | None = None,
) -> float:
    """sup over the window of weight(n)^{-1} |seq_n| in the adapted norm at sigma^n w."""
    if seq.window != weights.window:
        raise ValueError("window mismatch between sequence and weights")
    cache = OrbitCache.for_orbit(cache, system, omega, dichotomy)
    best = 0.0
    for n in seq.window.indices():
        nrm = _adapted_norm_at(
            cache, n, seq.value_at(n), horizon, allow_uncertified
        ).value
        best = max(best, nrm / weights.value_at(n))
    return best


def green_apply(
    system: CocycleSystem,
    dichotomy: DichotomyData,
    omega: BasePoint,
    z: WindowSequence,
    cache: OrbitCache | None = None,
) -> WindowSequence:
    """Apply the Green operator to z (extended by zero outside its window).

    Output entry n is

        sum_{k=0}^{n-n_min} A(s^{n-k}w, k) P(s^{n-k}w) z_{n-k}
      - sum_{k=1}^{n_max-n} A(s^{n+k}w, -k) (I - P(s^{n+k}w)) z_{n+k},

    evaluated with running matrix products whose factors stay sandwiched
    between projectors (see module docstring of the cocycle module).
    """
    cache = OrbitCache.for_orbit(cache, system, omega, dichotomy)
    win = z.window
    d = z.dim
    projs = {n: cache.projector(n) for n in win.indices()}
    out = np.zeros((win.length, d))
    for n in win.indices():
        acc = projs[n] @ z.value_at(n)
        m = projs[n]
        for k in range(1, n - win.n_min + 1):
            m = m @ cache.stable_factor(n - k)
            acc = acc + m @ z.value_at(n - k)
        c = np.eye(d) - projs[n]
        for k in range(1, win.n_max - n + 1):
            c = c @ cache.unstable_factor(n + k - 1)
            acc = acc - c @ z.value_at(n + k)
        out[win.offset(n)] = acc
    return WindowSequence(win, out)


@dataclass(frozen=True)
class GreenResidualReport:
    """Residuals w_n - A(sigma^{n-1} w) w_{n-1} - z_n on interior indices.

    ``left_edge_gap`` reports |P(s^{n_min}w)(w_{n_min} - z_{n_min})|: the
    stable component at the left edge of a Green-operator output consists of
    the instantaneous term alone.
    """

    window: Window
    residuals: np.ndarray
    max_norm: float
    left_edge_gap: float


def green_residual(
    system: CocycleSystem,
    dichotomy: DichotomyData,
    omega: BasePoint,
    z: WindowSequence,
    w: WindowSequence,
    cache: OrbitCache | None = None,
) -> GreenResidualReport:
    """Difference-equation residual of w against input z on interior indices."""
    if z.window != w.window:
        raise ValueError("window mismatch between input and output sequences")
    cache = OrbitCache.for_orbit(cache, system, omega, dichotomy)
    win = z.window
    res = np.zeros((win.length - 1, z.dim))
    for i, n in enumerate(range(win.n_min + 1, win.n_max + 1)):
        res[i] = w.value_at(n) - cache.matrix(n - 1) @ w.value_at(n - 1) - z.value_at(n)
    max_norm = float(np.max(np.linalg.norm(res, axis=1))) if res.size else 0.0
    p = cache.projector(win.n_min)
    gap = float(np.linalg.norm(p @ (w.value_at(win.n_min) - z.value_at(win.n_min))))
    return GreenResidualReport(win, res, max_norm, gap)


def dense_green_solve(
    system: CocycleSystem,
    dichotomy: DichotomyData,
    omega: BasePoint,
    z: WindowSequence,
    cache: OrbitCache | None = None,
) -> WindowSequence:
    """Independent oracle: solve the windowed boundary-value problem densely.

    Stacks the interior difference equations together with the two boundary
    conditions (stable component at n_min equals the instantaneous input,
    unstable component at n_max vanishes) and solves the resulting linear
    system by least squares.  The system is consistent with unique solution,
    so this reproduces the Green series up to round-off.
    """
    cache = OrbitCache.for_orbit(cache, system, omega, dichotomy)
    win = z.window
    d = z.dim
    size = win.length * d
    rows = (win.length - 1) * d + 2 * d
    mat = np.zeros((rows, size))
    rhs = np.zeros(rows)
    eye = np.eye(d)
    r = 0
    for n in range(win.n_min + 1, win.n_max + 1):
        i, j = win.offset(n), win.offset(n - 1)
        mat[r : r + d, i * d : (i + 1) * d] = eye
        mat[r : r + d, j * d : (j + 1) * d] = -cache.matrix(n - 1)
        rhs[r : r + d] = z.value_at(n)
        r += d
    p_lo = cache.projector(win.n_min)
    mat[r : r + d, 0:d] = p_lo
    rhs[r : r + d] = p_lo @ z.value_at(win.n_min)
    r += d
    q_hi = np.eye(d) - cache.projector(win.n_max)
    mat[r : r + d, size - d : size] = q_hi
    rhs[r : r + d] = 0.0
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    return WindowSequence(win, sol.reshape(win.length, d))


@dataclass(frozen=True)
class NormBoundReport:
    """Observed weighted-norm amplification of the Green operator."""

    bound: float
    max_ratio: float
    trials: int
    passed: bool


def green_norm_bound_check(
    system: CocycleSystem,
    dichotomy: DichotomyData,
    omega: BasePoint,
    weights: WeightSequence,
    epsilon: float,
    trials: int,
    horizon: int,
    rng: np.random.Generator,
    *,
    allow_uncertified: bool = False,
    slack: float = 1e-6,
    cache: OrbitCache | None = None,
) -> NormBoundReport:
    """Check |Gz| <= (1+e^{-eps})/(1-e^{-eps}) |z| in the weighted norm.

    Requires the weights to be e^{rate - eps}-admissible for the declared
    eps in (0, rate].
    """
    if not 0 < epsilon <= dichotomy.rate:
        raise ValueError("epsilon must lie in (0, rate]")
    weights.require_admissible(math.exp(dichotomy.rate - epsilon))
    cache = OrbitCache.for_orbit(cache, system, omega, dichotomy)
    bound = (1 + math.exp(-epsilon)) / (1 - math.exp(-epsilon))
    win = weights.window
    worst = 0.0
    for _ in range(trials):
        raw = rng.standard_normal((win.length, system.dim))
        z = WindowSequence(win, raw)
        zn = weighted_norm(
            system, dichotomy, omega, z, weights, horizon,
            allow_uncertified=allow_uncertified, cache=cache,
        )
        if zn == 0.0:
            continue
        w = green_apply(system, dichotomy, omega, z, cache=cache)
        wn = weighted_norm(
            system, dichotomy, omega, w, weights, horizon,
            allow_uncertified=allow_uncertified, cache=cache,
        )
        worst = max(worst, wn / zn)
    return NormBoundReport(bound, worst, trials, worst <= bound + slack)
