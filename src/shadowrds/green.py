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

The problem is block-bidiagonal, so ``green_apply`` solves it exactly in
O(L) steps on a window of length L: a forward sweep accumulates the stable
sum, s_n = P_n A_{n-1} s_{n-1} + P_n z_n, and a backward sweep accumulates
the unstable sum, u_n = (I - P_n) A_n^{-1} (u_{n+1} + (I - P_{n+1}) z_{n+1}),
starting from u_{n_max} = 0; the output is s - u.

An independent dense boundary-value solver assembling exactly this system is
provided as an oracle; the sweeps must reproduce it to round-off.

Every operator here takes the orbit segment it acts along, an ``OrbitCache``
with dichotomy data, as its first argument; the weighted norm truncates its
adapted norms as that dichotomy data says.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import OrbitCache, _adapted_norm_parts, _apply_shared, _scaled

__all__ = [
    "MAX_WINDOW",
    "AdmissibilityError",
    "Window",
    "WindowSequence",
    "WeightSequence",
    "weighted_norm",
    "weighted_norms",
    "green_apply",
    "GreenResidualReport",
    "green_residual",
    "dense_green_solve",
    "NormBoundReport",
    "green_norm_bound_check",
]

MAX_WINDOW = 1 << 16
_NORM_BOUND_SLACK = 1e-6  # on the amplification bound in green_norm_bound_check


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
        # Power-of-two scaled (``_scaled``): finite rows near the float limit
        # do not overflow in the sum of squares, and other rows give the
        # unscaled result bit for bit.
        return float(np.max(_scaled(lambda rows: np.linalg.norm(rows, axis=1), self.values)))

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


def _weighted_norms(
    orbit: OrbitCache, values: np.ndarray, weights: WeightSequence
) -> np.ndarray:
    """Weighted norms of a (k, L, d) stack of sequences on the weights' window,
    from one adapted-norm kernel call over its L * k rows, index-major."""
    k, length, d = values.shape
    win = weights.window
    ns = np.repeat(np.arange(win.n_min, win.n_max + 1), k)
    rows = values.transpose(1, 0, 2).reshape(length * k, d)
    stable, unstable = _adapted_norm_parts(orbit, ns, rows)
    return np.max((stable + unstable).reshape(length, k) / weights.values[:, None], axis=0)


def weighted_norm(orbit: OrbitCache, seq: WindowSequence, weights: WeightSequence) -> float:
    """sup over the window of weight(n)^{-1} |seq_n| in the adapted norm at sigma^n w."""
    if seq.window != weights.window:
        raise ValueError("window mismatch between sequence and weights")
    return float(_weighted_norms(orbit, seq.values[None], weights)[0])


def weighted_norms(
    orbit: OrbitCache, seqs: list[WindowSequence], weights: WeightSequence
) -> np.ndarray:
    """``weighted_norm`` of each sequence, from one adapted-norm kernel call."""
    if any(seq.window != weights.window for seq in seqs):
        raise ValueError("window mismatch between sequence and weights")
    values = np.array([seq.values for seq in seqs]).reshape(-1, weights.window.length, orbit.dim)
    return _weighted_norms(orbit, values, weights)


def green_apply(orbit: OrbitCache, z: WindowSequence) -> WindowSequence:
    """Apply the Green operator to z (extended by zero outside its window).

    Output entry n is w_n = s_n - u_n, the stable and unstable sums

        s_n = sum_{k=0}^{n-n_min} A(s^{n-k}w, k) P(s^{n-k}w) z_{n-k},
        u_n = sum_{k=1}^{n_max-n} A(s^{n+k}w, -k) (I - P(s^{n+k}w)) z_{n+k},

    evaluated exactly by one forward and one backward sweep:

        s_{n_min} = P_{n_min} z_{n_min},  s_n = P_n A_{n-1} s_{n-1} + P_n z_n,
        u_{n_max} = 0,  u_n = (I - P_n) A_n^{-1} (u_{n+1} + (I - P_{n+1}) z_{n+1}),

    with the one-step maps of the range reads ``OrbitCache.stable_maps`` and
    ``unstable_maps``, which keep every step sandwiched between projectors
    (see the module docstring of the cocycle module).
    """
    return WindowSequence(z.window, _green_sweep(orbit, z.window, z.values[None])[0])


def _green_sweep(orbit: OrbitCache, win: Window, zs: np.ndarray) -> np.ndarray:
    """The Green operator applied to each sequence of a (k, L, d) stack on
    ``win``: the sweeps of ``green_apply``, each equal bit for bit to its own
    k = 1 sweep.

    The sweeps step an index-major (L, k, d) array one window offset at a
    time.  For k >= 2 each step applies that offset's map to the k vectors
    with ``_apply_shared`` (one dgemv per output component); k = 1 steps (d,)
    vectors with plain (d, d) @ (d,) products, which round the same and cost
    less than any stacked product.
    """
    k, length, d = zs.shape
    fwd = orbit.stable_maps(win.n_min, win.n_max)
    bwd = orbit.unstable_maps(win.n_min, win.n_max)
    projs = orbit.projectors(win.n_min, win.n_max + 1)
    zs = zs.transpose(1, 0, 2)
    out = _apply_shared(projs, zs, np.empty((length, k, d)))
    steps, qz, product = out, zs - out, _apply_shared
    if k == 1:
        steps, qz, product = steps[:, 0], qz[:, 0], np.matmul
    t = np.empty(steps.shape[1:])
    for i in range(1, length):
        steps[i] += product(fwd[i - 1], steps[i - 1], t)
    u = np.zeros(steps.shape[1:])
    for i in range(length - 2, -1, -1):
        product(bwd[i], np.add(u, qz[i + 1], out=t), u)
        steps[i] -= u
    return out.transpose(1, 0, 2)


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
    orbit: OrbitCache, z: WindowSequence, w: WindowSequence
) -> GreenResidualReport:
    """Difference-equation residual of w against input z on interior indices."""
    if z.window != w.window:
        raise ValueError("window mismatch between input and output sequences")
    win = z.window
    res = w.values[1:] - orbit.apply(win.n_min, w.values[:-1]) - z.values[1:]
    max_norm = float(np.max(np.linalg.norm(res, axis=1))) if res.size else 0.0
    p = orbit.projector(win.n_min)
    gap = float(np.linalg.norm(p @ (w.value_at(win.n_min) - z.value_at(win.n_min))))
    return GreenResidualReport(win, res, max_norm, gap)


def dense_green_solve(orbit: OrbitCache, z: WindowSequence) -> WindowSequence:
    """Independent oracle: solve the windowed boundary-value problem densely.

    Stacks the interior difference equations together with the two boundary
    conditions (stable component at n_min equals the instantaneous input,
    unstable component at n_max vanishes) and solves the resulting linear
    system by least squares.  The system is consistent with unique solution,
    so this reproduces the Green series up to round-off.
    """
    win = z.window
    d = z.dim
    size = win.length * d
    rows = (win.length - 1) * d + 2 * d
    mat = np.zeros((rows, size))
    rhs = np.zeros(rows)
    eye = np.eye(d)
    mats = orbit.matrices(win.n_min, win.n_max)
    r = 0
    for n in range(win.n_min + 1, win.n_max + 1):
        i, j = win.offset(n), win.offset(n - 1)
        mat[r : r + d, i * d : (i + 1) * d] = eye
        mat[r : r + d, j * d : (j + 1) * d] = -mats[j]
        rhs[r : r + d] = z.value_at(n)
        r += d
    p_lo = orbit.projector(win.n_min)
    mat[r : r + d, 0:d] = p_lo
    rhs[r : r + d] = p_lo @ z.value_at(win.n_min)
    r += d
    q_hi = np.eye(d) - orbit.projector(win.n_max)
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
    orbit: OrbitCache,
    weights: WeightSequence,
    epsilon: float,
    trials: int,
    rng: np.random.Generator,
) -> NormBoundReport:
    """Check |Gz| <= (1+e^{-eps})/(1-e^{-eps}) |z| in the weighted norm.

    Requires the weights to be e^{rate - eps}-admissible for the declared
    eps in (0, rate].  The trials are one (trials, L, d) stack: one Green
    sweep and two weighted-norm kernel calls serve them all.
    """
    rate = orbit.require_dichotomy().rate
    if not 0 < epsilon <= rate:
        raise ValueError("epsilon must lie in (0, rate]")
    weights.require_admissible(math.exp(rate - epsilon))
    bound = (1 + math.exp(-epsilon)) / (1 - math.exp(-epsilon))
    win = weights.window
    # One draw of the whole stack fills the values of one draw per trial.
    raws = rng.standard_normal((trials, win.length, orbit.dim))
    zn = _weighted_norms(orbit, raws, weights)
    kept = zn != 0.0
    wn = _weighted_norms(orbit, _green_sweep(orbit, win, raws[kept]), weights)
    worst = float(np.max(wn / zn[kept], initial=0.0))
    return NormBoundReport(bound, worst, trials, worst <= bound + _NORM_BOUND_SLACK)
