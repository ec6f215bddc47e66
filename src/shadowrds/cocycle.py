"""Linear cocycles over a driving system, dichotomy data, and adapted norms.

A cocycle is generated by a matrix-valued map A over a base system: the
n-step transition from a point w is A(sigma^{n-1} w) ... A(w), extended to
negative n by inverses.  Dichotomy data consists of a projector family P(w),
a rate lam, a bound K(w), and a strictness margin mu meaning the contraction
bounds actually hold at rate lam + mu.  The margin is what makes the adapted
norm below computable with a certified truncation error.

The adapted norm of x at w is

    sup_{n>=0} |A(w,n)P(w)x| e^{lam n}  +  sup_{n>=0} |A(w,-n)(I-P(w))x| e^{lam n},

truncated here at a finite horizon N.  Every discarded term is bounded by
K(w) e^{-mu(N+1)} |x|, so the reported value R encloses the untruncated norm
in [R, R + tail].  When the bound already lies below both attained partial
sups the tail is zero and the truncated value is certified exact.

Vector iterations along the stable (resp. unstable) direction re-apply the
projector at every step.  This is deliberate: round-off seeds a tiny
component in the complementary subspace, which hyperbolicity then amplifies
exponentially; the re-projection keeps that contamination at round-off level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .driving import BasePoint, DrivingSystem, step

__all__ = [
    "COND_LIMIT",
    "SingularityError",
    "UncertifiedTruncationError",
    "CocycleSystem",
    "DichotomyData",
    "TemperedEnvelope",
    "OrbitCache",
    "cocycle_eval",
    "AdaptedNorm",
    "adapted_norm",
    "NormEquivalenceReport",
    "check_norm_equivalence",
    "OneStepContractionReport",
    "check_one_step_contraction",
    "envelope_along_orbit",
    "build_envelope",
    "operator_norm",
]

#: Generator matrices with a 2-norm condition number above this are rejected.
COND_LIMIT = 1e12


class SingularityError(ValueError):
    """A generator matrix is singular or too ill conditioned to invert."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class UncertifiedTruncationError(ValueError):
    """Adapted-norm truncation cannot be certified because the margin is zero."""


def operator_norm(m: np.ndarray) -> float:
    """Operator 2-norm (largest singular value)."""
    return float(np.linalg.norm(m, 2))


@dataclass(frozen=True)
class CocycleSystem:
    """Generator map w -> A(w) of d x d matrices over a driving system."""

    dim: int
    generator: Callable[[BasePoint], np.ndarray]
    base: DrivingSystem

    def matrix(self, point: BasePoint, index: int | None = None) -> np.ndarray:
        """Evaluate and validate the generator at a point."""
        m = np.asarray(self.generator(point), dtype=float)
        if m.shape != (self.dim, self.dim):
            raise ValueError(
                f"generator returned shape {m.shape}, expected {(self.dim, self.dim)}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("generator returned non-finite entries")
        cond = np.linalg.cond(m)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            where = "" if index is None else f" at orbit index {index}"
            raise SingularityError(
                f"generator matrix{where} has condition number {cond:.3e}"
                f" (limit {COND_LIMIT:.0e})",
                index=index,
            )
        return m


@dataclass(frozen=True)
class DichotomyData:
    """Projector family, contraction rate, strictness margin, and bound."""

    projector: Callable[[BasePoint], np.ndarray]
    rate: float
    margin: float
    bound: Callable[[BasePoint], float]

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("dichotomy rate must be positive")
        if self.margin < 0:
            raise ValueError("strictness margin must be nonnegative")


class OrbitCache:
    """Lazily evaluated matrices, inverses, and projectors along one orbit.

    A cache belongs to one (system, base point, dichotomy): every function
    that accepts a cache obtains it through ``OrbitCache.for_orbit``, which
    raises ValueError when the cache was built for another system, base
    point, or dichotomy.  A cache built without dichotomy data serves every
    function that needs none.

    All entries are memoized by the integer orbit index n (the point
    sigma^n w).  The composite factors keep stable/unstable iterations
    sandwiched between projectors, see the module docstring.
    """

    def __init__(
        self,
        system: CocycleSystem,
        omega: BasePoint,
        dichotomy: DichotomyData | None = None,
    ):
        self.system = system
        self.omega = omega
        self.dichotomy = dichotomy
        self._points: dict[int, BasePoint] = {0: omega}
        self._mats: dict[int, np.ndarray] = {}
        self._invs: dict[int, np.ndarray] = {}
        self._projs: dict[int, np.ndarray] = {}
        self._bounds: dict[int, float] = {}
        self._stable_maps: dict[int, np.ndarray] = {}
        self._unstable_maps: dict[int, np.ndarray] = {}
        self._stable_factors: dict[int, np.ndarray] = {}
        self._unstable_factors: dict[int, np.ndarray] = {}

    @classmethod
    def for_orbit(
        cls,
        cache: OrbitCache | None,
        system: CocycleSystem,
        omega: BasePoint,
        dichotomy: DichotomyData | None = None,
    ) -> OrbitCache:
        """The given cache after checking that it fits, or a new one when None.

        With ``dichotomy`` None the cache's own dichotomy data is not checked,
        since the caller uses none.
        """
        if cache is not None:
            if cache.system != system:
                raise ValueError("cache was built for another cocycle system")
            if cache.omega != omega:
                raise ValueError(
                    f"cache was built at base point {cache.omega}, not at {omega}"
                )
            if dichotomy is not None and cache.dichotomy != dichotomy:
                raise ValueError("cache was built for other dichotomy data")
            return cache
        return cls(system, omega, dichotomy)

    @property
    def dim(self) -> int:
        return self.system.dim

    def point(self, n: int) -> BasePoint:
        p = self._points.get(n)
        if p is None:
            p = step(self.system.base, self.omega, n)
            self._points[n] = p
        return p

    def matrix(self, n: int) -> np.ndarray:
        m = self._mats.get(n)
        if m is None:
            m = self.system.matrix(self.point(n), index=n)
            m.setflags(write=False)
            self._mats[n] = m
        return m

    def inverse(self, n: int) -> np.ndarray:
        m = self._invs.get(n)
        if m is None:
            m = np.linalg.inv(self.matrix(n))
            m.setflags(write=False)
            self._invs[n] = m
        return m

    def projector(self, n: int) -> np.ndarray:
        if self.dichotomy is None:
            raise ValueError("cache was built without dichotomy data")
        p = self._projs.get(n)
        if p is None:
            p = np.asarray(self.dichotomy.projector(self.point(n)), dtype=float)
            if p.shape != (self.dim, self.dim):
                raise ValueError("projector has wrong shape")
            p.setflags(write=False)
            self._projs[n] = p
        return p

    def complement(self, n: int) -> np.ndarray:
        return np.eye(self.dim) - self.projector(n)

    def bound(self, n: int) -> float:
        if self.dichotomy is None:
            raise ValueError("cache was built without dichotomy data")
        k = self._bounds.get(n)
        if k is None:
            k = float(self.dichotomy.bound(self.point(n)))
            if k <= 0:
                raise ValueError("dichotomy bound K must be positive")
            self._bounds[n] = k
        return k

    def stable_map(self, j: int) -> np.ndarray:
        """P(sigma^{j+1}w) A(sigma^j w): steps stable vectors from time j to j+1."""
        m = self._stable_maps.get(j)
        if m is None:
            m = self.projector(j + 1) @ self.matrix(j)
            m.setflags(write=False)
            self._stable_maps[j] = m
        return m

    def unstable_map(self, j: int) -> np.ndarray:
        """(I-P(sigma^j w)) A(sigma^j w)^{-1}: steps unstable vectors from j+1 to j."""
        m = self._unstable_maps.get(j)
        if m is None:
            m = self.complement(j) @ self.inverse(j)
            m.setflags(write=False)
            self._unstable_maps[j] = m
        return m

    def stable_factor(self, j: int) -> np.ndarray:
        """A(sigma^j w) P(sigma^j w): right factor for stable running products."""
        m = self._stable_factors.get(j)
        if m is None:
            m = self.matrix(j) @ self.projector(j)
            m.setflags(write=False)
            self._stable_factors[j] = m
        return m

    def unstable_factor(self, j: int) -> np.ndarray:
        """A(sigma^j w)^{-1} (I-P(sigma^{j+1} w)): right factor for unstable products."""
        m = self._unstable_factors.get(j)
        if m is None:
            m = self.inverse(j) @ self.complement(j + 1)
            m.setflags(write=False)
            self._unstable_factors[j] = m
        return m


def cocycle_eval(
    system: CocycleSystem,
    omega: BasePoint,
    n: int,
    cache: OrbitCache | None = None,
) -> np.ndarray:
    """Evaluate the n-step cocycle matrix, n in Z, |n| <= 10**6.

    Satisfies A(w, 0) = Id exactly and the composition law
    A(w, n + m) = A(sigma^m w, n) A(w, m).
    """
    n = int(n)
    if abs(n) > 10**6:
        raise ValueError("cocycle step count limited to |n| <= 10**6")
    cache = OrbitCache.for_orbit(cache, system, omega)
    out = np.eye(system.dim)
    if n >= 0:
        for j in range(n):
            out = cache.matrix(j) @ out
    else:
        for k in range(1, -n + 1):
            out = cache.inverse(-k) @ out
    return out


@dataclass(frozen=True)
class AdaptedNorm:
    """Truncated adapted norm with its certified enclosure.

    The untruncated norm lies in [value, value + tail] when ``certified`` is
    true.  With a zero margin no tail bound exists; callers must opt in via
    ``allow_uncertified`` and the tail is reported as inf.
    """

    value: float
    tail: float
    certified: bool
    stable_part: float
    unstable_part: float


def _adapted_norm_at(
    cache: OrbitCache,
    base_index: int,
    x: np.ndarray,
    horizon: int,
    allow_uncertified: bool,
) -> AdaptedNorm:
    dich = cache.dichotomy
    if dich is None:
        raise ValueError("adapted norm requires dichotomy data")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    mu = dich.margin
    if mu <= 0 and not allow_uncertified:
        raise UncertifiedTruncationError(
            "strictness margin is zero: adapted-norm truncation cannot be"
            " certified (pass allow_uncertified=True to override)"
        )
    x = np.asarray(x, dtype=float)
    lam = dich.rate
    growth = math.exp(lam)

    v = cache.projector(base_index) @ x
    stable = float(np.linalg.norm(v))
    weight = 1.0
    for k in range(horizon):
        v = cache.stable_map(base_index + k) @ v
        weight *= growth
        stable = max(stable, float(np.linalg.norm(v)) * weight)

    u = x - cache.projector(base_index) @ x
    unstable = float(np.linalg.norm(u))
    weight = 1.0
    for k in range(horizon):
        u = cache.unstable_map(base_index - k - 1) @ u
        weight *= growth
        unstable = max(unstable, float(np.linalg.norm(u)) * weight)

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


def adapted_norm(
    system: CocycleSystem,
    dichotomy: DichotomyData,
    omega: BasePoint,
    x: np.ndarray,
    horizon: int,
    *,
    allow_uncertified: bool = False,
    cache: OrbitCache | None = None,
) -> AdaptedNorm:
    """Truncated adapted norm of x at omega with certified tail bound."""
    cache = OrbitCache.for_orbit(cache, system, omega, dichotomy)
    return _adapted_norm_at(cache, 0, x, horizon, allow_uncertified)


@dataclass(frozen=True)
class NormEquivalenceReport:
    """The chain |x| <= |x|_w <= 2 K(w) |x| evaluated at one point."""

    plain: float
    adapted: AdaptedNorm
    upper: float
    passed: bool


def check_norm_equivalence(
    system: CocycleSystem,
    dichotomy: DichotomyData,
    omega: BasePoint,
    x: np.ndarray,
    horizon: int,
    *,
    allow_uncertified: bool = False,
    cache: OrbitCache | None = None,
    rel_slack: float = 1e-9,
) -> NormEquivalenceReport:
    """Verify the two-sided equivalence of plain and adapted norms."""
    cache = OrbitCache.for_orbit(cache, system, omega, dichotomy)
    x = np.asarray(x, dtype=float)
    plain = float(np.linalg.norm(x))
    nrm = _adapted_norm_at(cache, 0, x, horizon, allow_uncertified)
    upper = 2.0 * cache.bound(0) * plain
    lower_ok = plain <= nrm.value * (1.0 + rel_slack)
    upper_ok = nrm.value <= upper * (1.0 + rel_slack)
    return NormEquivalenceReport(plain, nrm, upper, lower_ok and upper_ok)


@dataclass(frozen=True)
class OneStepContractionReport:
    """Margins of the adapted-norm contraction estimates at one (x, n) pair.

    ``stable_margin`` is e^{-lam n} |x|_w minus the adapted norm (plus tail,
    when certified) of A(w,n)P(w)x at sigma^n w; ``unstable_margin`` is the
    backward analogue.  Nonnegative margins certify the inequalities.
    """

    steps: int
    stable_margin: float
    unstable_margin: float
    certified: bool
    passed: bool


def check_one_step_contraction(
    system: CocycleSystem,
    dichotomy: DichotomyData,
    omega: BasePoint,
    x: np.ndarray,
    steps: int,
    horizon: int,
    *,
    allow_uncertified: bool = False,
    cache: OrbitCache | None = None,
    abs_slack: float = 1e-9,
) -> OneStepContractionReport:
    """Check the n-step contraction of adapted norms along both directions."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    cache = OrbitCache.for_orbit(cache, system, omega, dichotomy)
    x = np.asarray(x, dtype=float)
    lam = dichotomy.rate
    decay = math.exp(-lam * steps)

    base = _adapted_norm_at(cache, 0, x, horizon, allow_uncertified)
    rhs = decay * base.value

    v = cache.projector(0) @ x
    for k in range(steps):
        v = cache.stable_map(k) @ v
    fwd = _adapted_norm_at(cache, steps, v, horizon, allow_uncertified)

    u = x - cache.projector(0) @ x
    for k in range(steps):
        u = cache.unstable_map(-k - 1) @ u
    bwd = _adapted_norm_at(cache, -steps, u, horizon, allow_uncertified)

    certified = base.certified and fwd.certified and bwd.certified
    fwd_tail = fwd.tail if certified else 0.0
    bwd_tail = bwd.tail if certified else 0.0
    stable_margin = rhs - (fwd.value + fwd_tail)
    unstable_margin = rhs - (bwd.value + bwd_tail)
    scale = max(1.0, rhs)
    passed = (
        stable_margin >= -abs_slack * scale and unstable_margin >= -abs_slack * scale
    )
    return OneStepContractionReport(steps, stable_margin, unstable_margin, certified, passed)


def envelope_along_orbit(
    base: DrivingSystem,
    bound: Callable[[BasePoint], float],
    omega: BasePoint,
    rho: float,
    horizon: int,
    n_lo: int = 0,
    n_hi: int = 0,
) -> np.ndarray:
    """Values D(sigma^n w) for n in [n_lo, n_hi] of the windowed envelope.

    D(p) = max_{|j| <= horizon} K(sigma^j p) e^{-rho |j|}; the K values along
    the orbit are evaluated once and reused across the sliding windows.
    """
    if n_hi < n_lo:
        raise ValueError("empty index range")
    ks = np.array(
        [float(bound(step(base, omega, j))) for j in range(n_lo - horizon, n_hi + horizon + 1)]
    )
    decay = np.exp(-rho * np.abs(np.arange(-horizon, horizon + 1)))
    width = 2 * horizon + 1
    out = np.empty(n_hi - n_lo + 1)
    for i in range(out.size):
        out[i] = float(np.max(ks[i : i + width] * decay))
    return out


@dataclass(frozen=True)
class EnvelopeReport:
    """Diagnostics from building a windowed tempered envelope at one point."""

    origin_value: float
    dominates_bound: bool
    max_growth_violation: float
    boundary_certified: bool


@dataclass(frozen=True)
class TemperedEnvelope:
    """Windowed envelope D dominating K with controlled growth along orbits."""

    rho: float
    horizon: int
    bound: Callable[[BasePoint], float]
    build_report: EnvelopeReport


def build_envelope(
    base: DrivingSystem,
    dichotomy: DichotomyData,
    omega: BasePoint,
    rho: float,
    horizon: int,
) -> TemperedEnvelope:
    """Construct D(p) = max_{|j| <= horizon} K(sigma^j p) e^{-rho |j|}.

    The returned envelope satisfies K <= D everywhere by construction.  The
    build report checks D(sigma^n w) <= D(w) e^{rho |n|} on the sampled window
    around the given point and flags the result uncertified when the
    defining max is still attained at the window edge (K may keep growing
    beyond the sampled horizon).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    bnd = dichotomy.bound

    def envelope(point: BasePoint) -> float:
        return float(envelope_along_orbit(base, bnd, point, rho, horizon)[0])

    values = envelope_along_orbit(base, bnd, omega, rho, horizon, -horizon, horizon)
    origin = values[horizon]
    offsets = np.abs(np.arange(-horizon, horizon + 1))
    violation = float(np.max(values / (origin * np.exp(rho * offsets))) - 1.0)

    ks = np.array(
        [float(bnd(step(base, omega, j))) for j in range(-horizon, horizon + 1)]
    )
    decay = np.exp(-rho * offsets)
    terms = ks * decay
    interior = float(np.max(terms[1:-1]))
    edge = float(max(terms[0], terms[-1]))
    boundary_certified = edge < interior * (1.0 - 1e-12)

    report = EnvelopeReport(
        origin_value=float(origin),
        dominates_bound=bool(ks[horizon] <= origin * (1 + 1e-12)),
        max_growth_violation=violation,
        boundary_certified=boundary_certified,
    )
    return TemperedEnvelope(rho, horizon, envelope, report)
