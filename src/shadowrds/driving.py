"""Reproducible invertible base systems that drive the random dynamics.

Two ergodic bases are provided: an irrational rotation of the circle and a
two-sided Bernoulli shift.  Points are immutable, and stepping is exact
integer arithmetic in both cases, so advancing by n and then by -n returns
the original point bit for bit and the group law step(w, n+m) =
step(step(w, m), n) holds exactly.

Rotation angles are held in 128-bit fixed point (an angle is ticks / 2**128).
Shift points are (seed, offset) pairs; the symbol at a point is produced by a
stateless 64-bit hash of the pair, so the entire two-sided symbol sequence is
determined with no storage and sigma^{-1} is exact.  ``symbol_at`` reads one
point's symbol; ``symbols_along`` reads the symbols of a whole index range of
one orbit with a few numpy calls, the same hash on a ``uint64`` array, and
equals ``symbol_at(system, step(system, point, n))`` for each n.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "MAX_OFFSET",
    "RotationPoint",
    "ShiftPoint",
    "BasePoint",
    "IrrationalRotation",
    "BernoulliShift",
    "DrivingSystem",
    "step",
    "symbol_at",
    "symbols_along",
    "sample_point",
]

_FIXED_BITS = 128
_FIXED_ONE = 1 << _FIXED_BITS
_MASK64 = (1 << 64) - 1

#: Largest |offset| (and |n| per step) supported by shift points.
MAX_OFFSET = 1 << 40


def _to_ticks(value: float | Fraction) -> int:
    """Reduce an angle mod 1 and convert to fixed-point ticks, exactly."""
    frac = Fraction(value) % 1
    return round(frac * _FIXED_ONE) % _FIXED_ONE


@dataclass(frozen=True, slots=True)
class RotationPoint:
    """A circle point, stored in fixed point so rotation steps are exact."""

    ticks: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ticks", self.ticks % _FIXED_ONE)

    @classmethod
    def from_angle(cls, angle: float) -> "RotationPoint":
        return cls(_to_ticks(angle))

    @property
    def angle(self) -> float:
        """The angle in [0, 1), rounded to the nearest double."""
        return self.ticks / _FIXED_ONE


@dataclass(frozen=True, slots=True)
class ShiftPoint:
    """A point of the two-sided Bernoulli shift: a seed plus an integer offset."""

    seed: int
    offset: int = 0

    def __post_init__(self) -> None:
        if abs(self.offset) > MAX_OFFSET:
            raise ValueError(
                f"shift offset {self.offset} outside supported range +-2**40"
            )


BasePoint = RotationPoint | ShiftPoint


def _sqrt2_minus_one_ticks() -> int:
    # sqrt(2) - 1 at full 128-bit precision via integer square root.
    return math.isqrt(2 << (2 * _FIXED_BITS)) - _FIXED_ONE


@dataclass(frozen=True)
class IrrationalRotation:
    """Rotation of the circle by a (fixed-point) irrational angle."""

    alpha_ticks: int

    @classmethod
    def from_alpha(cls, alpha: float) -> "IrrationalRotation":
        return cls(_to_ticks(alpha))

    @classmethod
    def default(cls) -> "IrrationalRotation":
        """Rotation by sqrt(2) - 1, a well-conditioned irrational."""
        return cls(_sqrt2_minus_one_ticks())

    @property
    def alpha(self) -> float:
        return self.alpha_ticks / _FIXED_ONE


@dataclass(frozen=True)
class BernoulliShift:
    """Two-sided full shift on ``alphabet_size`` symbols with given weights."""

    alphabet_size: int
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        w = tuple(float(x) for x in self.weights)
        if len(w) != self.alphabet_size:
            raise ValueError("weights length must equal alphabet_size")
        if any(x <= 0 for x in w):
            raise ValueError("weights must be positive")
        if abs(sum(w) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "weights", w)
        # Thresholds of symbol_at, kept out of the dataclass fields.
        object.__setattr__(self, "_cumulative", tuple(np.cumsum(w)))


DrivingSystem = IrrationalRotation | BernoulliShift


def step(system: DrivingSystem, point: BasePoint, n: int) -> BasePoint:
    """Apply sigma^n to a base point.

    Steps are exact: composition of steps equals a single combined step, and
    stepping by n then -n is the identity.
    """
    n = int(n)
    if abs(n) > MAX_OFFSET:
        raise ValueError(f"step count {n} outside supported range +-2**40")
    if isinstance(system, IrrationalRotation):
        if not isinstance(point, RotationPoint):
            raise TypeError("rotation base requires a RotationPoint")
        return RotationPoint((point.ticks + n * system.alpha_ticks) % _FIXED_ONE)
    if isinstance(system, BernoulliShift):
        if not isinstance(point, ShiftPoint):
            raise TypeError("shift base requires a ShiftPoint")
        return ShiftPoint(point.seed, point.offset + n)
    raise TypeError(f"unknown driving system {type(system).__name__}")


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _point_hash(seed: int, offset: int) -> int:
    return _splitmix64(_splitmix64(seed & _MASK64) ^ (offset & _MASK64))


def symbol_at(system: DrivingSystem, point: BasePoint) -> int:
    """Symbol in [0, alphabet_size) read off a shift point.

    The symbol is a pure function of (seed, offset): querying the same point
    twice always yields the same value.
    """
    if not isinstance(system, BernoulliShift):
        raise TypeError("symbols are only defined for Bernoulli shift bases")
    if not isinstance(point, ShiftPoint):
        raise TypeError("symbol_at requires a ShiftPoint")
    if system.alphabet_size == 1:
        return 0
    u = _point_hash(point.seed, point.offset) / 2.0**64
    return min(bisect_right(system._cumulative, u), system.alphabet_size - 1)


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    # Array operations only: uint64 arrays wrap silently, numpy scalars warn.
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def symbols_along(system: DrivingSystem, point: BasePoint, ns) -> np.ndarray:
    """Symbols at sigma^n point for each step count n of ``ns``, as an int array.

    Equal to ``symbol_at(system, step(system, point, n))`` for each n, in
    order, and raises the errors of those calls.  The seed is hashed once;
    the offsets, as int64 viewed as uint64 (the bits of offset mod 2**64),
    run through splitmix64 as one array.
    """
    try:
        ns = np.asarray(ns, dtype=np.int64)
    except OverflowError:
        raise ValueError("step count outside supported range +-2**40") from None
    bad = (ns < -MAX_OFFSET) | (ns > MAX_OFFSET)
    if bad.any():
        raise ValueError(f"step count {ns[bad][0]} outside supported range +-2**40")
    if not isinstance(system, BernoulliShift):
        raise TypeError("symbols are only defined for Bernoulli shift bases")
    if not isinstance(point, ShiftPoint):
        raise TypeError("shift base requires a ShiftPoint")
    offsets = (point.offset + ns).reshape(-1)
    bad = (offsets < -MAX_OFFSET) | (offsets > MAX_OFFSET)
    if bad.any():
        raise ValueError(f"shift offset {offsets[bad][0]} outside supported range +-2**40")
    if system.alphabet_size == 1:
        return np.zeros(ns.shape, dtype=np.int64)
    seed = np.uint64(_splitmix64(point.seed & _MASK64))
    u = _splitmix64_array(offsets.view(np.uint64) ^ seed).astype(np.float64) / 2.0**64
    symbols = np.searchsorted(np.asarray(system._cumulative), u, side="right")
    return np.minimum(symbols, system.alphabet_size - 1).reshape(ns.shape)


def sample_point(system: DrivingSystem, rng: np.random.Generator) -> BasePoint:
    """Draw a base point at random (uniform angle, or a fresh shift seed)."""
    if isinstance(system, IrrationalRotation):
        return RotationPoint.from_angle(float(rng.random()))
    if isinstance(system, BernoulliShift):
        return ShiftPoint(int(rng.integers(0, 2**63)), 0)
    raise TypeError(f"unknown driving system {type(system).__name__}")
