"""Built-in scenarios: concrete cocycles with dichotomies and perturbations.

Each scenario packages a driving system, a generator with analytically known
projectors and bounds, a perturbation built to satisfy the Lipschitz
condition by construction, and default weights and epsilon.  The adapted-norm
truncation horizon, and the consent to truncate uncertified where the margin
is zero, belong to each scenario's dichotomy data.  Scenarios are validated
by a self-test when the registry is built.

Constant generators, projectors and bounds, and those that depend only on
the current and next symbol of a Bernoulli base, are ``RangeMap`` callables:
per point they read their constant or a table by ``symbol_at``, and along an
orbit range they broadcast the constant or read the same table by
``symbols_along``, so an orbit segment fills a whole range with one call and
both forms give the same bytes.  ``uniform-rot-coupled`` evaluates its frames
per point.  Every builtin perturbation is its per-point coefficients plus one
kick (``shadowing.Perturbation``).  The rotation scenarios' coefficients are
the shift of each point's angle, a plain per-point function, and their kick
is budget * tanh(x + shift).  ``nonuniform-layered``'s are (scale, phase pair)
rows by layer and symbol pair, and ``remark-scalar``'s its kick size; both
are ``RangeMap`` callables, and ``nonuniform-layered`` reads the layers of a
whole range from one envelope read (``_layer_indices``).

uniform-diag       diag(1/2, 2) over an irrational rotation; K = 1 and the
                   contraction rate log 2 is exactly attained, so the margin
                   is zero and adapted norms are truncation-exact (every sup
                   term is constant in n).
uniform-rot-coupled  2x2 generator conjugated by an angle-dependent rotation
                   frame; true rates +-0.8 declared as rate 0.6 with margin
                   0.2, so truncation certificates are active.
nonuniform-layered Bernoulli base, bound K varying with the current symbol
                   through a diagonal coordinate change; perturbation
                   strength decays with the first-hitting time of the good
                   level set {D <= e^{beta - rho}} (own symbol not 0).
remark-scalar      scalar contraction 1/2 with a constant kick applied on
                   the forward orbit of one distinguished shift point; its
                   forward and backward growth exponents differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .cocycle import (
    CocycleSystem,
    DichotomyData,
    OrbitCache,
    RangeMap,
    TemperedEnvelope,
    _at,
    build_envelope,
    envelope_along_orbit,
)
from .driving import (
    BasePoint,
    BernoulliShift,
    IrrationalRotation,
    RotationPoint,
    ShiftPoint,
    DrivingSystem,
    sample_point,
    step,
    symbol_at,
    symbols_along,
)
from .green import MAX_WINDOW, WeightSequence, Window, WindowSequence
from .shadowing import Perturbation, ShadowingProblem, make_weight

__all__ = [
    "Scenario",
    "NonuniformLayering",
    "builtin_scenarios",
    "get_scenario",
]


@dataclass(frozen=True)
class NonuniformLayering:
    """Level sets of the tempered envelope and the first-hitting layer index.

    A point lies in layer m when m is the first n >= 0 with
    D(sigma^n w) <= level_threshold (None when a bounded scan finds none).
    Perturbations on layer m carry a Lipschitz constant at most
    (c / level_threshold) e^{-rho |m - 1|}, rho = envelope.rho, which the
    envelope growth bound converts into the required c / K(sigma w).  A level
    below the largest D, as ``nonuniform-layered``'s, gives layers m > 0.
    """

    level_threshold: float
    envelope: TemperedEnvelope
    layer_index: Callable[[BasePoint], int | None]


@dataclass(frozen=True)
class Scenario:
    """A named, self-contained experimental setting."""

    name: str
    cocycle: CocycleSystem
    dichotomy: DichotomyData
    perturbation: Perturbation
    epsilon: float
    weight_kind: str
    base_point: BasePoint
    weight_scale: float = 1.0
    layering: NonuniformLayering | None = None
    notes: str = ""

    @property
    def base(self) -> DrivingSystem:
        return self.cocycle.base

    def sample_point(self, rng: np.random.Generator) -> BasePoint:
        return sample_point(self.base, rng)

    def default_weights(self, window: Window) -> WeightSequence:
        """The scenario's weight family on a window.

        Other families, epsilons and scales come from
        ``dataclasses.replace(scenario, weight_kind=..., epsilon=..., weight_scale=...)``.
        """
        rate = self.dichotomy.rate - self.epsilon
        if self.weight_kind == "exponential":
            return make_weight("exponential", window, rate=rate)
        return make_weight(self.weight_kind, window, scale=self.weight_scale)

    def orbit(self, point: BasePoint | None = None) -> OrbitCache:
        """A new orbit segment through ``point``, by default the base point."""
        return OrbitCache(
            self.cocycle, self.base_point if point is None else point, self.dichotomy
        )

    def problem(
        self,
        pseudo_orbit: WindowSequence,
        weights: WeightSequence | None = None,
    ) -> ShadowingProblem:
        """The shadowing problem of a pseudo-orbit along a new orbit segment
        through the scenario's base point."""
        if weights is None:
            weights = self.default_weights(pseudo_orbit.window)
        return ShadowingProblem(
            orbit=self.orbit(),
            perturbation=self.perturbation,
            pseudo_orbit=pseudo_orbit,
            weights=weights,
            epsilon=self.epsilon,
        )


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _constant(value) -> RangeMap:
    """A callable with the same value at every point; its range form broadcasts it."""
    return RangeMap(
        lambda point: value,
        lambda omega, ns: np.broadcast_to(value, ns.shape + np.shape(value)),
    )


def _by_symbol(base: BernoulliShift, table: np.ndarray, lag: int = 0) -> RangeMap:
    """The entry table[s_0, ..., s_lag] at a point whose own symbol and the next
    ``lag`` ones are s_0, ..., s_lag, per point and along an orbit range."""
    table.flags.writeable = False

    def at(point: BasePoint):
        points = [point] + [step(base, point, j) for j in range(1, lag + 1)]
        return table[tuple(symbol_at(base, p) for p in points)]

    def along(omega: BasePoint, ns: np.ndarray) -> np.ndarray:
        return table[tuple(symbols_along(base, omega, ns + j) for j in range(lag + 1))]

    return RangeMap(at, along)


def _tanh_kick(budget: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The kick budget * tanh(x + shift): bounded by budget and budget-Lipschitz."""
    return lambda cs, xs: budget * np.tanh(xs + cs)


def _uniform_diag() -> Scenario:
    base = IrrationalRotation.default()
    a = np.array([[0.5, 0.0], [0.0, 2.0]])
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    cocycle = CocycleSystem(2, _constant(a), base)
    dich = DichotomyData(
        projector=_constant(proj),
        rate=math.log(2.0),
        margin=0.0,
        bound=_constant(1.0),
        horizon=8,
        allow_uncertified=True,
    )
    budget = 0.05

    def shift(point: BasePoint) -> tuple[float, float]:
        phase = 2.0 * math.pi * point.angle
        return 0.3 * math.sin(phase), 0.3 * math.cos(phase)

    pert = Perturbation(shift, _tanh_kick(budget), budget, bound=budget * math.sqrt(2.0))
    return Scenario(
        name="uniform-diag",
        cocycle=cocycle,
        dichotomy=dich,
        perturbation=pert,
        epsilon=math.log(2.0),
        weight_kind="constant",
        base_point=RotationPoint.from_angle(0.2),
        notes="constant diagonal hyperbolic cocycle, rate exactly log 2",
    )


def _uniform_rot_coupled() -> Scenario:
    base = IrrationalRotation.default()
    d = np.array([[math.exp(-0.8), 0.0], [0.0, math.exp(0.8)]])
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]])

    def frame(point: BasePoint) -> np.ndarray:
        return _rotation(2.0 * math.pi * point.angle)

    def gen(point: BasePoint) -> np.ndarray:
        nxt = step(base, point, 1)
        return frame(nxt) @ d @ frame(point).T

    def proj(point: BasePoint) -> np.ndarray:
        r = frame(point)
        return r @ p0 @ r.T

    cocycle = CocycleSystem(2, gen, base)
    dich = DichotomyData(
        projector=proj,
        rate=0.6,
        margin=0.2,
        bound=lambda point: 1.0,
        horizon=48,
    )
    budget = 0.04

    def shift(point: BasePoint) -> tuple[float, float]:
        phase = 2.0 * math.pi * point.angle
        return 0.4 * math.cos(phase), 0.4 * math.sin(3.0 * phase)

    pert = Perturbation(shift, _tanh_kick(budget), budget, bound=budget * math.sqrt(2.0))
    return Scenario(
        name="uniform-rot-coupled",
        cocycle=cocycle,
        dichotomy=dich,
        perturbation=pert,
        epsilon=0.45,
        weight_kind="exponential",
        base_point=RotationPoint.from_angle(0.35),
        notes="rotation-conjugated splitting, declared rate below the true one",
    )


_LAYER_MEMO = 2 * MAX_WINDOW  # memoized layer indices of single points
_SCAN_FIRST = 8  # indices of the first chunk read past a range without a last hit


def _layer_indices(
    orbit: OrbitCache,
    envelope: TemperedEnvelope,
    level: float,
    scan_limit: int,
    n_lo: int,
    n_hi: int,
) -> np.ndarray:
    """First-hitting layers m(n) of sigma^n w for n_lo <= n < n_hi, -1 for None.

    m(n) = 0 where D(sigma^n w) <= level, otherwise m(n + 1) + 1, and None
    where the first hit lies more than scan_limit steps on.  One envelope
    read covers the range.  When the range's last index has no hit, the
    indices n_hi <= n < n_hi + scan_limit are read in doubling chunks of
    _SCAN_FIRST, 2 _SCAN_FIRST, ... indices up to the first chunk with a hit.
    """
    ns = np.arange(n_lo, n_hi)
    if not ns.size:
        return ns
    rho, half = envelope.rho, envelope.half_width
    hits = n_lo + np.flatnonzero(envelope_along_orbit(orbit, rho, half, n_lo, n_hi - 1) <= level)
    if not (hits.size and hits[-1] == n_hi - 1):
        lo, size, end = n_hi, _SCAN_FIRST, n_hi + scan_limit
        while lo < end:
            hi = min(lo + size, end)
            past = np.flatnonzero(envelope_along_orbit(orbit, rho, half, lo, hi - 1) <= level)
            if past.size:
                hits = np.append(hits, lo + past[0])
                break
            lo, size = hi, 2 * size
    # The first hit at or after each n; the sentinel lies out of every n's reach.
    first = np.append(hits, n_hi + scan_limit)[np.searchsorted(hits, ns)]
    return np.where(first - ns <= scan_limit, first - ns, -1)


def _nonuniform_layered() -> Scenario:
    base = BernoulliShift(3, (0.5, 0.3, 0.2))
    strong = 1.5
    rate, margin = 1.2, 0.3
    beta = 1.2
    rho = 0.1
    scan_limit = 400
    envelope_half_width = 100

    # Generator and bound depend on the symbols only: one table each, read by
    # symbol at a point (current and next symbol for the generator) and along
    # an orbit range.
    exponent = [beta * s / 2.0 for s in range(base.alphabet_size)]
    gen = np.array(
        [
            [
                [[math.exp(nxt - cur - strong), 0.0], [0.0, math.exp(strong)]]
                for nxt in exponent
            ]
            for cur in exponent
        ]
    )
    ks = np.array([math.exp(beta - cur) for cur in exponent])
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])

    cocycle = CocycleSystem(2, _by_symbol(base, gen, lag=1), base)
    dich = DichotomyData(
        projector=_constant(proj),
        rate=rate,
        margin=margin,
        bound=_by_symbol(base, ks),
        horizon=48,
    )

    anchor = ShiftPoint(20240915, 0)
    envelope = build_envelope(OrbitCache(cocycle, anchor, dich), rho, envelope_half_width)

    # The level e^{beta - rho}.  D = e^{beta}, the largest K, at a point whose
    # own symbol is 0.  At any other point the largest D is e^{beta - rho},
    # reached when a neighbour one step away has symbol 0, so D <= level exactly
    # where the point's own symbol is not 0.  The product is that neighbour's
    # term bit for bit; math.exp(beta - rho) is another float.
    level = math.exp(beta) * math.exp(-rho)

    def layers(omega: BasePoint, n_lo: int, n_hi: int) -> np.ndarray:
        segment = OrbitCache(cocycle, omega, dich)
        return _layer_indices(segment, envelope, level, scan_limit, n_lo, n_hi)

    @lru_cache(maxsize=_LAYER_MEMO)
    def layer_index(point: BasePoint) -> int | None:
        m = int(layers(point, 0, 1)[0])
        return None if m < 0 else m

    budget = 0.03
    # Coefficient rows (scale, phase_0, phase_1).  The Lipschitz scale of layer m
    # is (c / level) e^{-rho |m - 1|}; the last entry, read by the None layer -1,
    # is 0.  The phase is 0.3 (s_0 - 1, s_1 - 1) of the current and next symbol.
    lip_scale = np.array(
        [(budget / level) * math.exp(-rho * abs(m - 1)) for m in range(scan_limit + 1)] + [0.0]
    )
    centred = np.arange(base.alphabet_size) - 1.0
    rows = np.zeros((base.alphabet_size, base.alphabet_size, 3))
    rows[..., 1:] = 0.3 * np.stack(np.meshgrid(centred, centred, indexing="ij"), -1)
    phase = _by_symbol(base, rows, lag=1)  # rows with the scale still 0

    def coefs_at(point: BasePoint) -> np.ndarray:
        m = layer_index(point)
        row = phase(point).copy()
        row[0] = lip_scale[-1 if m is None else m]
        return row

    def coefs_along(omega: BasePoint, ns: np.ndarray) -> np.ndarray:
        out = phase.along(omega, ns)
        out[:, 0] = lip_scale[_at(lambda n_lo, n_hi: layers(omega, n_lo, n_hi), ns)]
        return out

    def kick(cs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return cs[..., :1] * np.tanh(xs + cs[..., 1:])

    bound = (budget / level) * math.sqrt(2.0)
    pert = Perturbation(RangeMap(coefs_at, coefs_along), kick, budget, bound=bound)
    layering = NonuniformLayering(level, envelope, layer_index)
    return Scenario(
        name="nonuniform-layered",
        cocycle=cocycle,
        dichotomy=dich,
        perturbation=pert,
        epsilon=0.5,
        weight_kind="polynomial",
        base_point=anchor,
        layering=layering,
        notes="symbol-dependent bound with layered perturbation strengths",
    )


_REMARK_SEED = 1736215
_REMARK_KICK = 0.01


def _remark_scalar() -> Scenario:
    base = BernoulliShift(2, (0.5, 0.5))
    anchor = ShiftPoint(_REMARK_SEED, 0)
    a = np.array([[0.5]])
    proj = np.array([[1.0]])
    cocycle = CocycleSystem(1, _constant(a), base)
    dich = DichotomyData(
        projector=_constant(proj),
        rate=math.log(2.0),
        margin=0.0,
        bound=_constant(1.0),
        horizon=8,
        allow_uncertified=True,
    )

    def kicked(seed: int, offsets):
        # On the forward orbit of the anchor: per point, or along offsets.
        return (seed == anchor.seed) & (offsets >= anchor.offset)

    # The coefficient row is the kick size: _REMARK_KICK on that orbit, else 0.
    def size(point: BasePoint) -> tuple[float]:
        on_forward_orbit = isinstance(point, ShiftPoint) and kicked(point.seed, point.offset)
        return (_REMARK_KICK if on_forward_orbit else 0.0,)

    def sizes_along(omega: BasePoint, ns: np.ndarray) -> np.ndarray:
        return np.where(kicked(omega.seed, omega.offset + ns), _REMARK_KICK, 0.0)[:, None]

    def kick(cs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return np.full(np.shape(xs), cs)  # each row of xs gets its size, whatever x is
    pert = Perturbation(RangeMap(size, sizes_along), kick, 0.0, bound=_REMARK_KICK)
    return Scenario(
        name="remark-scalar",
        cocycle=cocycle,
        dichotomy=dich,
        perturbation=pert,
        epsilon=math.log(2.0),
        weight_kind="constant",
        base_point=anchor,
        notes="scalar contraction with a constant kick on one forward orbit",
    )


_BUILDERS = (_uniform_diag, _uniform_rot_coupled, _nonuniform_layered, _remark_scalar)


@lru_cache(maxsize=1)
def builtin_scenarios() -> tuple[Scenario, ...]:
    """The validated scenario registry.

    Each scenario passes its self-test at build time; a failing scenario is
    rejected with a diagnostic rather than returned.
    """
    from .checks import scenario_self_test

    scenarios = tuple(build() for build in _BUILDERS)
    for scenario in scenarios:
        report = scenario_self_test(scenario)
        if not report.passed:
            raise ValueError(
                f"scenario {scenario.name!r} failed its self-test:\n{report.describe()}"
            )
    return scenarios


def get_scenario(name: str) -> Scenario:
    for scenario in builtin_scenarios():
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in builtin_scenarios())
    raise KeyError(f"unknown scenario {name!r} (known: {known})")
