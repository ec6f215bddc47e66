"""Built-in scenarios: concrete cocycles with dichotomies and perturbations.

Each scenario packages a driving system, a generator with analytically known
projectors and bounds, a perturbation built to satisfy the Lipschitz
condition by construction, and default weights, epsilon, and truncation
horizon.  Scenarios are validated by a self-test when the registry is built.

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
                   level set.
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
    TemperedEnvelope,
    build_envelope,
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
    D(sigma^n w) <= level_threshold.  Perturbations on layer m carry a
    Lipschitz constant at most (c / level_threshold) e^{-rho |m - 1|}, which
    the envelope growth bound converts into the required c / K(sigma w).
    """

    rho: float
    level_threshold: float
    envelope: TemperedEnvelope
    layer_index: Callable[[BasePoint], int | None]
    scan_limit: int


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
    horizon: int
    allow_uncertified_truncation: bool = False
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

    def problem(
        self,
        pseudo_orbit: WindowSequence,
        weights: WeightSequence | None = None,
        epsilon: float | None = None,
    ) -> ShadowingProblem:
        """The shadowing problem of a pseudo-orbit at the scenario's base point."""
        if weights is None:
            weights = self.default_weights(pseudo_orbit.window)
        return ShadowingProblem(
            cocycle=self.cocycle,
            dichotomy=self.dichotomy,
            perturbation=self.perturbation,
            omega=self.base_point,
            pseudo_orbit=pseudo_orbit,
            weights=weights,
            epsilon=self.epsilon if epsilon is None else epsilon,
            horizon=self.horizon,
            allow_uncertified_truncation=self.allow_uncertified_truncation,
        )


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _saturating(x: np.ndarray) -> np.ndarray:
    # Componentwise 1-Lipschitz bounded map used by all smooth perturbations.
    return np.tanh(x)


def _uniform_diag() -> Scenario:
    base = IrrationalRotation.default()
    a = np.array([[0.5, 0.0], [0.0, 2.0]])
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    cocycle = CocycleSystem(2, lambda point: a, base)
    dich = DichotomyData(
        projector=lambda point: proj,
        rate=math.log(2.0),
        margin=0.0,
        bound=lambda point: 1.0,
    )
    budget = 0.05

    def f(point: BasePoint, x: np.ndarray) -> np.ndarray:
        phase = 2.0 * math.pi * point.angle
        shift = 0.3 * np.array([math.sin(phase), math.cos(phase)])
        return budget * _saturating(np.asarray(x) + shift)

    pert = Perturbation(f, budget, bound=budget * math.sqrt(2.0))
    return Scenario(
        name="uniform-diag",
        cocycle=cocycle,
        dichotomy=dich,
        perturbation=pert,
        epsilon=math.log(2.0),
        weight_kind="constant",
        base_point=RotationPoint.from_angle(0.2),
        horizon=8,
        allow_uncertified_truncation=True,
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
    )
    budget = 0.04

    def f(point: BasePoint, x: np.ndarray) -> np.ndarray:
        phase = 2.0 * math.pi * point.angle
        shift = 0.4 * np.array([math.cos(phase), math.sin(3.0 * phase)])
        return budget * _saturating(np.asarray(x) + shift)

    pert = Perturbation(f, budget, bound=budget * math.sqrt(2.0))
    return Scenario(
        name="uniform-rot-coupled",
        cocycle=cocycle,
        dichotomy=dich,
        perturbation=pert,
        epsilon=0.45,
        weight_kind="exponential",
        base_point=RotationPoint.from_angle(0.35),
        horizon=48,
        notes="rotation-conjugated splitting, declared rate below the true one",
    )


_LAYER_SEED = 916191
_LAYER_MEMO = 2 * MAX_WINDOW  # memoized layer indices: a full-window solve keeps hitting


def _nonuniform_layered() -> Scenario:
    base = BernoulliShift(3, (0.5, 0.3, 0.2))
    strong = 1.5
    rate, margin = 1.2, 0.3
    beta = 1.2
    rho = 0.1
    scan_limit = 400
    envelope_horizon = 100

    def exponent(point: BasePoint) -> float:
        return beta * symbol_at(base, point) / 2.0

    def gen(point: BasePoint) -> np.ndarray:
        nxt = step(base, point, 1)
        return np.array(
            [
                [math.exp(exponent(nxt) - exponent(point) - strong), 0.0],
                [0.0, math.exp(strong)],
            ]
        )

    proj = np.array([[1.0, 0.0], [0.0, 0.0]])

    def bound(point: BasePoint) -> float:
        return math.exp(beta - exponent(point))

    cocycle = CocycleSystem(2, gen, base)
    dich = DichotomyData(
        projector=lambda point: proj,
        rate=rate,
        margin=margin,
        bound=bound,
    )

    anchor = ShiftPoint(20240915, 0)
    envelope = build_envelope(base, dich, anchor, rho, envelope_horizon)

    # Deterministic level threshold: the 70th percentile of the envelope over
    # a fixed sample, so the good set has probability well above zero.
    rng = np.random.default_rng(_LAYER_SEED)
    samples = [envelope.bound(sample_point(base, rng)) for _ in range(1000)]
    level = float(np.percentile(samples, 70.0))

    @lru_cache(maxsize=_LAYER_MEMO)
    def layer_index(point: BasePoint) -> int | None:
        for n in range(scan_limit + 1):
            if envelope.bound(step(base, point, n)) <= level:
                return n
        return None

    budget = 0.03

    def lip_scale(point: BasePoint) -> float:
        m = layer_index(point)
        if m is None:
            return 0.0
        return (budget / level) * math.exp(-rho * abs(m - 1))

    def phase(point: BasePoint) -> np.ndarray:
        s0 = symbol_at(base, point)
        s1 = symbol_at(base, step(base, point, 1))
        return 0.3 * np.array([s0 - 1.0, s1 - 1.0])

    def f(point: BasePoint, x: np.ndarray) -> np.ndarray:
        return lip_scale(point) * _saturating(np.asarray(x) + phase(point))

    pert = Perturbation(f, budget, bound=(budget / level) * math.sqrt(2.0))
    layering = NonuniformLayering(rho, level, envelope, layer_index, scan_limit)
    return Scenario(
        name="nonuniform-layered",
        cocycle=cocycle,
        dichotomy=dich,
        perturbation=pert,
        epsilon=0.5,
        weight_kind="polynomial",
        base_point=anchor,
        horizon=48,
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
    cocycle = CocycleSystem(1, lambda point: a, base)
    dich = DichotomyData(
        projector=lambda point: proj,
        rate=math.log(2.0),
        margin=0.0,
        bound=lambda point: 1.0,
    )

    def f(point: BasePoint, x: np.ndarray) -> np.ndarray:
        on_forward_orbit = (
            isinstance(point, ShiftPoint)
            and point.seed == anchor.seed
            and point.offset >= anchor.offset
        )
        return np.array([_REMARK_KICK]) if on_forward_orbit else np.zeros(1)

    pert = Perturbation(f, 0.0, bound=_REMARK_KICK)
    return Scenario(
        name="remark-scalar",
        cocycle=cocycle,
        dichotomy=dich,
        perturbation=pert,
        epsilon=math.log(2.0),
        weight_kind="constant",
        base_point=anchor,
        horizon=8,
        allow_uncertified_truncation=True,
        notes="scalar contraction with a constant kick on one forward orbit",
    )


@lru_cache(maxsize=1)
def builtin_scenarios() -> tuple[Scenario, ...]:
    """The validated scenario registry.

    Each scenario passes its self-test at build time; a failing scenario is
    rejected with a diagnostic rather than returned.
    """
    from .checks import scenario_self_test

    scenarios = (
        _uniform_diag(),
        _uniform_rot_coupled(),
        _nonuniform_layered(),
        _remark_scalar(),
    )
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
