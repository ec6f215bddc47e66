import math
import os

# Multi-threaded BLAS makes wall-clock gates flaky on a loaded machine; pin it
# to one thread, as the benchmark does, before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from shadowrds import (  # noqa: E402
    CocycleSystem,
    DichotomyData,
    IrrationalRotation,
    Perturbation,
    RangeMap,
    RotationPoint,
    Scenario,
    builtin_scenarios,
    step,
)


def _rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def coupled_block_scenario() -> Scenario:
    """d = 4 test cocycle: block rotations conjugating diag(0.45, 0.6, 1.7, 2.2).

    The frames are block diagonal, so the splitting projector is the constant
    diag(1, 1, 0, 0) and the true dichotomy rate is -log 0.6 ~ 0.51, declared
    as rate 0.4 with margin 0.11.  The constant projector and bound carry
    their range forms; the generator and the perturbation's shift
    coefficients are evaluated per point.
    """
    base = IrrationalRotation.default()
    d = np.diag([0.45, 0.6, 1.7, 2.2])
    p0 = np.diag([1.0, 1.0, 0.0, 0.0])

    def frame(point):
        th = 2.0 * math.pi * point.angle
        out = np.zeros((4, 4))
        out[:2, :2] = _rot2(th)
        out[2:, 2:] = _rot2(2.0 * th)
        return out

    def gen(point):
        return frame(step(base, point, 1)) @ d @ frame(point).T

    cocycle = CocycleSystem(4, gen, base)
    dich = DichotomyData(
        projector=RangeMap(
            lambda point: p0, lambda omega, ns: np.broadcast_to(p0, (len(ns), 4, 4))
        ),
        rate=0.4,
        margin=0.11,
        bound=RangeMap(lambda point: 1.0, lambda omega, ns: np.ones(len(ns))),
        horizon=48,
    )
    budget = 0.02

    def shift(point):
        phase = 2.0 * math.pi * point.angle
        return 0.2 * np.array(
            [math.sin(phase), math.cos(phase), math.sin(2 * phase), math.cos(3 * phase)]
        )

    pert = Perturbation(shift, lambda cs, xs: budget * np.tanh(xs + cs), budget, bound=budget * 2.0)
    return Scenario(
        name="block4",
        cocycle=cocycle,
        dichotomy=dich,
        perturbation=pert,
        epsilon=0.4,
        weight_kind="constant",
        base_point=RotationPoint.from_angle(0.57),
        notes="4-dimensional block-rotation test cocycle",
    )


@pytest.fixture(scope="session")
def scenarios():
    return {s.name: s for s in builtin_scenarios()}


@pytest.fixture(scope="session")
def block4():
    return coupled_block_scenario()
