import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shadowrds import (
    BernoulliShift,
    IrrationalRotation,
    RotationPoint,
    ShiftPoint,
    sample_point,
    step,
    symbol_at,
    symbols_along,
)
from shadowrds.driving import MAX_OFFSET


def test_step_identity_is_exact():
    rot = IrrationalRotation.from_alpha(0.4)
    p = RotationPoint.from_angle(0.25)
    assert step(rot, p, 0) == p
    assert step(rot, p, 0).angle == 0.25


def test_rotation_invertibility_exact():
    rot = IrrationalRotation.default()
    p = RotationPoint.from_angle(0.0)
    q = step(rot, p, 1)
    assert q != p
    assert step(rot, q, -1) == p
    assert step(rot, q, -1).angle == 0.0


def test_rotation_group_law_exact():
    rot = IrrationalRotation.default()
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = RotationPoint.from_angle(float(rng.random()))
        n = int(rng.integers(-(1 << 19), 1 << 19))
        m = int(rng.integers(-(1 << 19), 1 << 19))
        assert step(rot, p, n + m) == step(rot, step(rot, p, m), n)


def test_shift_offset_arithmetic():
    sh = BernoulliShift(2, (0.5, 0.5))
    assert step(sh, ShiftPoint(42, 3), 5) == ShiftPoint(42, 8)
    assert step(sh, step(sh, ShiftPoint(7, 0), 11), -11) == ShiftPoint(7, 0)


def test_shift_group_law_exact():
    sh = BernoulliShift(3, (0.2, 0.3, 0.5))
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = ShiftPoint(int(rng.integers(0, 2**62)), int(rng.integers(-1000, 1000)))
        n = int(rng.integers(-(1 << 19), 1 << 19))
        m = int(rng.integers(-(1 << 19), 1 << 19))
        assert step(sh, p, n + m) == step(sh, step(sh, p, m), n)


def test_step_offset_overflow_rejected():
    sh = BernoulliShift(2, (0.5, 0.5))
    with pytest.raises(ValueError):
        step(sh, ShiftPoint(1, (1 << 40) - 2), 5)
    with pytest.raises(ValueError):
        step(sh, ShiftPoint(1, 0), 1 << 41)
    rot = IrrationalRotation.default()
    with pytest.raises(ValueError):
        step(rot, RotationPoint.from_angle(0.1), 1 << 41)


_STEPS = st.integers(-MAX_OFFSET, MAX_OFFSET)
_BEYOND = st.integers(MAX_OFFSET + 1, 2 * MAX_OFFSET)


@settings(derandomize=True, max_examples=200)
@given(ticks=st.integers(0, 2**128 - 1), n=_STEPS, m=_STEPS, beyond=_BEYOND,
       sign=st.sampled_from([-1, 1]))
@example(ticks=0, n=MAX_OFFSET, m=-MAX_OFFSET, beyond=MAX_OFFSET + 1, sign=1)
def test_rotation_group_law_property(ticks, n, m, beyond, sign):
    assume(abs(n + m) <= MAX_OFFSET)
    rot = IrrationalRotation.default()
    w = RotationPoint(ticks)
    assert step(rot, step(rot, w, m), n) == step(rot, w, n + m)
    assert step(rot, step(rot, w, n), -n) == w
    with pytest.raises(ValueError):
        step(rot, w, sign * beyond)


@settings(derandomize=True, max_examples=200)
@given(seed=st.integers(0, 2**63 - 1), offset=_STEPS, n=_STEPS, m=_STEPS,
       beyond=_BEYOND, sign=st.sampled_from([-1, 1]))
@example(seed=1, offset=MAX_OFFSET, n=-MAX_OFFSET, m=0,
         beyond=MAX_OFFSET + 1, sign=1)
@example(seed=2, offset=-MAX_OFFSET, n=0, m=MAX_OFFSET,
         beyond=MAX_OFFSET + 1, sign=-1)
def test_shift_group_law_property(seed, offset, n, m, beyond, sign):
    # Every offset the two sides pass through stays in the supported range.
    assume(all(abs(v) <= MAX_OFFSET for v in (n + m, offset + m, offset + n,
                                               offset + n + m)))
    sh = BernoulliShift(3, (0.2, 0.3, 0.5))
    w = ShiftPoint(seed, offset)
    assert step(sh, step(sh, w, m), n) == step(sh, w, n + m)
    assert step(sh, step(sh, w, n), -n) == w
    # A step whose target offset lies past the range raises, never wraps.
    with pytest.raises(ValueError):
        step(sh, w, sign * beyond - offset)


_SHIFTS = st.sampled_from([
    BernoulliShift(1, (1.0,)),
    BernoulliShift(2, (0.5, 0.5)),
    BernoulliShift(3, (0.5, 0.3, 0.2)),
    BernoulliShift(4, (0.97, 0.01, 0.01, 0.01)),
    BernoulliShift(4, (1e-9, 1e-9, 1e-9, 1.0 - 3e-9)),
])


@settings(derandomize=True, max_examples=200)
@given(sh=_SHIFTS, seed=st.integers(0, 2**64 - 1), offset=_STEPS,
       ns=st.lists(_STEPS | st.integers(-8, 8), max_size=40), beyond=_BEYOND,
       sign=st.sampled_from([-1, 1]))
@example(sh=BernoulliShift(2, (0.5, 0.5)), seed=2**64 - 1, offset=-MAX_OFFSET,
         ns=[0, MAX_OFFSET, 1, -1], beyond=MAX_OFFSET + 1, sign=1)
def test_symbols_along_matches_symbol_at_of_each_step(sh, seed, offset, ns, beyond, sign):
    w = ShiftPoint(seed, offset)
    inside = [n for n in ns if abs(offset + n) <= MAX_OFFSET]
    got = symbols_along(sh, w, np.array(inside, dtype=np.int64))
    assert got.tolist() == [symbol_at(sh, step(sh, w, n)) for n in inside]
    # A step count or target offset past the range raises as step does.
    for n in (sign * beyond, sign * beyond - offset):
        with pytest.raises(ValueError) as per_point:
            symbol_at(sh, step(sh, w, n))
        with pytest.raises(ValueError) as along:
            symbols_along(sh, w, inside + [n])
        assert str(along.value) == str(per_point.value)


def test_symbols_along_raises_the_errors_of_symbol_at_and_step():
    sh = BernoulliShift(2, (0.5, 0.5))
    with pytest.raises(TypeError):
        symbols_along(IrrationalRotation.default(), RotationPoint.from_angle(0.3), [0, 1])
    with pytest.raises(TypeError):
        symbols_along(sh, RotationPoint.from_angle(0.3), [0, 1])
    # A step count past the int64 range raises ValueError, as step does.
    with pytest.raises(ValueError):
        symbols_along(sh, ShiftPoint(1), [0, 2**70])


def test_symbol_determinism():
    sh = BernoulliShift(2, (0.5, 0.5))
    p = ShiftPoint(1, 0)
    assert symbol_at(sh, p) == symbol_at(sh, p)
    trace = [symbol_at(sh, ShiftPoint(99, k)) for k in range(64)]
    assert trace == [symbol_at(sh, ShiftPoint(99, k)) for k in range(64)]


def test_symbol_single_letter_alphabet():
    sh = BernoulliShift(1, (1.0,))
    assert symbol_at(sh, ShiftPoint(5, 123)) == 0


def test_symbol_rejects_rotation_base():
    rot = IrrationalRotation.default()
    with pytest.raises(TypeError):
        symbol_at(rot, RotationPoint.from_angle(0.3))


def test_symbol_frequency_matches_weights():
    # Monte Carlo count against the declared weights over 10**5 offsets.
    sh = BernoulliShift(2, (0.5, 0.5))
    hits = sum(
        symbol_at(sh, ShiftPoint(2024, k)) == 0 for k in range(100_000)
    )
    assert abs(hits / 100_000 - 0.5) < 0.01


def test_symbol_frequency_skewed_weights():
    sh = BernoulliShift(3, (0.6, 0.3, 0.1))
    counts = np.zeros(3)
    for k in range(60_000):
        counts[symbol_at(sh, ShiftPoint(77, k))] += 1
    freqs = counts / counts.sum()
    assert np.all(np.abs(freqs - np.array([0.6, 0.3, 0.1])) < 0.01)


def test_rotation_orbit_equidistribution():
    rot = IrrationalRotation.default()
    p = RotationPoint.from_angle(0.0)
    hits = 0
    for _ in range(100_000):
        if p.angle < 0.1:
            hits += 1
        p = step(rot, p, 1)
    assert abs(hits / 100_000 - 0.1) < 0.01


def test_weights_validation():
    with pytest.raises(ValueError):
        BernoulliShift(2, (0.5, 0.4))
    with pytest.raises(ValueError):
        BernoulliShift(2, (1.1, -0.1))
    with pytest.raises(ValueError):
        BernoulliShift(0, ())


def test_sample_point_reproducible():
    rot = IrrationalRotation.default()
    sh = BernoulliShift(2, (0.5, 0.5))
    a = sample_point(rot, np.random.default_rng(3))
    b = sample_point(rot, np.random.default_rng(3))
    assert a == b
    c = sample_point(sh, np.random.default_rng(3))
    d = sample_point(sh, np.random.default_rng(3))
    assert c == d
