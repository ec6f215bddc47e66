import math
from dataclasses import fields, is_dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowrds import (
    BernoulliShift,
    CocycleSystem,
    DegenerateOrbitError,
    OrbitCache,
    Perturbation,
    RangeMap,
    RotationPoint,
    ShiftPoint,
    SingularityError,
    Window,
    WindowSequence,
    backward_qr_frame,
    find_special_point,
    invert_step,
    linear_exponents_and_half,
    linear_exponents_qr,
    nonlinear_exponent,
    nonlinear_orbit,
    step,
)
from shadowrds import lyapunov
from shadowrds.cocycle import MAX_STEPS
from shadowrds.lyapunov import (
    _BIG_NORM,
    _INVERSION_TOL,
    NumericalBreakdownError,
    _orbit_log_norms,
    _positive_qr,
    _qr_loop,
    _qr_sweep,
    conservation_experiment,
)
from shadowrds.shadowing import _INVERT_MAX_ITER, InversionError

from conftest import scaled_norm as _scaled_norm


def _reference_invert_step(inverse_matrix, perturbation, point, target, tol):
    """The per-vector backward step: the fixed-point iteration on one vector."""
    u = inverse_matrix @ target
    for _ in range(_INVERT_MAX_ITER):
        u_next = inverse_matrix @ (target - perturbation(point, u))
        if float(np.linalg.norm(u_next - u)) <= tol * (1.0 + float(np.linalg.norm(u_next))):
            return u_next
        u = u_next
    raise InversionError(
        f"backward inversion did not converge within {_INVERT_MAX_ITER} iterations"
    )


def _reference_orbit_log_norms(perturbation, cache, x, forward, steps, plain=None):
    """The per-vector walk: one Python iteration per step of one vector.
    The steps taken plain are added to the set ``plain`` when given."""
    norm = _scaled_norm(x)
    if norm == 0.0:
        raise DegenerateOrbitError("starting point has zero norm")
    pure_linear = perturbation.bound == 0.0
    scaled = pure_linear
    if scaled:
        unit, lognorm = x / norm, math.log(norm)
    else:
        vec, lognorm = x, 0.0
    logs = np.empty(steps)
    for n in range(steps):
        t = n if forward else -(n + 1)
        if not scaled:
            if plain is not None:
                plain.add(n)
            if forward:
                vec = cache.matrix(t) @ vec + perturbation(cache.point(t), vec)
            else:
                vec = _reference_invert_step(
                    cache.inverse(t), perturbation, cache.point(t), vec, _INVERSION_TOL
                )
            norm = _scaled_norm(vec)
            if norm == 0.0:
                raise DegenerateOrbitError(f"orbit norm vanished after {n + 1} steps")
            logs[n] = math.log(norm)
            if norm > _BIG_NORM:
                unit, lognorm = vec / norm, math.log(norm)
                scaled = True
        else:
            w = (cache.matrix(t) if forward else cache.inverse(t)) @ unit
            growth = _scaled_norm(w)
            if growth == 0.0:
                raise DegenerateOrbitError("scaled orbit direction collapsed")
            lognorm += math.log(growth)
            unit = w / growth
            logs[n] = lognorm
            if not pure_linear and lognorm < math.log(_BIG_NORM) - 2.0:
                vec = unit * math.exp(lognorm)
                scaled = False
    return logs


def _spread_rows(rng, k, dim, lo=1e-3, hi=1e3):
    """k random directions with norms spread geometrically over [lo, hi]."""
    rows = rng.standard_normal((k, dim))
    return rows / np.linalg.norm(rows, axis=1)[:, None] * np.geomspace(lo, hi, k)[:, None]


#: Steps per chunk run of the all-scaled walk; None keeps the default size.
_CHUNKS = (1, 3, 7, None)


def _chunked_walk(pert, cache, xs, forward, steps, chunk):
    """``_orbit_log_norms`` with chunk runs of ``chunk`` steps."""
    k, dim = xs.shape
    scratch = lyapunov._WALK_SCRATCH if chunk is None else chunk * k * (dim + 1)
    with mock.patch.object(lyapunov, "_WALK_SCRATCH", scratch):
        return _orbit_log_norms(pert, cache, xs, forward, steps)


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_lock_step_walk_matches_per_vector_walk(scenarios, block4, forward, k):
    # Rows of norm 1e-3 ... 1e3 cross _BIG_NORM at different steps, so the
    # per-row scaled switch is exercised with mixed rows in one block.
    for sc in list(scenarios.values()) + [block4]:
        dim = sc.cocycle.dim
        rng = np.random.default_rng(k)
        xs = _spread_rows(rng, k, dim)
        cache = sc.orbit()
        for pert in (sc.perturbation, Perturbation.zero(dim)):
            refs = [_reference_orbit_log_norms(pert, cache, x, forward, 240) for x in xs]
            for chunk in _CHUNKS:
                got = _chunked_walk(pert, cache, xs, forward, 240, chunk)
                assert got.shape == (240, k)
                for i, ref in enumerate(refs):
                    assert got[:, i].tobytes() == ref.tobytes(), (sc.name, pert.bound, chunk, i)


@pytest.mark.parametrize("name", ["uniform-diag", "remark-scalar"])
def test_lock_step_walk_switches_rows_back_like_per_vector_walk(scenarios, name):
    # A start of norm 1e31 on the stable axis turns scaled after one step and
    # decays back below _BIG_NORM / e^2 a few steps later; the other rows stay
    # plain or grow, so the block mixes both switches.  In the second block
    # every row starts on the stable axis above _BIG_NORM, so the walk runs
    # scaled chunks until the first row falls back: the rollback lands on the
    # last step of a chunk for chunks of 1 and 3 steps and inside one for 7
    # and the default.
    sc = scenarios[name]
    dim = sc.cocycle.dim
    axis = np.eye(dim)[:1]
    blocks = [
        np.vstack([axis * 1e31, _spread_rows(np.random.default_rng(3), 3, dim)]),
        axis * np.geomspace(1e31, 1e37, 5)[:, None],
    ]
    cache = sc.orbit()
    for xs in blocks:
        refs = [_reference_orbit_log_norms(sc.perturbation, cache, x, True, 200) for x in xs]
        for chunk in _CHUNKS:
            got = _chunked_walk(sc.perturbation, cache, xs, True, 200, chunk)
            assert got[0, 0] > math.log(_BIG_NORM)
            assert np.min(got[:, 0]) < math.log(_BIG_NORM) - 2.0
            for i, ref in enumerate(refs):
                assert got[:, i].tobytes() == ref.tobytes(), (chunk, i)


def _offset_orbit(matrix):
    """A cocycle over the Bernoulli shift whose matrix at offset n is ``matrix(n)``."""
    base = BernoulliShift(2, (0.5, 0.5))
    system = CocycleSystem(len(matrix(0)), lambda p: np.array(matrix(p.offset), float), base)
    return OrbitCache(system, ShiftPoint(3))


def _shift_orbit(scale):
    """A scalar cocycle over the Bernoulli shift; ``scale(offset)`` is its value."""
    return _offset_orbit(lambda offset: [[scale(offset)]])


@pytest.mark.filterwarnings("error")
def test_lock_step_walk_errors_keep_types_and_messages():
    def orbit(scale):
        return _shift_orbit(lambda offset: scale)

    # A nonzero bound keeps the rows plain; 1e-100 to the 4th power is 0.0.
    # 5e-324 times a unit vector of 5 entries 5^-1/2 < 1/2 is exactly 0.0.
    plain = Perturbation(lambda p: (), lambda cs, x: np.zeros(np.shape(x)), 0.0, bound=1e-300)
    cases = [
        (orbit(1e-100), plain, [[1.0], [0.0]], 1, "starting point has zero norm"),
        (orbit(1e-100), plain, [[1.0], [2.0]], 0, "orbit norm vanished after 4 steps"),
        (_offset_orbit(lambda offset: np.eye(5) * (5e-324 if offset == 5 else 0.5)),
         Perturbation.zero(5), [[1.0] * 5, [-2.0] * 5], 0, "scaled orbit direction collapsed"),
    ]
    for cache, pert, xs, row, message in cases:
        xs = np.array(xs)
        for chunk in _CHUNKS:
            with pytest.raises(DegenerateOrbitError, match=message):
                _chunked_walk(pert, cache, xs, True, 10, chunk)
        with pytest.raises(DegenerateOrbitError, match=message):
            _reference_orbit_log_norms(pert, cache, xs[row], True, 10)
    # A growth of 1e-200 is not zero: the walk goes on, at every step and at
    # one step inside a chunk run of the linear walk.
    for cache in (orbit(1e-200), _shift_orbit(lambda offset: 1e-200 if offset == 5 else 0.5)):
        _assert_walks_like_per_vector(Perturbation.zero(1), cache, np.array([[1.0], [2.0]]),
                                      True, 10)


@pytest.mark.filterwarnings("error")
def test_tiny_plain_rows_keep_their_norms_until_they_are_zero():
    # Plain rows of 2^-10n and 2^-1-10n: their squares underflow past step
    # 53 (about 1e-160), the rows themselves only at step 108 (2^-1080).
    cache = _shift_orbit(lambda offset: 2.0**-10)
    plain = Perturbation(lambda p: (), lambda cs, x: np.zeros(np.shape(x)), 0.0, bound=1e-300)
    xs = np.array([[1.0], [0.5]])
    want = np.array([[math.log(2.0 ** (-10 * n - e)) for e in (0, 1)] for n in range(1, 108)])
    for chunk in _CHUNKS:
        got = _chunked_walk(plain, cache, xs, True, 107, chunk)
        assert got.tobytes() == want.tobytes(), chunk
        with pytest.raises(DegenerateOrbitError, match="vanished after 108 steps"):
            _chunked_walk(plain, cache, xs, True, 120, chunk)
    for i, x in enumerate(xs):
        ref = _reference_orbit_log_norms(plain, cache, x, True, 107)
        assert ref.tobytes() == want[:, i].tobytes()


@pytest.mark.filterwarnings("error")
def test_rollback_ahead_of_a_vanishing_growth_walks_on():
    # A start of 1e31 halves each step and falls below _BIG_NORM / e^2 at
    # step 7; the tiny matrix at step 10 would collapse a scaled row (its
    # square underflows) but only shrinks the plain one.
    cache = _shift_orbit(lambda offset: 1e-170 if offset == 9 else 0.5)
    pert = Perturbation(lambda p: (), lambda cs, x: np.zeros(np.shape(x)), 0.0, bound=1e-300)
    xs = np.array([[1e31], [3e31]])
    refs = [_reference_orbit_log_norms(pert, cache, x, True, 14) for x in xs]
    for chunk in _CHUNKS:
        got = _chunked_walk(pert, cache, xs, True, 14, chunk)
        for i, ref in enumerate(refs):
            assert got[:, i].tobytes() == ref.tobytes(), (chunk, i)


def _walk_paths(pert, cache, xs, forward, steps, chunk):
    """``_chunked_walk`` plus the steps its chunk runs computed in closed form
    and by the per-step loop."""
    paths = {"closed": 0, "loop": 0}

    def counted(mats, *args, read=lyapunov._axis_growth):
        signs = read(mats, *args)
        paths["loop" if signs is None else "closed"] += len(mats)
        return signs

    with mock.patch.object(lyapunov, "_axis_growth", counted):
        return _chunked_walk(pert, cache, xs, forward, steps, chunk), paths


def _assert_walks_like_per_vector(pert, cache, xs, forward, steps):
    """Every chunk size's walk is bit for bit the per-vector walk; returns
    the paths of each chunk size."""
    refs = [_reference_orbit_log_norms(pert, cache, x, forward, steps) for x in xs]
    out = {}
    for chunk in _CHUNKS:
        got, out[chunk] = _walk_paths(pert, cache, xs, forward, steps, chunk)
        for i, ref in enumerate(refs):
            assert got[:, i].tobytes() == ref.tobytes(), (pert.bound, chunk, i)
    return out


#: A perturbation with a non-zero bound whose kick is 0: rows start plain and
#: fall back to plain below _BIG_NORM / e^2.
_ZERO_KICK = Perturbation(lambda p: (), lambda cs, x: np.zeros(np.shape(x)), 0.0, bound=1e-300)



@pytest.mark.parametrize("name", ["uniform-diag", "nonuniform-layered"])
@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_diagonal_walk_hands_over_to_the_closed_form(scenarios, name, forward):
    # Generic rows step by the loop until their stable component underflows
    # to 0 (about 540 steps on uniform-diag); from there each row is a signed
    # axis vector and the chunk runs take the closed form.
    sc = scenarios[name]
    xs = _spread_rows(np.random.default_rng(11), 3, sc.cocycle.dim)
    cache = sc.orbit()
    for pert in (sc.perturbation, Perturbation.zero(sc.cocycle.dim)):
        for paths in _assert_walks_like_per_vector(pert, cache, xs, forward, 1200).values():
            assert paths["closed"] > 400 and paths["loop"] > 100, (pert.bound, paths)


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_signed_diagonal_walk_from_the_axes_takes_the_closed_form(scenarios, forward):
    # Rows on the axes take the closed form from their first scaled step.
    # The signed block's entries are negative at odd offsets, so the rows'
    # signs are running products.  A constant kick along the contracting
    # axis reads the sign of an orbit: rows of norm 1e31 and more on that
    # axis turn scaled at step 1, and the first falls back to plain after six
    # closed-form steps, three of them negative, at the end of a chunk run of
    # 1 or 3 steps and inside one of 7 steps or of the default size.
    signed = _offset_orbit(lambda n: np.diag([0.5, 2.0]) * (-1.0 if n % 2 else 1.0))
    axis = np.eye(2)[0 if forward else 1]
    kick = Perturbation(lambda p: (), lambda cs, x: np.zeros(np.shape(x)) + 1e27 * axis, 0.0,
                        bound=1e27)
    axes = np.array([[1e31, 0.0], [0.0, 2.0], [0.0, -1e-3], [-4.0, 0.0]])
    kicked = np.outer([1e31, -3e33, 5e35], axis)
    cases = [(signed, kick, kicked), (signed, Perturbation.zero(2), axes),
             (scenarios["uniform-diag"].orbit(), Perturbation.zero(2), axes)]
    scalar = scenarios["remark-scalar"]
    cases.append((scalar.orbit(), scalar.perturbation, np.array([[3e31], [-1e40], [1e35]])))
    for cache, pert, xs in cases:
        for paths in _assert_walks_like_per_vector(pert, cache, xs, forward, 300).values():
            assert paths["closed"] > 0 and paths["loop"] == 0, (pert.bound, paths)


def test_rollback_inside_a_closed_form_chunk(scenarios):
    # A start of 1e31 on uniform-diag's contracting axis turns scaled at
    # step 1, on the axis, and falls below _BIG_NORM / e^2 five steps later:
    # the rollback lands inside the closed-form chunk run.
    xs = np.array([[1e31, 0.0], [-7e31, 0.0]])
    cache = scenarios["uniform-diag"].orbit()
    for paths in _assert_walks_like_per_vector(_ZERO_KICK, cache, xs, True, 200).values():
        assert paths["closed"] > 0 and paths["loop"] == 0


@pytest.mark.parametrize("position", [(0, 1), (1, 0)])
def test_one_off_diagonal_entry_keeps_the_loop(position):
    # One entry off the diagonal, at one step, takes the whole walk off the
    # closed form.
    def matrix(n):
        a = np.diag([0.5, 2.0])
        if n in (40, -40):
            a[position] = 0.25
        return a

    xs = np.array([[0.0, 3.0], [-1.0, 0.0], [0.0, -1e-3]])
    for forward in (True, False):
        cache = _offset_orbit(matrix)
        for paths in _assert_walks_like_per_vector(Perturbation.zero(2), cache, xs, forward,
                                                   100).values():
            assert paths == {"closed": 0, "loop": 100}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [1e-160, 1e-170, 1e-200, 1e-300, 1e200])
@pytest.mark.parametrize("pert", [Perturbation.zero(1), _ZERO_KICK], ids=["scaled", "plain"])
def test_diagonal_entry_with_a_square_out_of_the_normal_range_keeps_the_loop(entry, pert):
    # 1e-160 squares to a subnormal, 1e-170 and below to 0, 1e200 overflows.
    # A scaled row's chunk holding that step runs the loop and ends before
    # it; the step is then taken alone and measured scaled.  A plain row is
    # measured again scaled, and at 1e200 it turns scaled.  Under the bound
    # the row of 1e40 turns scaled at step 1, so its step out of the band is
    # a one-step run beside the plain rows, and below 1e200 it turns plain
    # after it.  Every walk keeps the exact log sums: it is bit for bit the
    # per-vector walk, which is compared with them.  No measure warns, the
    # plain run's first one of a row past 2^511 included.
    xs = np.array([[1.0], [-2.0], [1e40]])
    cache = _shift_orbit(lambda offset: entry if offset == 5 else 0.5)
    paths = _assert_walks_like_per_vector(pert, cache, xs, True, 40)
    if not pert.bound:
        assert paths[1]["closed"] > 0 and paths[1]["loop"] > 0
    # Twelve steps keep every plain row a normal float.
    ns = np.arange(1, 13)[:, None]
    want = np.log([1.0, 2.0, 1e40]) + np.log(0.5) * (ns - (ns > 5)) + np.log(entry) * (ns > 5)
    got = np.column_stack([_reference_orbit_log_norms(pert, cache, x, True, 12) for x in xs])
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def _kicked(kick=lambda cs, x: x * 0.0 + np.multiply(1e-3, cs)):
    """A perturbation of bound 1e-2, so rows start plain, whose kick reads the
    orbit offset mod 5 (by default a constant kick of 1e-3 times it)."""
    return Perturbation(lambda p: (p.offset % 5,), kick, 0.0, bound=1e-2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_plain_rows_turn_scaled_mid_run(forward):
    # The first axis grows by 1e10 per step from step 36 on, each way, and
    # kicks go along the second: the rows with a first entry pass _BIG_NORM
    # at steps 38 and 39, inside the default chunk size's plain run of steps
    # 32-63, and the row on the second axis stays plain.  That run steps the
    # switched rows on until the kick fails on one past 1e200 (backward,
    # inside invert_step); the walk keeps none of those steps and raises
    # nothing, and every row is the per-vector walk.
    fails = []

    def kick(cs, x):
        if np.abs(x).max() > 1e200:
            fails.append(1)
            raise FloatingPointError("a row past 1e200")
        return x * 0.0 + np.multiply([0.0, 1e-3], cs)

    def matrix(n):
        grow = 1e10 if n >= 35 or n <= -36 else 1.0
        return np.diag([grow, 0.5]) if n >= 0 else np.diag([1.0 / grow, 2.0])

    cache = _offset_orbit(matrix)
    xs = np.array([[3.0, 0.0], [0.0, 1.0], [1e-5, 3.0]])
    pert = _kicked(kick)
    refs = [_reference_orbit_log_norms(pert, cache, x, forward, 70) for x in xs]
    assert not fails
    for chunk in _CHUNKS:
        got = _chunked_walk(pert, cache, xs, forward, 70, chunk)
        for i, ref in enumerate(refs):
            assert got[:, i].tobytes() == ref.tobytes(), (chunk, i)
    assert fails  # at the default chunk size
    big = math.log(_BIG_NORM)
    assert refs[0][36] < big < refs[0][37] and refs[2][37] < big < refs[2][38]
    assert np.max(refs[1]) < 0.0


@pytest.mark.filterwarnings("error")
def test_plain_row_vanishing_mid_run_raises_like_the_per_vector_walk():
    # Steps of 2^-100: the row of 2^-80 is 2^-1080 = 0.0 after 10 steps, the
    # row of 1 after 11.  The walk raises at the first, inside a plain run of
    # 3, 7 or the default length, with the per-vector walk's message.
    cache = _shift_orbit(lambda offset: 2.0**-100)
    xs = np.array([[1.0], [2.0**-80]])
    message = "orbit norm vanished after 10 steps"
    with pytest.raises(DegenerateOrbitError, match=message):
        _reference_orbit_log_norms(_ZERO_KICK, cache, xs[1], True, 12)
    refs = [_reference_orbit_log_norms(_ZERO_KICK, cache, x, True, 9) for x in xs]
    for chunk in _CHUNKS:
        with pytest.raises(DegenerateOrbitError, match=message):
            _chunked_walk(_ZERO_KICK, cache, xs, True, 12, chunk)
        got = _chunked_walk(_ZERO_KICK, cache, xs, True, 9, chunk)
        for i, ref in enumerate(refs):
            assert got[:, i].tobytes() == ref.tobytes(), (chunk, i)


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_plain_step_error_raises_where_the_walk_reaches_it(forward):
    # A kick that fails at orbit offset +-40 fails the walk there, at every
    # chunk size, as it fails the per-vector walk; a shorter walk ends first.
    def kick(cs, x):
        if np.any(np.abs(cs) == 40):
            raise ValueError("kick fails at offset 40")
        return x * 0.0 + np.multiply(1e-3, cs)

    pert = Perturbation(lambda p: (p.offset,), kick, 0.0, bound=1e-2)
    cache = _shift_orbit(lambda offset: 0.5 if offset >= 0 else 2.0)
    xs = np.array([[1.0], [-2.0]])
    reach = 41 if forward else 40  # the walk's first step at offset +-40
    with pytest.raises(ValueError, match="kick fails"):
        _reference_orbit_log_norms(pert, cache, xs[0], forward, reach)
    refs = [_reference_orbit_log_norms(pert, cache, x, forward, reach - 1) for x in xs]
    for chunk in _CHUNKS:
        with pytest.raises(ValueError, match="kick fails"):
            _chunked_walk(pert, cache, xs, forward, reach, chunk)
        got = _chunked_walk(pert, cache, xs, forward, reach - 1, chunk)
        for i, ref in enumerate(refs):
            assert got[:, i].tobytes() == ref.tobytes(), (chunk, i)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_scaled_row_falls_back_beside_plain_rows(forward):
    # Halving steps with a kick: the row of 1e31 turns scaled at step 1 and
    # falls below _BIG_NORM / e^2 at step 7, inside a run of the two plain
    # rows; their run starts anew with it, and every row is the per-vector
    # walk.
    cache = _shift_orbit(lambda offset: 0.5 if offset >= 0 else 2.0)
    xs = np.array([[1e31], [1.0], [-3.0]])
    pert = _kicked()
    refs = [_reference_orbit_log_norms(pert, cache, x, forward, 50) for x in xs]
    for chunk in _CHUNKS:
        got = _chunked_walk(pert, cache, xs, forward, 50, chunk)
        for i, ref in enumerate(refs):
            assert got[:, i].tobytes() == ref.tobytes(), (chunk, i)
    assert refs[0][0] > math.log(_BIG_NORM) > math.log(_BIG_NORM) - 2.0 > refs[0][6]


@st.composite
def _walk_blocks(draw):
    """(scenario name, forward, linear, starting rows, chunk) of a walk whose
    rows switch to scaled and back at staggered steps: norms log-uniform over
    [1e-4, 1e34], each row on a random direction or on a signed axis."""
    name = draw(st.sampled_from(["uniform-diag", "uniform-rot-coupled", "nonuniform-layered",
                                 "remark-scalar", "block4"]))
    k = draw(st.integers(1, 6))
    dim = 4 if name == "block4" else {"remark-scalar": 1}.get(name, 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes = draw(st.lists(st.integers(-1, dim - 1), min_size=k, max_size=k))
    rows = np.array([rng.standard_normal(dim) if i < 0 else np.eye(dim)[i] * rng.choice([-1, 1])
                     for i in axes])
    exps = draw(st.lists(st.floats(-4.0, 34.0), min_size=k, max_size=k))
    rows *= (10.0 ** np.array(exps) / np.linalg.norm(rows, axis=1))[:, None]
    chunk = draw(st.one_of(st.integers(1, 9), st.none()))
    return name, draw(st.booleans()), draw(st.booleans()), rows, chunk


@settings(derandomize=True, max_examples=60, deadline=None)
@given(block=_walk_blocks())
def test_drawn_walks_match_the_per_vector_walk(scenarios, block4, block):
    name, forward, linear, xs, chunk = block
    sc = block4 if name == "block4" else scenarios[name]
    pert = Perturbation.zero(sc.cocycle.dim) if linear else sc.perturbation
    cache = sc.orbit()
    got = _chunked_walk(pert, cache, xs, forward, 60, chunk)
    for i, x in enumerate(xs):
        ref = _reference_orbit_log_norms(pert, cache, x, forward, 60)
        assert got[:, i].tobytes() == ref.tobytes(), i

def test_nonlinear_exponent_returns_one_result_per_row(scenarios):
    sc = scenarios["uniform-rot-coupled"]
    xs = _spread_rows(np.random.default_rng(5), 3, 2)
    block = nonlinear_exponent(sc.orbit(), sc.perturbation, xs, "backward", 400)
    for x, res in zip(xs, block, strict=True):
        [alone] = nonlinear_exponent(sc.orbit(), sc.perturbation, x[None], "backward", 400)
        assert res.estimate == alone.estimate
        assert np.array_equal(res.values, alone.values)
    assert nonlinear_exponent(sc.orbit(), sc.perturbation, xs[:0], "forward", 400) == []
    with pytest.raises(ValueError, match="block of starting points"):
        nonlinear_exponent(sc.orbit(), sc.perturbation, xs[0], "forward", 400)


def _coefficient_row(cache, perturbation, n):
    """The perturbation's coefficient row at orbit index n, read by range."""
    return cache.evaluate(perturbation.coefficients, np.array([n]), "coefficients")[0]


def test_batched_invert_step_matches_per_row_iteration(scenarios, block4):
    for sc in list(scenarios.values()) + [block4]:
        dim = sc.cocycle.dim
        rng = np.random.default_rng(17)
        cache = sc.orbit()
        for n in range(-12, 0):
            targets = _spread_rows(rng, 8, dim)
            row = _coefficient_row(cache, sc.perturbation, n)
            got = invert_step(cache.inverse(n), sc.perturbation, row, targets,
                              tol=_INVERSION_TOL)
            for i in range(8):
                ref = _reference_invert_step(cache.inverse(n), sc.perturbation,
                                             cache.point(n), targets[i], _INVERSION_TOL)
                assert np.array_equal(got[i], ref), (sc.name, n, i)
            one = invert_step(cache.inverse(n), sc.perturbation, row, targets[0],
                              tol=_INVERSION_TOL)
            assert one.shape == (dim,) and np.array_equal(one, got[0])


def test_invert_step_reads_the_coefficients_once(scenarios, block4):
    # The step's coefficients are read once, by the caller: invert_step
    # takes that row, reads none itself and iterates only the kick, and the
    # result is the same.
    for sc in list(scenarios.values()) + [block4]:
        rng = np.random.default_rng(41)
        calls = []

        def coefficients(point, read=sc.perturbation.coefficients):
            calls.append(point)
            return read(point)

        counted = replace(sc.perturbation, coefficients=coefficients)
        cache = sc.orbit()
        for n in (-7, -1):
            targets = _spread_rows(rng, 5, sc.cocycle.dim)
            calls.clear()
            got = invert_step(cache.inverse(n), counted, counted.coefficients(cache.point(n)),
                              targets, tol=_INVERSION_TOL)
            assert calls == [cache.point(n)], sc.name
            want = invert_step(cache.inverse(n), sc.perturbation,
                               _coefficient_row(cache, sc.perturbation, n), targets,
                               tol=_INVERSION_TOL)
            assert np.array_equal(got, want), sc.name


def test_batched_invert_step_raises_like_per_row_iteration():
    # u <- t - f(u) with f(u) = -1.5 u above |u| = 5 diverges; below it f = 0
    # and the first step is exact.
    pert = Perturbation(
        lambda p: (), lambda cs, x: np.where(np.abs(x) > 5.0, -1.5 * x, 0.0), 1.5
    )
    point, one = RotationPoint.from_angle(0.1), np.eye(1)
    row = pert.coefficients(point)
    targets = np.array([[1.0], [10.0]])
    assert np.array_equal(
        invert_step(one, pert, row, targets[:1]),
        _reference_invert_step(one, pert, point, targets[0], 1e-14)[None],
    )
    message = f"did not converge within {_INVERT_MAX_ITER} iterations"
    with pytest.raises(InversionError, match=message):
        _reference_invert_step(one, pert, point, targets[1], 1e-14)
    with pytest.raises(InversionError, match=message):
        invert_step(one, pert, row, targets)


def _counted(perturbation, base, ranged):
    """``perturbation`` with coefficients that log each read in the returned
    list: ("at", point) per point, ("along", orbit indices) per range read.
    ``ranged`` gives a ``RangeMap``, whose range form stacks the per-point
    rows when the perturbation has none; otherwise a per-point function."""
    read, log = perturbation.coefficients, []

    def at(point):
        log.append(("at", point))
        return read(point)

    def along(omega, ns):
        log.append(("along", tuple(ns.tolist())))
        if isinstance(read, RangeMap):
            return read.along(omega, ns)
        return np.array([read(step(base, omega, n)) for n in ns.tolist()], dtype=float)

    return replace(perturbation, coefficients=RangeMap(at, along) if ranged else at), log


def _expected_reads(cache, plain, steps, chunk, forward, ranged):
    """The ``_counted`` log of a walk whose plain steps are ``plain``: at each
    plain step outside the rows last read, the rows of the next ``chunk``
    steps, by one range read or one per-point read per index."""
    log, lo, hi = [], 0, 0
    for n in sorted(plain):
        if not lo <= n < hi:
            lo, hi = n, min(n + chunk, steps)
            ns = range(lo, hi) if forward else range(-hi, -lo)
            log += [("along", tuple(ns))] if ranged else [("at", cache.point(t)) for t in ns]
    return log


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_walks_read_coefficient_rows_by_range(scenarios, block4, forward):
    # A walk reads the rows of a chunk of steps at each plain step outside
    # the rows it holds, never per point through a range form, and walks the
    # per-point walk's bytes.  A linear walk stays scaled and reads none.
    steps, k = 240, 3
    direction = "forward" if forward else "backward"
    signed = np.arange(1, steps + 1) * (1 if forward else -1)
    for sc in list(scenarios.values()) + [block4]:
        dim = sc.cocycle.dim
        xs = _spread_rows(np.random.default_rng(29), k, dim)
        cache = sc.orbit()
        plain = set()
        refs = [_reference_orbit_log_norms(sc.perturbation, cache, x, forward, steps, plain)
                for x in xs]
        assert plain, sc.name
        for ranged in (True, False):
            pert, log = _counted(sc.perturbation, sc.base, ranged)
            for chunk in _CHUNKS:
                log.clear()
                if chunk is None:
                    block = nonlinear_exponent(cache, pert, xs, direction, steps)
                    for res, ref in zip(block, refs, strict=True):
                        assert res.values[:, 1].tobytes() == (ref / signed).tobytes(), sc.name
                    length = min(steps, lyapunov._WALK_SCRATCH // (k * (dim + 1)))
                else:
                    got = _chunked_walk(pert, cache, xs, forward, steps, chunk)
                    for i, ref in enumerate(refs):
                        assert got[:, i].tobytes() == ref.tobytes(), (sc.name, chunk, i)
                    length = chunk
                want = _expected_reads(cache, plain, steps, length, forward, ranged)
                assert log == want, (sc.name, ranged, chunk)
        linear, log = _counted(Perturbation.zero(dim), sc.base, True)
        nonlinear_exponent(cache, linear, xs, direction, steps)
        assert log == [], sc.name


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_walk_reads_again_where_plain_steps_resume_past_the_held_chunk(forward):
    # A start of 1e29 turns scaled after 4 steps, grows by 2 per step up to
    # |offset| 1100 and then shrinks by 2^10 per step, back to plain about
    # 1210 steps in: past the rows read at step 0 for every chunk length,
    # the default 1024 included, so the walk reads there again.
    def scale(offset):
        grow = 2.0 if offset >= 0 else 0.5
        return grow if -1100 <= offset < 1100 else grow**-10

    cache, steps = _shift_orbit(scale), 1250
    kicked = Perturbation(lambda p: (p.offset % 5,),
                          lambda cs, x: x * 0.0 + np.multiply(1e-300, cs), 0.0, bound=1e-290)
    xs = np.array([[1e29]])
    plain = set()
    ref = _reference_orbit_log_norms(kicked, cache, xs[0], forward, steps, plain)
    default = lyapunov._WALK_SCRATCH // 2  # the chunk length of one row in one dimension
    resume = min(n for n in plain if n > 3)
    assert plain == {0, 1, 2, 3} | set(range(resume, steps)) and resume > default
    for ranged in (True, False):
        pert, log = _counted(kicked, cache.system.base, ranged)
        for chunk in _CHUNKS:
            log.clear()
            got = _chunked_walk(pert, cache, xs, forward, steps, chunk)
            assert got[:, 0].tobytes() == ref.tobytes(), (ranged, chunk)
            length = default if chunk is None else chunk
            assert log == _expected_reads(cache, plain, steps, length, forward, ranged)


@pytest.mark.parametrize("window", [Window(0, 0), Window(0, 5), Window(-5, 0), Window(-9, 12)],
                         ids=lambda w: f"{w.n_min}..{w.n_max}")
def test_nonlinear_orbit_reads_coefficient_rows_by_range(scenarios, block4, window):
    # Each non-empty direction reads its rows once, by one range read or one
    # per-point read per index, and the orbit is the per-point steps' bytes.
    for sc in list(scenarios.values()) + [block4]:
        x0 = np.random.default_rng(37).standard_normal(sc.cocycle.dim)
        cache = sc.orbit()
        want = {0: x0}
        for n in range(window.n_max):
            want[n + 1] = cache.matrix(n) @ want[n] + sc.perturbation(cache.point(n), want[n])
        for n in range(0, window.n_min, -1):
            want[n - 1] = _reference_invert_step(
                cache.inverse(n - 1), sc.perturbation, cache.point(n - 1), want[n], 1e-14
            )
        reads = [ns for ns in (range(window.n_max), range(window.n_min, 0)) if ns]
        for ranged in (True, False):
            pert, log = _counted(sc.perturbation, sc.base, ranged)
            got = nonlinear_orbit(cache, pert, x0, window)
            for n in window.indices():
                assert got.value_at(n).tobytes() == want[n].tobytes(), (sc.name, ranged, n)
            if ranged:
                assert log == [("along", tuple(ns)) for ns in reads], sc.name
            else:
                assert log == [("at", cache.point(n)) for ns in reads for n in ns], sc.name


def _reference_qr_sweep(mats):
    """The per-step loop: one ``_positive_qr`` per matrix and a running ``+=`` of the logs."""
    q = np.eye(mats.shape[-1])
    logs = np.zeros(mats.shape[-1])
    sums = []
    for m in mats:
        q, r = _positive_qr(m @ q)
        logs += np.log(np.diagonal(r))
        sums.append(logs.copy())
    return q, np.array(sums)


def _full_sweep(mats):
    """``_qr_sweep`` keeping the running sums after every factorization."""
    return _qr_sweep(mats, range(1, len(mats) + 1))


def _loop_sweep(mats):
    """``_qr_loop`` from the identity, with the running sums of its logs."""
    q, logs = _qr_loop(mats, np.eye(mats.shape[-1]))
    return q, np.cumsum(logs, axis=0)


@pytest.mark.parametrize(
    "indices",
    [range(300), range(-300, 0), range(1), range(2), range(3), range(37, 900)],
    ids=["forward", "backward", "len1", "len2", "len3", "offset"],
)
def test_qr_sweep_matches_running_sum_loop(scenarios, block4, indices):
    # Bytes, not values: q feeds nonlinear_orbit, so its signed zeros count.
    for sc in list(scenarios.values()) + [block4]:
        cache = OrbitCache(sc.cocycle, sc.base_point)
        q, sums = _full_sweep(cache.matrices(indices.start, indices.stop))
        ref_q, ref_sums = _reference_qr_sweep(
            np.array([cache.matrix(n) for n in indices])
        )
        assert sums.tobytes() == ref_sums.tobytes(), sc.name
        assert q.tobytes() == ref_q.tobytes(), sc.name


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_qr_loop_matches_positive_qr_loop(scenarios, block4, forward):
    # The LAPACK loop itself, on the triangular blocks too, which the sweep
    # sends to the closed form: q and the sums are the per-step
    # ``_positive_qr`` loop's bytes, on the forward and backward sweeps'
    # matrices and on a random non-triangular block.
    blocks = []
    for sc in list(scenarios.values()) + [block4]:
        cache = OrbitCache(sc.cocycle, sc.base_point)
        blocks.append(np.array(cache.matrices(0, 300) if forward else cache.matrices(-300, 0)))
    blocks.append(np.random.default_rng(3 if forward else 4).standard_normal((200, 3, 3)))
    for mats in blocks:
        q, sums = _loop_sweep(mats)
        ref_q, ref_sums = _reference_qr_sweep(mats)
        assert sums.tobytes() == ref_sums.tobytes()
        assert q.tobytes() == ref_q.tobytes()


@pytest.mark.parametrize("singular", [np.zeros((3, 3)), np.diag([2.0, 1.0, 0.0])],
                         ids=["zero", "zero-row"])
def test_qr_loop_breaks_down_on_a_singular_matrix(singular):
    # A zero row of m @ q gives LAPACK an exactly zero R entry; the loop
    # raises after its last step, like the per-step loop at that step.
    mats = np.random.default_rng(8).standard_normal((40, 3, 3))
    mats[17] = singular
    for sweep in (_loop_sweep, _full_sweep, _reference_qr_sweep):
        with pytest.raises(NumericalBreakdownError, match="zero diagonal entry"):
            sweep(mats)


@st.composite
def _triangular_blocks(draw, min_dim=1):
    """(N, d, d) upper-triangular blocks: diagonal entries of either sign,
    non-zero entries above the diagonal and signed zeros below it."""
    dim = draw(st.integers(min_dim, 4))
    steps = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = np.exp(rng.uniform(-5.0, 5.0, (steps, dim, dim)))
    mats = rng.choice([-1.0, 1.0], (steps, dim, dim)) * scale
    lower = np.tril(np.ones((dim, dim), dtype=bool), -1)
    mats[:, lower] = rng.choice([-0.0, 0.0], (steps, int(lower.sum())))
    return mats


def _sweep_counting_qr(mats):
    """``_full_sweep(mats)`` and the number of LAPACK factorizations it made."""
    with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as counted:
        q, sums = _full_sweep(mats)
    return q, sums, counted.call_count


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mats=_triangular_blocks())
def test_triangular_sweep_matches_lapack_loop_bitwise(mats):
    q, sums, calls = _sweep_counting_qr(mats)
    assert calls <= 1  # the closed form, not the per-step loop
    ref_q, ref_sums = _reference_qr_sweep(mats)
    assert sums.tobytes() == ref_sums.tobytes()
    assert q.tobytes() == ref_q.tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mats=_triangular_blocks(min_dim=2), data=st.data())
def test_tiny_lower_entry_takes_lapack_loop(mats, data):
    steps, dim = mats.shape[:2]
    k = data.draw(st.integers(0, steps - 1))
    i = data.draw(st.integers(1, dim - 1))
    j = data.draw(st.integers(0, i - 1))
    mats[k, i, j] = 1e-300
    q, sums, calls = _sweep_counting_qr(mats)
    assert calls == steps
    ref_q, ref_sums = _reference_qr_sweep(mats)
    assert sums.tobytes() == ref_sums.tobytes()
    assert q.tobytes() == ref_q.tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mats=_triangular_blocks(), data=st.data())
def test_zero_diagonal_breaks_down_on_both_paths(mats, data):
    steps, dim = mats.shape[:2]
    k = data.draw(st.integers(0, steps - 1))
    i = data.draw(st.integers(0, dim - 1))
    mats[k, i, i] = data.draw(st.sampled_from([0.0, -0.0]))
    with pytest.raises(NumericalBreakdownError):
        _full_sweep(mats)
    with pytest.raises(NumericalBreakdownError):
        _reference_qr_sweep(mats)


def test_qr_sweeps_reject_too_many_steps_before_reading():
    def unreachable(point):
        raise AssertionError("no matrix may be evaluated")

    orbit = OrbitCache(
        CocycleSystem(1, unreachable, BernoulliShift(2, (0.5, 0.5))), ShiftPoint(3)
    )
    for sweep in (linear_exponents_qr, linear_exponents_and_half, backward_qr_frame):
        with pytest.raises(ValueError, match="exceeds the limit"):
            sweep(orbit, MAX_STEPS + 1)


def test_qr_exponents_diagonal_exact(scenarios):
    sc = scenarios["uniform-diag"]
    for steps in (3, 50, 500):
        got = linear_exponents_qr(sc.orbit(), steps)
        assert got[0] == pytest.approx(math.log(2.0), abs=1e-12)
        assert got[1] == pytest.approx(-math.log(2.0), abs=1e-12)


def test_qr_exponent_scalar_half(scenarios):
    sc = scenarios["remark-scalar"]
    got = linear_exponents_qr(sc.orbit(), 200)
    assert got[0] == pytest.approx(-math.log(2.0), abs=1e-12)


def test_qr_self_consistency_rot_coupled(scenarios):
    sc = scenarios["uniform-rot-coupled"]
    n = 400
    a = linear_exponents_qr(sc.orbit(), n)
    b = linear_exponents_qr(sc.orbit(), 2 * n)
    assert np.all(np.abs(a - b) <= 5.0 / math.sqrt(n))


def test_qr_sum_rule_against_determinant(scenarios, block4):
    # Sum of exponents equals (1/N) log |det A(w, N)|, accumulated from the
    # one-step determinants to avoid overflow.
    for sc in (scenarios["uniform-rot-coupled"], scenarios["nonuniform-layered"], block4):
        steps = 300
        cache = OrbitCache(sc.cocycle, sc.base_point)
        logdet = sum(
            math.log(abs(np.linalg.det(cache.matrix(n)))) for n in range(steps)
        )
        got = linear_exponents_qr(cache, steps)
        assert float(np.sum(got)) == pytest.approx(logdet / steps, abs=1e-8)


def test_backward_frame_identifies_axes(scenarios):
    sc = scenarios["uniform-diag"]
    frame, rates = backward_qr_frame(sc.orbit(), 200)
    assert rates[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert np.allclose(np.abs(frame[:, 0]), [0.0, 1.0], atol=1e-12)
    assert np.allclose(np.abs(frame[:, 1]), [1.0, 0.0], atol=1e-12)


def test_nonlinear_exponent_stable_axis_linear(scenarios):
    # f = 0 along the stable axis of diag(1/2, 2): exact geometric decay.
    sc = scenarios["uniform-diag"]
    [res] = nonlinear_exponent(
        sc.orbit(), Perturbation.zero(2), np.array([[1.0, 0.0]]), "forward", 400
    )
    assert res.estimate == pytest.approx(-math.log(2.0), abs=1e-6)
    assert res.converged


def test_nonlinear_exponent_remark_values(scenarios):
    # Backward exponent -log 2, forward exponent 0, for x away from the
    # special point.
    sc = scenarios["remark-scalar"]
    [fwd] = nonlinear_exponent(sc.orbit(), sc.perturbation, np.array([[1.0]]), "forward", 10_000)
    [bwd] = nonlinear_exponent(sc.orbit(), sc.perturbation, np.array([[1.0]]), "backward", 10_000)
    assert abs(fwd.estimate - 0.0) <= 0.01
    assert abs(bwd.estimate + math.log(2.0)) <= 0.01


def test_nonlinear_exponent_scaling_consistency(scenarios):
    sc = scenarios["remark-scalar"]
    n = 2000
    [a] = nonlinear_exponent(sc.orbit(), sc.perturbation, np.array([[0.7]]), "forward", n)
    [b] = nonlinear_exponent(sc.orbit(), sc.perturbation, np.array([[0.7]]), "forward", 2 * n)
    assert abs(a.estimate - b.estimate) <= 3.0 / math.sqrt(n)


def test_nonlinear_exponent_degenerate_at_zero(scenarios):
    sc = scenarios["remark-scalar"]
    with pytest.raises(DegenerateOrbitError):
        nonlinear_exponent(sc.orbit(), sc.perturbation, np.array([[0.0]]), "backward", 100)


def test_nonlinear_exponent_survives_overflow_scale(scenarios):
    # Backward orbits grow like 2^n; at n = 10^4 the norms are far beyond
    # float range and the scaled representation must take over seamlessly.
    sc = scenarios["uniform-diag"]
    [res] = nonlinear_exponent(
        sc.orbit(), sc.perturbation, np.array([[0.9, 0.4]]), "backward", 10_000
    )
    assert abs(res.estimate + math.log(2.0)) <= 0.01


def test_special_point_zero_for_linear(scenarios):
    from dataclasses import replace

    sc = scenarios["uniform-diag"]
    window = Window.symmetric(12)
    prob = replace(
        sc.problem(WindowSequence.zeros(window, 2)),
        perturbation=Perturbation.zero(2),
    )
    res = find_special_point(prob)
    assert np.linalg.norm(res.point) <= 1e-12
    assert res.bound_ok


def test_special_point_remark_bisection_oracle(scenarios):
    # Independent oracle: the unique initial value whose backward orbit stays
    # bounded, located by bisection on the sign of the diverging backward
    # iterates (the backward map is monotone in the scalar case).
    sc = scenarios["remark-scalar"]
    window = Window.symmetric(16)
    prob = sc.problem(WindowSequence.zeros(window, 1))
    res = find_special_point(prob)

    cache = OrbitCache(sc.cocycle, sc.base_point)

    def backward_sign(u: float) -> float:
        x = np.array([u])
        for n in range(0, -60, -1):
            x = invert_step(cache.inverse(n - 1), sc.perturbation,
                            sc.perturbation.coefficients(cache.point(n - 1)), x)
            if abs(x[0]) > 100.0:
                break
        return x[0]

    lo, hi = -0.5, 0.5
    assert backward_sign(lo) < 0 < backward_sign(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if backward_sign(mid) > 0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    assert abs(res.point[0] - oracle) <= 1e-8
    assert res.bound_ok  # |x_n| <= L delta(n) / 2 window-wide


def test_special_point_tolerance_consistency(scenarios):
    sc = scenarios["remark-scalar"]
    window = Window.symmetric(16)
    prob = sc.problem(WindowSequence.zeros(window, 1))
    a = find_special_point(prob, tol=1e-8)
    b = find_special_point(prob, tol=1e-10)
    assert abs(a.point[0] - b.point[0]) <= 1e-7


def test_special_point_requires_bound(scenarios):
    from dataclasses import replace

    sc = scenarios["uniform-diag"]
    window = Window.symmetric(8)
    prob = sc.problem(WindowSequence.zeros(window, 2))
    unbounded = replace(prob, perturbation=Perturbation(
        sc.perturbation.coefficients, sc.perturbation.kick, sc.perturbation.lipschitz_budget, None
    ))
    with pytest.raises(ValueError):
        find_special_point(unbounded)


def test_shadowed_orbit_exponent_transfer(scenarios):
    # If |x_n - y_n| <= L delta(n) with delta sub-exponential and y has a
    # nonzero exponent, the finite-time exponents of x and y agree within
    # 2 log(N)/N plus the regression residual.
    sc = scenarios["uniform-diag"]
    steps = 4000
    cache = OrbitCache(sc.cocycle, sc.base_point, sc.dichotomy)
    window = Window.symmetric(16)
    v = np.array([0.0, 1.0])  # unstable direction, exponent log 2
    values = np.zeros((window.length, 2))
    values[window.offset(0)] = v
    x = v.copy()
    for n in range(0, window.n_max):
        x = cache.matrix(n) @ x
        values[window.offset(n + 1)] = x
    x = v.copy()
    for n in range(0, window.n_min, -1):
        x = cache.inverse(n - 1) @ x
        values[window.offset(n - 1)] = x
    prob = sc.problem(WindowSequence(window, values))
    from shadowrds import solve

    res = solve(prob, tol=1e-10)
    [linear] = nonlinear_exponent(cache, Perturbation.zero(2), v[None], "forward", steps)
    [shadowed] = nonlinear_exponent(
        cache, sc.perturbation, res.orbit.value_at(0)[None], "forward", steps
    )
    allowance = 2 * math.log(steps) / steps + linear.regression_residual \
        + shadowed.regression_residual
    assert abs(shadowed.estimate - linear.estimate) <= allowance


def test_conservation_trivial_when_unperturbed(scenarios):
    from dataclasses import replace as drep

    sc = scenarios["uniform-diag"]
    sc0 = drep(sc, perturbation=Perturbation.zero(2))
    rep = conservation_experiment(sc0, 600, 4, window_half=12, seed=5)
    assert rep.all_passed
    assert np.linalg.norm(rep.special_point) <= 1e-9


def test_conservation_remark_sharpness(scenarios):
    # The backward exponent matches -log 2; the forward exponent 0 is not a
    # linear exponent, demonstrating that only one of the two needs to match.
    sc = scenarios["remark-scalar"]
    rep = conservation_experiment(sc, 4000, 6, window_half=16, seed=6)
    assert rep.all_passed
    lin = rep.linear_exponents
    for row in rep.converse_rows:
        assert abs(row.backward + math.log(2.0)) <= 0.02
        assert row.matched == pytest.approx(-math.log(2.0), abs=1e-9)
        assert np.all(np.abs(lin - row.forward) > 0.02)  # 0 is not linear


def _bits(value):
    """A comparable form of a report that tells apart every bit of its floats."""
    if is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        return type(value), value.hex()
    return type(value), value


def _walking_rows_alone(orbit, perturbation, xs, direction, steps):
    """``nonlinear_exponent`` with every row of the block walked on its own."""
    return [nonlinear_exponent(orbit, perturbation, x[None], direction, steps)[0] for x in xs]


@pytest.mark.parametrize("samples", [3, 0])
@pytest.mark.parametrize("name", ["remark-scalar", "uniform-diag"])
def test_conservation_walks_each_direction_once(scenarios, name, samples):
    # remark-scalar has one (negative) exponent, uniform-diag one of each
    # sign; a direction with no forward row and no sample walks nothing.
    sc = scenarios[name]
    with mock.patch.object(lyapunov, "_orbit_log_norms", wraps=_orbit_log_norms) as walks:
        rep = conservation_experiment(sc, 600, samples, window_half=12, seed=5)
    signs = {bool(t > 0) for t in rep.linear_exponents}
    assert walks.call_count == (2 if samples else len(signs))
    assert len(rep.converse_rows) == samples
    with mock.patch.object(lyapunov, "nonlinear_exponent", _walking_rows_alone):
        ref = conservation_experiment(sc, 600, samples, window_half=12, seed=5)
    assert _bits(rep) == _bits(ref)


def test_conservation_rejects_a_non_scenario():
    with pytest.raises(TypeError, match="scenario must be a Scenario"):
        conservation_experiment("remark-scalar", 600, 1)


def _read_steps(steps):
    """``mock.patch`` of the walks' and sweeps' matrix reads to ``steps`` matrices."""
    return mock.patch.object(lyapunov, "_READ_CHUNK", steps)


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_fill_error_anywhere_in_the_range_wins_over_a_walk_error(forward):
    # A plain row vanishes after 4 steps, or a kick fails at orbit offset
    # +-6.  Step 30 meets a singular matrix, several reads of 8 steps past
    # either walk error: its SingularityError is raised instead, at every
    # read size, as when the walk read its whole range first.
    def orbit(scale, bad):
        return _offset_orbit(lambda n: [[0.0 if n == bad else scale(n)]])

    def kick(cs, x):
        if np.any(np.abs(cs) == 6):
            raise ValueError("kick fails at offset 6")
        return x * 0.0

    failing = Perturbation(lambda p: (p.offset,), kick, 0.0, bound=1e-2)
    cases = [(lambda n: 1e-100 if n >= 0 else 1e100, _ZERO_KICK, DegenerateOrbitError,
              "vanished after 4 steps"),
             (lambda n: 0.5 if n >= 0 else 2.0, failing, ValueError, "kick fails")]
    bad = 30 if forward else -31  # the matrix of step 30
    xs = np.array([[1.0], [-3.0]])
    for scale, pert, error, message in cases:
        for read in (8, lyapunov._READ_CHUNK):
            with _read_steps(read):
                with pytest.raises(error, match=message):
                    _orbit_log_norms(pert, orbit(scale, None), xs, forward, 40)
                with pytest.raises(SingularityError) as err:
                    _orbit_log_norms(pert, orbit(scale, bad), xs, forward, 40)
                assert err.value.index == bad


def _mixed_triangular_block(rng, steps, dim, switch):
    """``steps`` (dim, dim) matrices, upper triangular with diagonal entries of
    either sign before ``switch`` and dense after it."""
    mats = rng.standard_normal((steps, dim, dim))
    mats[:switch] = np.triu(mats[:switch]) + np.eye(dim) * np.sign(mats[:switch])
    return mats


@pytest.mark.parametrize("read", [1, 7, 64])
def test_chunked_qr_sweep_matches_running_sum_loop(scenarios, block4, read):
    # Chunks that do not divide the 300 steps: triangular blocks carry their
    # signs over the seams, the others q, and a block whose first 150
    # matrices are triangular hands the closed form's q to the loop at the
    # chunk holding step 150.  The LAPACK calls are one per step of the
    # loop plus the closed form's one, and any counts, in any order, read
    # the reference's running sums.
    blocks = []
    for sc in list(scenarios.values()) + [block4]:
        cache = OrbitCache(sc.cocycle, sc.base_point)
        blocks += [np.array(cache.matrices(0, 300)), np.array(cache.matrices(-300, 0))]
    rng = np.random.default_rng(read)
    blocks += [_mixed_triangular_block(rng, 300, dim, 150) for dim in (1, 2, 3)]
    counts = [300, 150, 1, 299, read, 7]
    for mats in blocks:
        with _read_steps(read):
            q, sums, calls = _sweep_counting_qr(mats)
            _, some = _qr_sweep(mats, counts)
        ref_q, ref_sums = _reference_qr_sweep(mats)
        assert q.tobytes() == ref_q.tobytes()
        assert sums.tobytes() == ref_sums.tobytes()
        assert some.tobytes() == ref_sums[np.array(counts) - 1].tobytes()
        triangular = [lyapunov._is_upper_triangular(mats[:k]) for k in (1, 150, 300)]
        if triangular[-1]:
            assert calls == 1
        elif triangular[1]:
            start = 150 // read * read
            assert calls == 300 - start + (start > 0)
        else:
            assert calls == 300


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_walk_decides_diagonal_per_read(forward):
    # Diagonal matrices for the first 40 steps, then ones with an entry off
    # the diagonal: reads of 16 steps take the closed form while they hold
    # diagonal matrices only, and the loop from the read holding step 40;
    # one read of the whole walk takes the loop throughout.  Every walk is
    # the per-vector walk's bytes.
    def matrix(n):
        a = np.diag([0.5, 2.0])
        if not -40 <= n < 40:
            a[0, 1] = 0.25
        return a

    xs = np.array([[0.0, 3.0], [-1.0, 0.0], [0.0, -1e-3]])
    cache = _offset_orbit(matrix)
    with _read_steps(16):
        for paths in _assert_walks_like_per_vector(Perturbation.zero(2), cache, xs, forward,
                                                   100).values():
            assert paths["closed"] >= 32 and paths["loop"] >= 52, paths
    for paths in _assert_walks_like_per_vector(Perturbation.zero(2), cache, xs, forward,
                                               100).values():
        assert paths == {"closed": 0, "loop": 100}


def test_nonlinear_exponents_share_the_walk_logs(scenarios):
    # The rows walked together keep views of one log array; ``values`` and
    # the tail statistics are today's per-row arrays and numbers.
    sc = scenarios["uniform-rot-coupled"]
    xs = _spread_rows(np.random.default_rng(5), 3, 2)
    for direction, sign in (("forward", 1), ("backward", -1)):
        block = nonlinear_exponent(sc.orbit(), sc.perturbation, xs, direction, 301)
        logs = _orbit_log_norms(sc.perturbation, sc.orbit(), xs, direction == "forward", 301)
        ns = np.arange(1, 302)
        tail = slice(150, 301)
        for i, res in enumerate(block):
            assert res.log_norms.base is block[0].log_norms.base is not None
            values = logs[:, i] / (sign * ns)
            assert res.values.tobytes() == np.column_stack([ns, values]).tobytes()
            fit = np.polyfit(ns[tail], logs[tail, i], 1)
            resid = logs[tail, i] - np.polyval(fit, ns[tail])
            assert res.estimate == float(np.max(values[tail]))
            assert res.tail_min == float(np.min(values[tail]))
            assert res.regression_residual == float(np.sqrt(np.mean(resid**2)))
            assert res.converged == (res.estimate - res.tail_min <= 0.05)
