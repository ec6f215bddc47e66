"""Lyapunov exponents of the linear cocycle and of its perturbed counterpart.

Linear exponents come from repeated QR factorization along the orbit: the
averaged logs of the R diagonals.  When every matrix of the sweep is upper
triangular (diagonal and scalar cocycles), LAPACK's factorization of
``m @ q`` is trivial: each Householder vector is zero, so ``tau = 0``,
``Q = I`` and ``R = m @ q``.  With ``q`` a +-1 diagonal, ``m @ q`` stays
triangular with diagonal ``m_ii * q_ii``, so the running sums are one
cumulative sum of ``log |m_ii|`` and the last ``q`` is one factorization of
the last matrix times the accumulated signs.  Both match the per-step loop
bit for bit, signed zeros of ``q`` included, which the tests check against
the loop; every other block runs the loop.  The loop keeps one factorization
per step, whose ``q`` takes the signs of R's diagonal, and takes the logs
of all |r_ii| once after it.  A sweep goes in chunks that carry q, or only
the signs while every matrix so far is triangular, and the running sums,
each chunk one cumulative sum from the last one's end.

For the perturbed cocycle the forward and backward exponents at a point are
limsups of (1/n) log |orbit|; the finite surrogate used here is the maximum
of that quantity over the tail half of the run, with the minimum reported as
well and a flag when the two disagree.

Finite-time orbits of hyperbolic systems overflow doubles long before
n = 10^4, so the tracker switches to a scaled representation (unit vector
plus log of the norm) once the orbit norm passes 1e30.  In that regime the
bounded perturbation changes the log of the norm by less than
|f|_inf * |A^{-1}| / 1e30 < 1e-28 per step, far below the resolution of the
estimate, so the linearized step is exact at working precision.  Orbits of
moderate size are always stepped exactly, perturbation included.  A row's
sum of squares leaves the float range below about 1.5e-154 and above about
1.3e154, so plain norms and scaled growths outside [2^-511, 2^511] are
measured again scaled by the power of two of the row's largest entry
(``_scaled_row_norms``); only an exactly zero row or growth ends a walk.

The sampled orbits of one direction share the base orbit, so
``nonlinear_exponent`` walks a (k, d) block of starting points in lock-step,
and each row switches between the plain and the scaled representation on its
own, through a per-row flag.  The walk goes in blocks of two chunk runs from
the same step and one commit.  The plain run steps the plain rows exactly,
one batched product plus kick per step (one batched ``invert_step``
backward) with the coefficient rows read by orbit range, and measures all its
steps with one norm call.  It reaches the first step where a plain row
vanishes, passes _BIG_NORM or fails, and its length doubles from one step up
to the chunk while the plain rows stay the same.  The scaled run reads no
coefficients and takes one product, norm and divide per step.  It reaches
the step where a row falls to the switch-back level, and ends before a
growth out of [2^-511, 2^511]; a run that starts on one takes that step
alone.  The block commits both runs at the smaller reach.  A scaled run
takes a closed form instead when three things hold: every matrix of the
walk's current read is diagonal, every row's unit vector is a signed axis
vector +-e_i, and each row's entries m = A[i, i] over the run are non-zero
with m^2 a normal float.  The product is then +-m e_i exactly, its norm
sqrt(fl(m^2)) = |m|, and the divide leaves sign(m) times the unit, so a
step's growth is one gathered |A[i, i]| and the unit's sign a running
product; the loop's unit differs at most in the signs of its zeros, which
no norm reads.  Every row is bit for bit the orbit it would trace when
walked alone, so ``conservation_experiment`` walks one block per direction.

An exponent run keeps two arrays that grow with its steps: the walk's log
norms, one float per row and step, which each ``NonlinearExponent`` views,
and the forward matrices that the QR sweep stores in the orbit segment and
the forward walk reads there again.  Everything else is bounded by a chunk
size.  The walks read their matrices, or inverses, _READ_CHUNK steps at a
time and store none (``OrbitCache.streamed_matrices``); an orbit segment
fills _FILL_CHUNK entries at a time; the sweep keeps only the running sums
its callers read; and the tail statistics read the tail of the logs when
first asked for.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cocycle import MAX_STEPS, OrbitCache, _row_norms, _scaled_row_norms
from .green import Window, WindowSequence
from .scenarios import Scenario
from .shadowing import (
    InversionError,
    Perturbation,
    ShadowingProblem,
    ShadowingResult,
    _defect_allowance,
    invert_step,
    nonlinear_orbit,
    solve,
)

__all__ = [
    "NumericalBreakdownError",
    "DegenerateOrbitError",
    "InversionError",
    "linear_exponents_qr",
    "linear_exponents_and_half",
    "backward_qr_frame",
    "NonlinearExponent",
    "nonlinear_exponent",
    "SpecialPointResult",
    "find_special_point",
    "ForwardConservationRow",
    "ConverseConservationRow",
    "ConservationReport",
    "conservation_experiment",
]

_BIG_NORM = 1e30
#: Plain norms and scaled growths outside [_TINY_NORM, _HUGE_NORM] are measured
#: again by ``_scaled_row_norms``: their squares may have left the float range.
_TINY_NORM = 2.0**-511
_HUGE_NORM = 2.0**511
_CONVERGENCE_SPREAD = 0.05
_INVERSION_TOL = 1e-13  # of each backward step of a perturbed orbit
_SPECIAL_MAX_ITER = 400  # iteration cap of the solve in find_special_point
_FRAME_STEPS = 256  # QR steps of the backward frame in conservation_experiment

#: Floats of scratch per chunk run of the walk.  A step of k rows in
#: d dimensions holds k * (d + 1) of them (the rows' directions and growths;
#: a plain run's rows take k * d more), so the chunk shortens as the block
#: widens.
_WALK_SCRATCH = 1 << 11

#: Steps per matrix read of a walk and per chunk of a QR sweep.
_READ_CHUNK = 1 << 11


class NumericalBreakdownError(RuntimeError):
    """QR factorization produced a zero diagonal entry."""


class DegenerateOrbitError(ValueError):
    """The orbit norm hit zero, so no growth exponent is defined."""


def _positive_qr(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q, r = np.linalg.qr(b)
    d = np.diagonal(r).copy()
    if np.any(d == 0.0):
        raise NumericalBreakdownError("zero diagonal entry in QR factor")
    s = np.sign(d)
    return q * s, r * s[:, None]


def _check_steps(steps: int) -> None:
    """Reject a sweep longer than MAX_STEPS before its per-step arrays are allocated."""
    if steps > MAX_STEPS:
        raise ValueError(f"steps = {steps} exceeds the limit of {MAX_STEPS}")


def _qr_loop(mats: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Repeated QR of the (N, d, d) block ``mats`` from the orthonormal ``q``
    by LAPACK: per matrix one factorization of ``m @ q``, whose R diagonal is
    kept and whose q takes its signs, then one zero test and log over all
    diagonals.  Returns the last q and the (N, d) logs of |r_ii|.  The
    positive diagonal of ``_positive_qr`` is r_ii sign(r_ii) = |r_ii| exactly,
    so these are the logs and the q of one ``_positive_qr`` per matrix."""
    diags = np.empty(mats.shape[:2])
    for k, m in enumerate(mats):
        q, r = np.linalg.qr(m @ q)
        diag = diags[k] = np.diagonal(r)
        q *= np.sign(diag)
    if not diags.all():
        raise NumericalBreakdownError("zero diagonal entry in QR factor")
    return q, np.log(np.abs(diags))


def _is_upper_triangular(mats: np.ndarray) -> bool:
    """True when no matrix of the block has a non-zero strictly-lower entry
    (one strided read per entry position, no copy of the block)."""
    dim = mats.shape[-1]
    return not any(mats[:, i, j].any() for i in range(1, dim) for j in range(i))


def _is_diagonal(mats: np.ndarray) -> bool:
    """True when no matrix of the block has a non-zero off-diagonal entry."""
    return _is_upper_triangular(mats) and _is_upper_triangular(mats.transpose(0, 2, 1))


def _triangular_q(m: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The q of the closed form after its factorization of the triangular
    ``m``, where ``signs`` is the running product of the R diagonals' signs
    through m: one factorization of m times the product before m."""
    return _positive_qr(m @ (np.eye(len(signs)) * (signs * np.sign(np.diagonal(m)))))[0]


def _qr_sweep(mats: np.ndarray, counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Repeated QR of the finite (N, d, d) block ``mats``, starting from the identity.

    Returns the last orthonormal factor and, for each k of ``counts`` (1 <=
    k <= N), the running sum of the log R diagonals over the first k
    factorizations.  The block goes in chunks of _READ_CHUNK matrices, each
    one cumulative sum that starts from the last chunk's, so the sums are
    those of one cumulative sum.  While every matrix so far is upper
    triangular, a chunk takes the closed form in the module docstring and
    carries only the signs; the first other chunk starts the loop from the
    closed form's q, bit for bit the per-step loop's, and the rest run it.
    """
    n, dim = mats.shape[0], mats.shape[-1]
    counts = np.asarray(counts, dtype=np.int64)
    sums = np.empty((len(counts), dim))
    q, signs, triangular = np.eye(dim), np.ones(dim), True
    run = np.zeros((min(n, _READ_CHUNK) + 1, dim))  # run[0]: the sums before the chunk
    for a in range(0, n, _READ_CHUNK):
        block = mats[a : a + _READ_CHUNK]
        logs = run[1 : len(block) + 1]
        if triangular and _is_upper_triangular(block):
            diag = np.diagonal(block, axis1=1, axis2=2)
            if not diag.all():
                raise NumericalBreakdownError("zero diagonal entry in QR factor")
            logs[:] = np.log(np.abs(diag))
            signs *= np.sign(diag).prod(axis=0)
        else:
            if triangular and a:
                q = _triangular_q(mats[a - 1], signs)
            triangular = False
            q, logs[:] = _qr_loop(block, q)
        part = run[: len(block) + 1]
        np.cumsum(part, axis=0, out=part)
        hit = (a < counts) & (counts <= a + len(block))
        sums[hit] = part[counts[hit] - a]
        run[0] = part[-1]
    if triangular and n:
        q = _triangular_q(mats[-1], signs)
    return q, sums


def _exponents(orbit: OrbitCache, steps: int, counts: Sequence[int]) -> list[np.ndarray]:
    """The exponents after each of ``counts`` factorizations of one sweep
    over the matrices at 0 <= n < steps, each sorted descending."""
    _check_steps(steps)
    sums = _qr_sweep(orbit.matrices(0, steps), [k for k in counts if k >= 1])[1]
    if min(counts) < 1:
        raise ValueError("steps must be positive")
    return [np.sort(s / k)[::-1] for s, k in zip(sums, counts)]


def linear_exponents_qr(orbit: OrbitCache, steps: int) -> np.ndarray:
    """Finite-time Lyapunov exponents of the linear cocycle, sorted descending.

    Repeated QR along the orbit: exponents are the averaged logs of the R
    diagonals over ``steps`` factorizations.
    """
    return _exponents(orbit, steps, (steps,))[0]


def linear_exponents_and_half(orbit: OrbitCache, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponents of ``linear_exponents_qr`` after ``steps`` and after
    ``steps // 2`` factorizations, both read off one sweep.

    The gap between the two is the lyapunov experiment's convergence column.
    """
    return tuple(_exponents(orbit, steps, (steps, steps // 2)))


def backward_qr_frame(orbit: OrbitCache, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal frame at time 0 accumulated by QR from sigma^{-steps} w.

    Returns (frame, rates): column i of the frame is the direction whose
    finite-time backward growth rate is rates[i], ordered descending.  These
    columns identify one direction per exponent for the conservation runs.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    _check_steps(steps)
    q, sums = _qr_sweep(orbit.matrices(-steps, 0), (steps,))
    rates = sums[-1] / steps
    order = np.argsort(-rates)
    return q[:, order], rates[order]


@dataclass(frozen=True)
class NonlinearExponent:
    """Tail-max surrogate of a forward or backward growth exponent.

    ``log_norms`` holds log |orbit_n| for n = 1..steps, a view of the walk's
    logs shared by the rows walked together.  The statistics read its tail
    half when first asked for: ``estimate`` is the max of (1/n) log |orbit_n|
    there (n signed for the backward direction), ``tail_min`` the
    corresponding min; ``converged`` is false when they disagree by more
    than 0.05.  ``regression_residual`` is the rms residual of a
    straight-line fit to the log norms over the tail, a convergence
    diagnostic.
    """

    direction: str
    steps: int
    log_norms: np.ndarray

    @property
    def values(self) -> np.ndarray:
        """The (steps, 2) rows (n, (1/n) log |orbit_n|), n signed backward."""
        ns = np.arange(1, self.steps + 1)
        return np.column_stack([ns, self.log_norms / self._signed(ns)])

    def _signed(self, ns: np.ndarray) -> np.ndarray:
        return ns if self.direction == "forward" else -ns

    @cached_property
    def _tail(self) -> tuple[float, float, float]:
        """(estimate, tail_min, regression_residual) over n = ceil(steps / 2)..steps."""
        first = math.ceil(self.steps / 2)
        ns = np.arange(first, self.steps + 1)
        tail = self.log_norms[first - 1:]
        fit = np.polyfit(ns, tail, 1)
        rms = float(np.sqrt(np.mean((tail - np.polyval(fit, ns))**2)))
        values = tail / self._signed(ns)  # after the fit, whose temporaries are gone
        return float(np.max(values)), float(np.min(values)), rms

    @property
    def estimate(self) -> float:
        return self._tail[0]

    @property
    def tail_min(self) -> float:
        return self._tail[1]

    @property
    def converged(self) -> bool:
        return self.estimate - self.tail_min <= _CONVERGENCE_SPREAD

    @property
    def regression_residual(self) -> float:
        return self._tail[2]


def _axis_growth(
    mats: np.ndarray, diagonal: bool, unit: np.ndarray, out: np.ndarray
) -> np.ndarray | None:
    """Closed form of a chunk run over ``mats``, or None for the loop.

    It holds when the walk's block is ``diagonal`` and each row of ``unit`` is
    a signed axis vector +-e_i.  A step's product is then +-m e_i exactly, with
    m = A[i, i], its norm is sqrt(fl(m^2)), and where m is non-zero and m^2 a
    normal float that norm is |m|, so the divide leaves sign(m) times the
    unit.  Writes the growths sqrt(m * m) into ``out`` (c, k) and returns the
    (c, k) signs of m, whose running product is the unit's sign.
    """
    if not diagonal:
        return None
    mag = np.abs(unit)
    if np.count_nonzero(unit) != len(unit) or not (mag.max(axis=1) == 1.0).all():
        return None
    axes = mag.argmax(axis=1)
    m = mats[:, axes, axes]
    with np.errstate(over="ignore", under="ignore"):
        np.sqrt(np.multiply(m, m, out=out), out=out)
    if not m.all() or not (out == np.abs(m)).all():
        return None
    return np.sign(m)


def _plain_run(
    perturbation: Perturbation,
    mats: np.ndarray,
    cs: np.ndarray,
    forward: bool,
    run: np.ndarray,
) -> tuple[np.ndarray, Exception | None]:
    """Step the plain rows run[0] (k_plain, d) by F (or F^{-1}) with the
    matrices ``mats`` and coefficient rows ``cs`` of the run's steps into
    run[1:], and measure them: the (steps, k_plain) norms of run[1:] and
    None, or those before the first step that raised, and its error.

    Numpy's overflow and invalid warnings are off, and an error is returned,
    not raised: a step past a row's switch to scaled may leave the float
    range or fail, and the walk raises the error only when it gets there.
    """
    done, error = len(mats), None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for j, (m, row) in enumerate(zip(mats, cs)):
                x = run[j]
                if forward:
                    np.add(np.matmul(m, x[:, :, None])[:, :, 0], perturbation.kick(row, x),
                           out=run[j + 1])
                else:
                    run[j + 1] = invert_step(m, perturbation, row, x, tol=_INVERSION_TOL)
        except Exception as exc:  # handed to the walk, see the docstring
            done, error = j, exc
        rows = run[1:done + 1].reshape(-1, run.shape[-1])
        norms = _row_norms(rows)
    far = np.flatnonzero((norms < _TINY_NORM) | (norms > _HUGE_NORM))
    if far.size:
        norms[far] = _scaled_row_norms(rows[far])
    return norms.reshape(done, run.shape[1]), error


def _orbit_log_norms(
    perturbation: Perturbation,
    orbit: OrbitCache,
    xs: np.ndarray,
    forward: bool,
    steps: int,
) -> np.ndarray:
    """log |orbit| of each row of xs after 1..steps applications of F (or
    F^{-1}), all rows walked in lock-step; shape (steps, k).

    Each row is plain (``vec``, stepped exactly) or scaled (``unit``, stepped
    linearly, whose log norm is the row's last logged value); a pure linear
    map starts every row scaled.  The matrices (inverses backward) come
    _READ_CHUNK steps at a time from ``OrbitCache.streamed_matrices``
    (``streamed_inverses``), none stored, and a block of at most ``chunk``
    steps (_WALK_SCRATCH floats) lies within one read.  From step n:

    - the plain run steps the plain rows from ``vec`` by ``_plain_run``, with
      the coefficient rows of ``chunk`` steps read by range at a plain step
      outside those held.  It takes at most one step more than the walk has
      taken since the plain rows last changed, so the steps computed past a
      switch are no more than the plain ones before it;
    - the scaled run steps every row's unit over the plain run's reach by
      ``_axis_growth`` or the loop, the plain rows' growths set to 1 so that
      their units reach no test and no log.

    Both commit at the smaller reach; a plain run's error is raised only
    when the commit reaches its step.  A walk that fails reads the rest of
    its range first, so a fill error anywhere in it is raised instead, as if
    the walk had read its whole range up front; of several, the first in
    walk order.  Per-row logs use math.log, whose last bit np.log does not
    always match.
    """
    _check_steps(steps)
    xs = np.asarray(xs, dtype=float)
    k, dim = xs.shape
    norms = _scaled_row_norms(xs)
    if not norms.all():
        raise DegenerateOrbitError("starting point has zero norm")
    pure_linear = perturbation.bound == 0.0

    def read(lo: int) -> tuple[np.ndarray, bool]:
        # The matrices of the steps lo <= n < lo + _READ_CHUNK, none stored,
        # and whether every one of them is diagonal.
        hi = min(lo + _READ_CHUNK, steps)
        if forward:
            mats = orbit.streamed_matrices(lo, hi)
        else:
            mats = orbit.streamed_inverses(-hi, -lo)[::-1]
        return mats, _is_diagonal(mats)

    # The first read comes before the walk's arrays, so that the temporaries
    # of its fill do not add to them.
    mats, diagonal = read(0)
    m_lo, m_hi = 0, len(mats)  # mats[j] is the matrix of step m_lo + j
    # A scaled row falls back to plain below log_low, never under a linear map.
    log_low = -math.inf if pure_linear else math.log(_BIG_NORM) - 2.0
    chunk = max(1, min(steps, _WALK_SCRATCH // (k * (dim + 1))))
    # units[j + 1] holds the rows' directions after step j of a scaled run,
    # growth[j] the norms they were divided by; units[0] is the current one.
    units = np.empty((chunk + 1, k, dim, 1))
    units_t = units.transpose(0, 1, 3, 2)
    growth = np.empty((chunk, k, 1, 1))
    unit = units[0, :, :, 0]
    unit[:] = xs / norms[:, None]
    vec = xs.copy()
    scratch = np.empty((chunk + 1) * k * dim)  # the plain runs' buffer
    logs = np.empty((steps + 1, k))  # logs[n]: the log norms after n steps
    logs[0] = [math.log(v) for v in norms.tolist()]
    scaled = np.full(k, pure_linear)
    cs, cs_lo = np.empty(0), 0  # cs[j] is the coefficient row of step cs_lo + j
    n = since = 0  # since: the step where the plain rows last changed
    try:
        while n < steps:
            if n == m_hi:
                mats, diagonal = read(n)
                m_lo, m_hi = n, n + len(mats)
            here = mats[n - m_lo:]
            plain = np.flatnonzero(~scaled)
            reach, fail = min(chunk, m_hi - n), None
            if len(plain):
                if not cs_lo <= n < cs_lo + len(cs):
                    cs_lo, hi = n, min(n + chunk, steps)
                    ns = np.arange(n, hi) if forward else np.arange(-hi, -n)
                    cs = orbit.evaluate(perturbation.coefficients, ns, "coefficients")
                    cs = cs if forward else cs[::-1]
                j = n - cs_lo
                reach = min(reach, len(cs) - j, n - since + 1)
                run = scratch[:(reach + 1) * len(plain) * dim].reshape(reach + 1, -1, dim)
                run[0] = vec[plain]
                run_norms, fail = _plain_run(perturbation, here[:reach], cs[j:j + reach],
                                             forward, run)
                reach = len(run_norms) + (fail is not None)
                hit = np.flatnonzero(((run_norms == 0.0) | (run_norms > _BIG_NORM)).any(axis=1))
                if hit.size:
                    reach = int(hit[0]) + 1
                    fail = None if run_norms[reach - 1].all() else DegenerateOrbitError(
                        f"orbit norm vanished after {n + reach} steps")
            c = reach
            if len(plain) < k:
                grown = growth[:c, :, 0, 0]
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    signs = _axis_growth(here[:c], diagonal, unit, grown)
                    if signs is None:
                        for m, u, w, wt, g in zip(here, units, units[1:], units_t[1:], growth[:c]):
                            np.matmul(m, u, out=w)
                            np.sqrt(np.matmul(wt, w, out=g), out=g)
                            np.divide(w, g, out=w)
                    grown[:, plain] = 1.0
                    if not _TINY_NORM <= grown.min() <= grown.max() <= _HUGE_NORM:
                        inside = (grown >= _TINY_NORM) & (grown <= _HUGE_NORM)
                        c = int(np.argmin(inside.all(axis=1)))
                    if not c:  # a step out of the band, taken alone
                        signs, c = None, 1
                        w = np.matmul(here[0], units[0], out=units[1])
                        grown[0] = np.where(scaled, _scaled_row_norms(w[:, :, 0]), 1.0)
                        if not grown[0].all():
                            raise DegenerateOrbitError("scaled orbit direction collapsed")
                        np.divide(w, growth[0], out=w)
                block = logs[n:n + c + 1]
                block[1:] = np.reshape(list(map(math.log, grown[:c].ravel().tolist())),
                                       (c, k))
                np.cumsum(block, axis=0, out=block)
                low = np.flatnonzero(((block[1:] < log_low) & scaled).any(axis=1))
                if len(low):
                    c = int(low[0]) + 1
            if fail is not None and c == reach:
                raise fail
            # The commit of both runs at step n + c.
            if len(plain) < k:
                if signs is None:
                    units[0] = units[c]
                else:
                    unit *= signs[:c].prod(axis=0)[:, None]
            if len(plain):
                vec[plain] = run[c]
                logs[n + 1:n + c + 1, plain] = np.reshape(
                    list(map(math.log, run_norms[:c].ravel().tolist())), (c, len(plain)))
                last = run_norms[c - 1]
                big = last > _BIG_NORM
                unit[plain[big]] = vec[plain[big]] / last[big, None]
                scaled[plain[big]] = True
            n += c
            back = np.flatnonzero(scaled & (logs[n] < log_low))
            for i in back.tolist():
                vec[i] = unit[i] * math.exp(logs[n, i])
            scaled[back] = False
            if len(back) or scaled[plain].any():
                since = n
    except Exception:
        if n < m_hi:  # a walk error: a fill error further on is raised first
            for lo in range(m_hi, steps, _READ_CHUNK):
                read(lo)
        raise
    return logs[1:]


def nonlinear_exponent(
    orbit: OrbitCache,
    perturbation: Perturbation,
    xs: np.ndarray,
    direction: str,
    steps: int,
) -> list[NonlinearExponent]:
    """Forward or backward growth exponents of the perturbed orbits through
    the rows of the (k, d) block xs, one per row, walked together."""
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    if steps < 4:
        raise ValueError("steps must be at least 4")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != orbit.dim:
        raise ValueError(f"xs must be a (k, {orbit.dim}) block of starting points")
    if not len(xs):
        return []
    walks = _orbit_log_norms(perturbation, orbit, xs, direction == "forward", steps)
    return [NonlinearExponent(direction, steps, logs) for logs in walks.T]


@dataclass(frozen=True)
class SpecialPointResult:
    """The initial condition whose perturbed orbit shadows the zero sequence."""

    point: np.ndarray
    orbit: WindowSequence
    result: ShadowingResult
    bound_ok: bool


def find_special_point(
    prob: ShadowingProblem,
    *,
    tol: float = 1e-10,
) -> SpecialPointResult:
    """Shadow the zero sequence and return the time-0 point of the result.

    Requires the perturbation to carry a uniform bound not exceeding
    delta(n) / (4 K(sigma^n w)) on the window; the zero sequence is then an
    admissible pseudo-orbit for the halved weights, and ``bound_ok`` is the
    solve's check that the returned orbit satisfies |x_n| <= L delta(n) / 2.
    """
    pert = prob.perturbation
    if pert.bound is None:
        raise ValueError("perturbation must declare a uniform bound")
    win = prob.window
    allowed = 0.5 * float(np.min(_defect_allowance(prob.orbit, prob.weights)))
    if pert.bound > allowed * (1 + 1e-12):
        raise ValueError(
            f"perturbation bound {pert.bound:.3e} exceeds delta/(4K) = {allowed:.3e}"
        )
    zero_prob = replace(
        prob,
        pseudo_orbit=WindowSequence.zeros(win, prob.orbit.dim),
        weights=prob.weights.scaled(0.5),
    )
    res = solve(zero_prob, tol=tol, max_iter=_SPECIAL_MAX_ITER)
    return SpecialPointResult(
        point=res.orbit.value_at(0).copy(),
        orbit=res.orbit,
        result=res,
        bound_ok=res.shadow_ok,
    )


@dataclass(frozen=True)
class ForwardConservationRow:
    index: int
    target: float
    direction: str
    measured: float
    gap: float
    passed: bool


@dataclass(frozen=True)
class ConverseConservationRow:
    sample: int
    forward: float
    backward: float
    matched: float | None
    gap: float
    passed: bool


@dataclass(frozen=True)
class ConservationReport:
    linear_exponents: np.ndarray
    forward_rows: tuple[ForwardConservationRow, ...]
    converse_rows: tuple[ConverseConservationRow, ...]
    special_point: np.ndarray
    steps: int
    tolerance: float
    all_passed: bool


def conservation_experiment(
    scenario: Scenario,
    steps: int,
    sample_count: int,
    *,
    window_half: int = 32,
    seed: int = 0,
    tolerance: float = 0.02,
    solver_tol: float = 1e-10,
) -> ConservationReport:
    """Match linear exponents against perturbed-orbit exponents both ways.

    Forward direction: for each linear exponent, the linear orbit along its
    QR-identified direction is shadowed by a true perturbed orbit, and the
    sign of the exponent selects which of the forward/backward exponents of
    that orbit must reproduce it.  Converse direction: random points away
    from the special point must have at least one of their two exponents
    matching some linear exponent.  Each direction is one lock-step walk over
    the forward rows it measures and every sample.
    """
    if not isinstance(scenario, Scenario):
        raise TypeError(f"scenario must be a Scenario, not {type(scenario).__name__}")
    if sample_count < 0:
        raise ValueError("sample count must be nonnegative")
    if not tolerance >= 0:
        raise ValueError("tolerance must be nonnegative")
    rng = np.random.default_rng(seed)
    dim = scenario.cocycle.dim
    orbit = scenario.orbit()
    window = Window.symmetric(window_half)
    weights = scenario.default_weights(window)

    # The frame's matrices first: the sweep's then extend their block by the
    # sweep's length, where the other order would double the sweep's block.
    frame, _ = backward_qr_frame(orbit, steps=min(steps, _FRAME_STEPS))
    lin = linear_exponents_qr(orbit, steps=steps)

    linear = Perturbation.zero(dim)
    starts = np.empty((dim, dim))
    for i in range(dim):
        pseudo = nonlinear_orbit(orbit, linear, frame[:, i], window)
        starts[i] = solve(scenario.problem(pseudo, weights), tol=solver_tol).orbit.value_at(0)

    special = find_special_point(
        scenario.problem(WindowSequence.zeros(window, dim), weights),
        tol=solver_tol,
    )

    xs = np.empty((sample_count, dim))
    for s in range(sample_count):
        while True:
            x = rng.standard_normal(dim)
            if np.linalg.norm(x - special.point) > 0.1:
                break
        xs[s] = x

    # One walk per direction: the starts of the forward rows whose exponent's
    # sign selects that direction, then every sample.
    directions = ["forward" if t > 0 else "backward" for t in lin]
    measured, sampled = {}, {}
    for direction in ("forward", "backward"):
        rows = [i for i in range(dim) if directions[i] == direction]
        exps = [e.estimate for e in nonlinear_exponent(
            orbit, scenario.perturbation, np.vstack([starts[rows], xs]), direction, steps=steps
        )]
        measured.update(zip(rows, exps))
        sampled[direction] = exps[len(rows):]

    forward_rows = []
    for i, (target, direction) in enumerate(zip(lin, directions)):
        gap = float(abs(measured[i] - target))
        forward_rows.append(ForwardConservationRow(
            i, float(target), direction, measured[i], gap, bool(gap <= tolerance)
        ))
    converse_rows = []
    for s, (fwd, bwd) in enumerate(zip(sampled["forward"], sampled["backward"])):
        gaps = np.array([min(abs(fwd - t), abs(bwd - t)) for t in lin])
        best = int(np.argmin(gaps))
        matched = float(lin[best]) if gaps[best] <= tolerance else None
        converse_rows.append(
            ConverseConservationRow(s, fwd, bwd, matched, float(gaps[best]),
                                    matched is not None)
        )

    all_passed = all(r.passed for r in forward_rows) and all(
        r.passed for r in converse_rows
    )
    return ConservationReport(
        linear_exponents=lin,
        forward_rows=tuple(forward_rows),
        converse_rows=tuple(converse_rows),
        special_point=special.point,
        steps=steps,
        tolerance=tolerance,
        all_passed=all_passed,
    )
