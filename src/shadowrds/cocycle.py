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
sups the tail is zero and the truncated value is certified exact.  The
truncation is part of the dichotomy data: N is its ``horizon``, and with a
zero margin, where no tail bound exists, its ``allow_uncertified`` flag is
the consent to truncate anyway.

Adapted norms have one kernel, ``_adapted_norm_parts(orbit, ns, xs)``: row i
of an (m, d) block is measured at orbit index ns[i], indices in any order and
repeated at will.  It reads the one-step maps once over the span of ns.
Where every index holds the same number k >= 2 of rows (stacked windows,
many vectors at one point), it sorts the rows into index-major (indices, k,
d) grids, and each horizon step applies the maps with one dgemv per index
and output component for all k rows (``_apply_shared``); rows of unequal
counts, and one row per index (k = 1), take one product per row.  Each step
selects its maps with one index, a slice for consecutive indices, and a
chunk walks the horizon in blocks of as many steps as _NORM_SCRATCH holds.
Each row is measured scaled by the power of two of its largest absolute
entry and the results scaled back (``_scaled``, the one rule of every
overflow-safe measure here, ``_scaled_row_norms`` included), so finite
vectors across the float range get finite, non-zero norms, and rows in range
keep their unscaled bytes.  ``adapted_norm`` and ``check_norm_equivalence``
are one-row calls of batched forms; the n-step contraction check is only
batched (``check_one_step_contraction_rows``: one masked ``_apply_shared``
per step, one kernel call for all three norms).

Every function that works along one orbit sigma^n w takes that orbit segment,
an ``OrbitCache``, as its first argument: the segment carries the system, the
base point w and the dichotomy data, and holds what is evaluated along it in
blocks read by index range (matrices, inverses, projectors, bounds and the
one-step maps); a single entry is a one-index range read.  A generator,
projector or bound may be a ``RangeMap``, which carries its orbit-range
form: the segment then fills a whole index range with one call instead of
one call per point.  ``OrbitCache.evaluate`` reads every scenario callable,
perturbation coefficients included, either way, and stacks and checks the
values with one routine, ``_stacked``.  A streamed read stores nothing: it
is a view of held entries or one fresh fill of its range, never a mix.
Tempered envelopes read K from the segment too: the envelope along an orbit
is one range read of its bounds.

Cocycle matrices have one product loop, ``_products``: the running
products of a stack of factors onto a start matrix.  ``_cocycle_at(orbit, m,
n)`` is A(sigma^m w, n) read off the orbit's own matrices or inverses, so
the composition law needs no second segment; ``cocycle_eval(orbit, n)`` is
its m = 0 case.  The checks' projector and dichotomy products use the same
loop.  A product beyond the float range raises ValueError naming the first
step whose product is not finite; finite products keep their bytes.

Vector iterations along the stable (resp. unstable) direction re-apply the
projector at every step.  This is deliberate: round-off seeds a tiny
component in the complementary subspace, which hyperbolicity then amplifies
exponentially; the re-projection keeps that contamination at round-off level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .driving import BasePoint, DrivingSystem, step

__all__ = [
    "COND_LIMIT",
    "SingularityError",
    "UncertifiedTruncationError",
    "RangeMap",
    "CocycleSystem",
    "DichotomyData",
    "TemperedEnvelope",
    "OrbitCache",
    "cocycle_eval",
    "AdaptedNorm",
    "adapted_norm",
    "NormEquivalenceReport",
    "check_norm_equivalence",
    "check_norm_equivalence_rows",
    "OneStepContractionReport",
    "check_one_step_contraction_rows",
    "envelope_along_orbit",
    "build_envelope",
    "operator_norm",
]

#: Generator matrices with a 2-norm condition number above this are rejected.
COND_LIMIT = 1e12

#: Largest step count of a cocycle evaluation or of a per-step sweep along an orbit.
MAX_STEPS = 10**6


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
class RangeMap:
    """A scenario callable that carries its orbit-range form.

    ``RangeMap(at, along)(point)`` is ``at(point)``, the value at one point;
    ``along(omega, ns)`` stacks the values at sigma^n omega for an ascending
    int64 array ns along a leading axis, equal bit for bit to the per-point
    values.  ``OrbitCache.evaluate`` reads a generator, projector, bound or
    perturbation coefficients that is a RangeMap with one ``along`` call, and
    any other callable once per point.
    """

    at: Callable[[BasePoint], object]
    along: Callable[[BasePoint, np.ndarray], np.ndarray]

    def __call__(self, point: BasePoint):
        return self.at(point)


#: Messages of a scenario callable's value of the wrong shape.
_WRONG_SHAPE = {
    "generator": "generator returned shape {}, expected {}",
    "projector": "projector has wrong shape",
    "bound": "dichotomy bound K has wrong shape",
    "perturbation": "perturbation returned shape {}, expected {}",
}


def _stacked(values, ns: np.ndarray, shape: tuple[int, ...] | None, name: str) -> np.ndarray:
    """A scenario callable's values at the orbit indices ns, a range form's
    array or a list of per-point values, as one float array of shape
    (len(ns),) + shape (None: any).  Rows of one wrong shape raise the
    ValueError that ``name`` selects in ``_WRONG_SHAPE``, rows of unequal
    shapes numpy's; a wrong row count names the whole shape."""
    values = np.asarray(values, dtype=float)
    if shape is not None and values.shape[1:] != shape:
        raise ValueError(_WRONG_SHAPE[name].format(values.shape[1:], shape))
    if values.shape[:1] != ns.shape:
        raise ValueError(f"{name} range form returned shape {values.shape} for {ns.size} indices")
    return values


@dataclass(frozen=True)
class CocycleSystem:
    """Generator map w -> A(w) of d x d matrices over a driving system."""

    dim: int
    generator: Callable[[BasePoint], np.ndarray]
    base: DrivingSystem

    def matrix(self, point: BasePoint) -> np.ndarray:
        """The generator at one point.  ``OrbitCache`` checks the shape,
        finiteness and conditioning of what it reads, once per fill."""
        return self.generator(point)


def _check_invertible(mats: np.ndarray, ns: np.ndarray) -> None:
    """Reject the first matrix of a stack (at orbit indices ``ns``) that is
    non-finite or whose condition number exceeds COND_LIMIT.

    A finite matrix B is admitted without an SVD when the bound
    d/2 log |B|_F^2 - log |det B| <= log(COND_LIMIT / 4) holds: with
    sigma_min >= |det B| / sigma_max^(d-1) and sigma_max <= |B|_F it is at
    least log cond_2(B), and the factor 4 covers the round-off of both
    sides.  B is scaled first by the power of two of its largest |entry|
    (the rule of ``_scaled``), so neither side leaves the float range.
    Every other matrix takes the ``np.linalg.cond`` test.
    """
    dim = mats.shape[1]
    finite = np.isfinite(mats).all(axis=(1, 2))
    safe = mats if finite.all() else np.where(finite[:, None, None], mats, np.eye(dim))
    _, exps = np.frexp(np.max(np.abs(safe), axis=(1, 2)))
    unit = np.ldexp(safe, -exps[:, None, None])
    sign, logdet = np.linalg.slogdet(unit)
    squares = np.einsum("nij,nij->n", unit, unit)
    with np.errstate(divide="ignore", invalid="ignore"):  # only a zero matrix
        bound = 0.5 * dim * np.log(squares) - logdet
    rest = np.flatnonzero(~(finite & (sign != 0) & (bound <= math.log(COND_LIMIT / 4))))
    if not rest.size:
        return
    conds = np.linalg.cond(safe[rest])
    bad = np.flatnonzero(~(finite[rest] & (conds <= COND_LIMIT)))
    if bad.size:
        i = int(rest[bad[0]])
        if not finite[i]:
            raise ValueError("generator returned non-finite entries")
        n = int(ns[i])
        raise SingularityError(
            f"generator matrix at orbit index {n} has condition number {conds[bad[0]]:.3e}"
            f" (limit {COND_LIMIT:.0e})",
            index=n,
        )


@dataclass(frozen=True)
class DichotomyData:
    """Projector family, contraction rate, strictness margin, bound, and the
    adapted-norm truncation: horizon N and consent to an uncertified tail."""

    projector: Callable[[BasePoint], np.ndarray]
    rate: float
    margin: float
    bound: Callable[[BasePoint], float]
    horizon: int
    allow_uncertified: bool = False

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("dichotomy rate must be positive")
        if self.margin < 0:
            raise ValueError("strictness margin must be nonnegative")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


#: A read that would stretch an orbit segment's block past this many
#: consecutive indices starts a new block instead.
_SPAN_LIMIT = 4 * MAX_STEPS

#: Indices per fill of a block read: whatever its length, a read holds fill
#: temporaries of at most this many entries.
_FILL_CHUNK = 1 << 11

_Fill = Callable[[np.ndarray], np.ndarray]  # a block's values at ascending orbit indices


class _Block:
    """Values of one trailing shape by orbit index n in one read-only array
    over lo <= n < lo + len(data); ``filled`` marks the entries with a value.

    The array grows at either end by at least its own length, so reads that
    creep along the orbit one index at a time cost amortized O(1) copying.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.lo = 0
        self.data = np.empty((0,) + shape)
        self.filled = np.zeros(0, dtype=bool)

    def read(self, n_lo: int, n_hi: int, fill: _Fill) -> np.ndarray:
        """The values for n_lo <= n < n_hi as a read-only view; ``fill(ns)``
        evaluates the ascending indices ns there that have no value yet, one
        _FILL_CHUNK range of them after the other, ascending, each stored
        before the next is evaluated."""
        if n_hi <= n_lo:
            return self.data[:0]
        self._cover(n_lo, n_hi)
        i, j = n_lo - self.lo, n_hi - self.lo
        if self.filled[i:j].all():  # most reads find every entry held
            return self.data[i:j]
        for a in range(i, j, _FILL_CHUNK):
            missing = a + np.flatnonzero(~self.filled[a : min(a + _FILL_CHUNK, j)])
            if missing.size:
                values = fill(self.lo + missing)
                self.data.flags.writeable = True
                self.data[missing] = values
                self.data.flags.writeable = False
                self.filled[missing] = True
        return self.data[i:j]

    def peek(self, n_lo: int, n_hi: int, fill: _Fill) -> np.ndarray:
        """The values for n_lo <= n < n_hi, none stored: a read-only view
        where every one is held, else ``fill`` of the whole range."""
        i, j = n_lo - self.lo, n_hi - self.lo
        if 0 <= i and j <= len(self.filled) and self.filled[i:j].all():
            return self.data[i:j]
        return fill(np.arange(n_lo, n_hi))

    def _cover(self, n_lo: int, n_hi: int) -> None:
        lo, size = self.lo, len(self.filled)
        hi = lo + size
        if lo <= n_lo and n_hi <= hi:
            return
        # Grow by the current length, within _SPAN_LIMIT; a request too far
        # from what is held drops it and starts over at the request.
        slack = min(size, (_SPAN_LIMIT - (max(n_hi, hi) - min(n_lo, lo))) // 2)
        keep = size > 0 and slack >= 0
        if keep:
            new_lo = min(n_lo, lo - slack) if n_lo < lo else lo
            new_hi = max(n_hi, hi + slack) if n_hi > hi else hi
        else:
            new_lo, new_hi = n_lo, n_hi
        data = np.empty((new_hi - new_lo,) + self.data.shape[1:])
        filled = np.zeros(new_hi - new_lo, dtype=bool)
        if keep:
            data[lo - new_lo : hi - new_lo] = self.data
            filled[lo - new_lo : hi - new_lo] = self.filled
        data.flags.writeable = False
        self.lo, self.data, self.filled = new_lo, data, filled


def _at(read: Callable[[int, int], np.ndarray], ns: np.ndarray) -> np.ndarray:
    """Rows at the orbit indices ns (any order, repeats allowed) of a range
    read over their span."""
    if not ns.size:
        return read(0, 0)
    lo = int(ns.min())
    return read(lo, int(ns.max()) + 1)[ns - lo]


class OrbitCache:
    """The orbit segment sigma^n w and everything evaluated along it.

    An orbit belongs to one (system, base point, dichotomy) and is the only
    orbit argument of every function that works along an orbit, so those
    functions cannot mix data of two orbits.  An orbit built without
    dichotomy data serves every function that needs none; the others raise
    ValueError for it.

    Six range reads return read-only views for n_lo <= n < n_hi, each of one
    contiguous block per segment: ``matrices`` A_n = A(sigma^n w),
    ``inverses`` A_n^{-1}, ``projectors`` P_n, ``bounds`` K_n (shape (m,);
    the others are (m, d, d)), ``stable_maps`` P_{n+1} A_n and
    ``unstable_maps`` (I - P_n) A_n^{-1}, which step stable vectors from n to
    n+1 and unstable ones from n+1 to n.  ``matrix(n)``, ``inverse(n)``,
    ``projector(n)`` and ``bound(n)`` are their one-index reads.  A read
    fills only its missing entries, in chunks of _FILL_CHUNK indices,
    ascending: per chunk one ``evaluate`` of the generator, projector or
    bound, then the finiteness and COND_LIMIT check over new matrices (one
    stacked determinant certificate, ``np.linalg.cond`` only for the
    matrices it does not admit; a SingularityError names the lowest bad
    index of the chunk, and so of the read), the K > 0 check over new
    bounds, and one stacked ``np.linalg.inv`` or ``np.matmul`` for inverses
    and maps.  A read more than _SPAN_LIMIT indices away from a block
    replaces it.  Base points are not stored: ``point(n)`` computes
    sigma^n w, an exact step.

    A segment keeps every entry it fills, in one array per block, until it
    is dropped.  ``streamed_matrices`` reads without storing: a view where
    the segment holds every entry of the range, else the whole range
    evaluated and checked as one fill.  ``streamed_inverses`` inverts that
    read and touches no inverse block.  A long walk holds one streamed read
    at a time.
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
        square = self._square = (system.dim, system.dim)
        self._mats, self._invs, self._projs = _Block(square), _Block(square), _Block(square)
        self._stable_maps, self._unstable_maps = _Block(square), _Block(square)
        self._bounds = _Block(())

    @property
    def dim(self) -> int:
        return self.system.dim

    def point(self, n: int) -> BasePoint:
        return step(self.system.base, self.omega, n)

    def require_dichotomy(self) -> DichotomyData:
        """The orbit's dichotomy data; ValueError when it was built without."""
        if self.dichotomy is None:
            raise ValueError("cache was built without dichotomy data")
        return self.dichotomy

    def evaluate(self, fn: Callable, ns: np.ndarray, name: str,
                 shape: tuple[int, ...] | None = None, at: Callable | None = None) -> np.ndarray:
        """The values of a scenario callable at the ascending orbit indices ns,
        stacked and checked by ``_stacked``: one ``along`` call for a
        ``RangeMap``, else one call per point (through ``at`` when given).  No
        indices make no call."""
        if not ns.size:
            return np.empty(ns.shape + (shape or ()))
        if isinstance(fn, RangeMap):
            values = fn.along(self.omega, ns)
        else:
            at, base = fn if at is None else at, self.system.base
            values = [at(step(base, self.omega, n)) for n in ns.tolist()]
        return _stacked(values, ns, shape, name)

    def _fill_matrices(self, ns: np.ndarray) -> np.ndarray:
        generator = self.system.generator
        mats = self.evaluate(generator, ns, "generator", self._square, at=self.system.matrix)
        _check_invertible(mats, ns)
        return mats

    def _fill_inverses(self, ns: np.ndarray) -> np.ndarray:
        return np.linalg.inv(_at(self.matrices, ns))

    def _fill_projectors(self, ns: np.ndarray) -> np.ndarray:
        return self.evaluate(self.require_dichotomy().projector, ns, "projector", self._square)

    def _fill_bounds(self, ns: np.ndarray) -> np.ndarray:
        ks = self.evaluate(self.require_dichotomy().bound, ns, "bound", ())
        if not np.all(ks > 0):  # NaN fails too
            raise ValueError("dichotomy bound K must be positive")
        return ks

    def _fill_stable_maps(self, js: np.ndarray) -> np.ndarray:
        return np.matmul(_at(self.projectors, js + 1), _at(self.matrices, js))

    def _fill_unstable_maps(self, js: np.ndarray) -> np.ndarray:
        return np.matmul(np.eye(self.dim) - _at(self.projectors, js), _at(self.inverses, js))

    def matrices(self, n_lo: int, n_hi: int) -> np.ndarray:
        return self._mats.read(n_lo, n_hi, self._fill_matrices)

    def inverses(self, n_lo: int, n_hi: int) -> np.ndarray:
        return self._invs.read(n_lo, n_hi, self._fill_inverses)

    def projectors(self, n_lo: int, n_hi: int) -> np.ndarray:
        return self._projs.read(n_lo, n_hi, self._fill_projectors)

    def bounds(self, n_lo: int, n_hi: int) -> np.ndarray:
        return self._bounds.read(n_lo, n_hi, self._fill_bounds)

    def stable_maps(self, j_lo: int, j_hi: int) -> np.ndarray:
        return self._stable_maps.read(j_lo, j_hi, self._fill_stable_maps)

    def unstable_maps(self, j_lo: int, j_hi: int) -> np.ndarray:
        return self._unstable_maps.read(j_lo, j_hi, self._fill_unstable_maps)

    def streamed_matrices(self, n_lo: int, n_hi: int) -> np.ndarray:
        """``matrices(n_lo, n_hi)`` with nothing stored: a view where the
        segment holds every entry, else the whole range evaluated and checked
        as one fill."""
        return self._mats.peek(n_lo, n_hi, self._fill_matrices)

    def streamed_inverses(self, n_lo: int, n_hi: int) -> np.ndarray:
        """``inverses(n_lo, n_hi)`` with nothing stored: the inverses of
        ``streamed_matrices(n_lo, n_hi)``, in a new array."""
        return np.linalg.inv(self.streamed_matrices(n_lo, n_hi))

    def matrix(self, n: int) -> np.ndarray:
        return self.matrices(n, n + 1)[0]

    def inverse(self, n: int) -> np.ndarray:
        return self.inverses(n, n + 1)[0]

    def projector(self, n: int) -> np.ndarray:
        return self.projectors(n, n + 1)[0]

    def bound(self, n: int) -> float:
        return float(self.bounds(n, n + 1)[0])

    def apply(self, n_lo: int, xs: np.ndarray) -> np.ndarray:
        """Rows A(sigma^{n_lo + i} w) xs_i of an (m, d) array, as one batched product."""
        mats = self.matrices(n_lo, n_lo + len(xs))
        return np.matmul(mats, xs[:, :, None])[:, :, 0]


def _products(factors: np.ndarray, p: np.ndarray, sign: int = 1) -> Iterator[np.ndarray]:
    """Running products p_k = factors[k - 1] @ p_{k - 1}, k >= 1, of a factor stack onto p_0 = p.

    Only the last product is checked: when it is not finite (a product past
    the float range stays so under invertible factors), the steps are
    replayed and ValueError names the first non-finite one, k, as sign * k.
    """
    start = p
    for a in factors:
        p = a @ p
        yield p
    if not np.isfinite(p).all():
        k = next(k for k, q in enumerate(_products(factors, start), 1) if not np.isfinite(q).all())
        raise ValueError(f"cocycle product leaves the float range at step n = {sign * k}")


def _cocycle_at(orbit: OrbitCache, m: int, n: int) -> np.ndarray:
    """A(sigma^m w, n) off the orbit's own matrices A_m, ..., or for n < 0 its inverses."""
    factors = orbit.matrices(m, m + n) if n >= 0 else orbit.inverses(m + n, m)[::-1]
    out = np.eye(orbit.dim)
    for out in _products(factors, out, 1 if n >= 0 else -1):  # ends on the last product
        pass
    return out


def cocycle_eval(orbit: OrbitCache, n: int) -> np.ndarray:
    """Evaluate the n-step cocycle matrix A(w, n) at the orbit's base point, |n| <= MAX_STEPS.

    Satisfies A(w, 0) = Id exactly and the composition law
    A(w, n + m) = A(sigma^m w, n) A(w, m).  One product per step, with O(1)
    extra memory.  Where a product leaves the float range, ValueError names
    the first such step n (numpy warns of the overflow first).
    """
    n = int(n)
    if abs(n) > MAX_STEPS:
        raise ValueError(f"cocycle step count limited to |n| <= {MAX_STEPS}")
    return _cocycle_at(orbit, 0, n)


@dataclass(frozen=True)
class AdaptedNorm:
    """Truncated adapted norm with its certified enclosure.

    The untruncated norm lies in [value, value + tail] when ``certified`` is
    true.  With a zero margin no tail bound exists; the dichotomy must opt in
    via ``allow_uncertified`` and the tail is reported as inf.  In the report
    of a batched check every field but ``certified`` holds one entry per row.
    """

    value: float
    tail: float
    certified: bool
    stable_part: float
    unstable_part: float


_EQUIVALENCE_SLACK = 1e-9  # relative, in check_norm_equivalence
_CONTRACTION_SLACK = 1e-9  # relative to max(1, rhs), in check_one_step_contraction_rows

#: Floats of scratch per chunk of the adapted-norm kernel.  A chunk of r rows,
#: r <= _NORM_SCRATCH / (2 d), walks the horizon in blocks of p steps that
#: hold (p + 1) * r * d of them, p as large as fits, at most the horizon.
_NORM_SCRATCH = 1 << 15


def _scaled(measure: Callable, xs: np.ndarray) -> np.ndarray:
    """``measure`` of the rows of xs, each scaled by the power of two of its
    largest |entry|, with every result scaled back.

    ``measure(block)`` returns an array whose last axis runs over the rows of
    ``block`` and is homogeneous of degree one in each row.  A scaled row's
    largest |entry| lies in [0.5, 1), so its squares neither overflow nor
    underflow to zero; scaling by a power of two is exact, so a row in range
    keeps the bytes of its unscaled measure.  Zero and non-finite rows are
    measured as they are.
    """
    _, exps = np.frexp(np.max(np.abs(xs), axis=1))
    return np.ldexp(measure(np.ldexp(xs, -exps[:, None])), exps)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (m, d) array, bit for bit equal to
    ``np.linalg.norm`` of that row (``np.linalg.norm(rows, axis=1)`` is not)."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]))[:, 0, 0]


def _scaled_row_norms(rows: np.ndarray) -> np.ndarray:
    """``_row_norms``, overflow- and underflow-safe (``_scaled``)."""
    return _scaled(_row_norms, rows)


#: Vectors shorter than this are summed in index order by numpy's reductions
#: and by OpenBLAS's dgemv, whatever the number of outputs; longer ones are
#: split across vector lanes, by dgemv according to its output count.
_SHORT = 8


def _apply_shared(maps: np.ndarray, vs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[..., r, :] = maps @ vs[..., r, :] for an index-major block: maps of
    shape (..., d, d), vs and out of shape (..., k, d), out apart from vs.

    Equal bit for bit to one (d, d) @ (d, 1) product per row.  At d = 1 that
    is a dot of one term, 0.0 + x * y (a -0.0 product gives 0.0), done for
    all rows at once.  For k >= 2 and d < _SHORT, d calls ``np.matmul(vs,
    maps[..., c, :, None])``, each one dgemv with k outputs per index.  Else
    the per-row products themselves: at k = 1 a (1, d) @ (d,) product would
    go to dot, which rounds differently.
    """
    k, d = vs.shape[-2:]
    if d == 1:
        np.add(np.multiply(vs, maps, out=out), 0.0, out=out)
    elif 1 < k and d < _SHORT:
        for c in range(d):
            np.matmul(vs, maps[..., c, :, None], out=out[..., c : c + 1])
    else:
        np.matmul(maps[..., None, :, :], vs[..., None], out=out[..., None])
    return out


def _row_grid(at: np.ndarray, capacity: int, d: int) -> tuple[np.ndarray | None, int]:
    """The kernel's row order (None: as given) and rows per index w.

    Where every index in ``at`` holds the same w rows, 2 <= w <= capacity and
    d < _SHORT, the rows are sorted by index (stably) for ``_apply_shared``
    to share each index's maps among them.  Elsewhere w is 1: rows of
    unequal counts would need padding, which costs more than it saves.
    """
    counts = np.bincount(at)
    counts = counts[counts > 0]
    w = int(counts[0])
    if 1 < w <= capacity and d < _SHORT and (counts == w).all():
        return np.argsort(at, kind="stable"), w
    return None, 1


def _adapted_norm_parts(
    orbit: OrbitCache, ns: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stable and unstable parts of the truncated adapted norms of many vectors.

    Row i of ``xs`` (shape (m, d)) is measured at orbit index ``ns[i]``;
    indices may repeat and come in any order.  The stable and unstable maps
    and the projectors are read once over the span of ``ns``.  The rows are
    cut into chunks of whole indices, index-major (indices, w, d) grids with
    w from ``_row_grid``, and a chunk walks the horizon in blocks whose
    planes fit in _NORM_SCRATCH (see there).  Each step k selects the maps
    at the chunk's indices + k (resp. - k - 1) with one index, a slice where
    they are consecutive, and applies them with ``_apply_shared``.  The
    norms are taken once per block, in place: squares added plane by plane,
    square root, weights e^{lam k} formed by repeated multiplication, max
    over k.  Every row is measured scaled by the power of two of its largest
    absolute entry (``_scaled``), so every finite row gets a finite, non-zero
    result unless the norm itself exceeds the float range.
    """
    dich = orbit.require_dichotomy()
    horizon = dich.horizon
    mu = dich.margin
    if mu <= 0 and not dich.allow_uncertified:
        raise UncertifiedTruncationError(
            "strictness margin is zero: adapted-norm truncation cannot be"
            " certified (set DichotomyData.allow_uncertified to override)"
        )
    ns = np.asarray(ns, dtype=np.int64)
    xs = np.asarray(xs, dtype=float)
    m, d = xs.shape
    if ns.shape != (m,):
        raise ValueError("one orbit index per row is required")
    if not m:
        return np.empty(0), np.empty(0)
    lo, hi = int(ns.min()), int(ns.max())
    fwd = orbit.stable_maps(lo, hi + horizon)  # index j at j - lo
    bwd = orbit.unstable_maps(lo - horizon, hi)  # index j at j - lo + horizon
    projs = orbit.projectors(lo, hi + 1)
    weights = np.full(horizon + 1, math.exp(dich.rate))
    weights[0] = 1.0
    np.cumprod(weights, out=weights)
    capacity = max(1, _NORM_SCRATCH // (2 * d))  # rows of a chunk

    def weighted_sup(buf: np.ndarray, maps: Callable) -> np.ndarray:
        # max over k of e^{lam k} |v_k|, v_0 = buf[0] and v_{k+1} = maps(k) v_k,
        # in blocks of len(buf) - 1 steps; each block's last plane starts the
        # next.  The norms are the arithmetic of np.linalg.norm over an axis.
        best = None
        for k0 in range(0, horizon, len(buf) - 1):
            n = min(len(buf) - 1, horizon - k0)
            for i in range(n):
                _apply_shared(maps(k0 + i), buf[i], buf[i + 1])
            carry = buf[n].copy()
            planes = buf[: n + 1]
            np.square(planes, out=planes)
            if d < _SHORT:
                sums = planes[..., 0]
                for c in range(1, d):
                    np.add(sums, planes[..., c], out=sums)
            else:
                sums = planes.sum(axis=-1)
            np.sqrt(sums, out=sums)
            np.multiply(sums, weights[k0 : k0 + n + 1, None, None], out=sums)
            part = np.max(sums, axis=0)
            best = part if best is None else np.maximum(best, part, out=best)
            buf[0] = carry
        return best.reshape(-1)

    def measure(block: np.ndarray) -> np.ndarray:
        stable, unstable = parts = np.empty((2, m))
        at = ns - lo
        order, w = _row_grid(at, capacity, d)
        step = capacity // w * w
        for a in range(0, len(at), step):
            chunk = slice(a, a + step) if order is None else order[a : a + step]
            sel = at[chunk][::w]
            # Consecutive indices select each step's maps as a view; any
            # others gather them.
            if (np.diff(sel) == 1).all():
                sel = slice(int(sel[0]), int(sel[0]) + len(sel))
            x = block[chunk].reshape(-1, w, d)
            planes = max(2, min(horizon + 1, _NORM_SCRATCH // x.size))
            buf = np.empty((planes,) + x.shape)
            _apply_shared(projs[sel], x, buf[0])
            u = x - buf[0]
            stable[chunk] = weighted_sup(buf, lambda k: fwd[k:][sel])
            buf[0] = u
            unstable[chunk] = weighted_sup(buf, lambda k: bwd[horizon - 1 - k :][sel])
        return parts

    stable, unstable = _scaled(measure, xs)
    if mu > 0:
        # The tail bound of every row needs a valid K; raise as the tail would.
        orbit.bounds(lo, hi + 1)
    return stable, unstable


def _adapted_norms(orbit: OrbitCache, ns: np.ndarray, xs: np.ndarray) -> AdaptedNorm:
    """Adapted norms of the rows of xs at orbit indices ns, one array entry per row."""
    ns = np.asarray(ns, dtype=np.int64)
    xs = np.asarray(xs, dtype=float)
    stable, unstable = _adapted_norm_parts(orbit, ns, xs)
    dich = orbit.dichotomy
    mu = dich.margin
    value = stable + unstable
    if mu > 0:
        k = _at(orbit.bounds, ns)
        t = k * math.exp(-mu * (dich.horizon + 1)) * _scaled_row_norms(xs)
        tail = np.maximum(stable, t) + np.maximum(unstable, t) - value
    else:
        tail = np.full(len(value), math.inf)
    return AdaptedNorm(value, tail, mu > 0, stable, unstable)


def _row(report):
    """The one-row form of a batched report: each array field gives its one entry."""
    values = {}
    for f in fields(report):
        v = getattr(report, f.name)
        if isinstance(v, np.ndarray):
            v = v[0].item()
        elif is_dataclass(v):
            v = _row(v)
        values[f.name] = v
    return replace(report, **values)


def _adapted_norm_at(orbit: OrbitCache, base_index: int, x: np.ndarray) -> AdaptedNorm:
    return _row(_adapted_norms(orbit, [base_index], np.asarray(x, dtype=float)[None, :]))


def adapted_norm(orbit: OrbitCache, x: np.ndarray) -> AdaptedNorm:
    """Truncated adapted norm of x at the orbit's base point with certified tail bound."""
    return _adapted_norm_at(orbit, 0, x)


@dataclass(frozen=True)
class NormEquivalenceReport:
    """The chain |x| <= |x|_w <= 2 K(w) |x| evaluated at one point.

    From ``check_norm_equivalence_rows`` every field but ``adapted.certified``
    holds one entry per row.
    """

    plain: float
    adapted: AdaptedNorm
    upper: float
    passed: bool


def check_norm_equivalence_rows(orbit: OrbitCache, xs: np.ndarray) -> NormEquivalenceReport:
    """``check_norm_equivalence`` of each row of an (m, d) array, in one kernel call."""
    xs = np.asarray(xs, dtype=float)
    plain = _scaled_row_norms(xs)
    nrm = _adapted_norms(orbit, np.zeros(len(xs), dtype=np.int64), xs)
    upper = 2.0 * orbit.bound(0) * plain
    lower_ok = plain <= nrm.value * (1.0 + _EQUIVALENCE_SLACK)
    upper_ok = nrm.value <= upper * (1.0 + _EQUIVALENCE_SLACK)
    return NormEquivalenceReport(plain, nrm, upper, lower_ok & upper_ok)


def check_norm_equivalence(orbit: OrbitCache, x: np.ndarray) -> NormEquivalenceReport:
    """Verify the two-sided equivalence of plain and adapted norms."""
    return _row(check_norm_equivalence_rows(orbit, np.asarray(x, dtype=float)[None, :]))


@dataclass(frozen=True)
class OneStepContractionReport:
    """Margins of the adapted-norm contraction estimates of (x, n) rows.

    ``stable_margin`` is e^{-lam n} |x|_w minus the adapted norm (plus tail,
    when certified) of A(w,n)P(w)x at sigma^n w; ``unstable_margin`` is the
    backward analogue.  Nonnegative margins certify the inequalities.  Every
    field but ``certified`` holds one entry per row.
    """

    steps: np.ndarray
    stable_margin: np.ndarray
    unstable_margin: np.ndarray
    certified: bool
    passed: np.ndarray


def check_one_step_contraction_rows(
    orbit: OrbitCache, xs: np.ndarray, steps: np.ndarray
) -> OneStepContractionReport:
    """The n-step contraction of adapted norms, both ways, of each row of an
    (m, d) array with its own step count n, in one kernel call: rows at index
    0, stable parts pushed to ``steps``, unstable parts pulled to ``-steps``."""
    steps = np.asarray(steps, dtype=np.int64)
    if np.any(steps < 0):
        raise ValueError("steps must be nonnegative")
    rate = orbit.require_dichotomy().rate
    decay = np.array([math.exp(-rate * n) for n in steps.tolist()])
    xs = np.asarray(xs, dtype=float)
    m = len(xs)
    reach = int(steps.max(initial=0))

    v = _apply_shared(orbit.projector(0), xs, np.empty_like(xs))
    u = xs - v
    fwd = orbit.stable_maps(0, reach)
    bwd = orbit.unstable_maps(-reach, 0)
    for k in range(reach):
        live = steps > k
        for vs, step_map in ((v, fwd[k]), (u, bwd[reach - 1 - k])):
            rows = vs[live]
            vs[live] = _apply_shared(step_map, rows, np.empty_like(rows))

    nrm = _adapted_norms(
        orbit, np.concatenate([np.zeros(m, dtype=np.int64), steps, -steps]),
        np.concatenate([xs, v, u]),
    )
    base, there, back = nrm.value.reshape(3, m)
    rhs = decay * base
    _, there_tail, back_tail = nrm.tail.reshape(3, m) if nrm.certified else (0.0, 0.0, 0.0)
    stable_margin = rhs - (there + there_tail)
    unstable_margin = rhs - (back + back_tail)
    slack = -_CONTRACTION_SLACK * np.maximum(1.0, rhs)
    passed = (stable_margin >= slack) & (unstable_margin >= slack)
    return OneStepContractionReport(steps, stable_margin, unstable_margin, nrm.certified, passed)


_ENVELOPE_SCRATCH = 1 << 13  # floats of one chunk of weighed envelope windows


def envelope_along_orbit(
    orbit: OrbitCache, rho: float, half_width: int, n_lo: int = 0, n_hi: int = 0
) -> np.ndarray:
    """Values D(sigma^n w) for n in [n_lo, n_hi] of the windowed envelope.

    D(p) = max_{|j| <= half_width} K(sigma^j p) e^{-rho |j|}; the K values are
    one range read of the orbit's bounds, shared by the sliding windows.  The
    windows are weighed in chunks whose product holds at most
    _ENVELOPE_SCRATCH floats, so a long range needs no (m, 2 half_width + 1)
    temporary.
    """
    if n_hi < n_lo:
        raise ValueError("empty index range")
    ks = orbit.bounds(n_lo - half_width, n_hi + half_width + 1)
    decay = np.exp(-rho * np.abs(np.arange(-half_width, half_width + 1)))
    windows = np.lib.stride_tricks.sliding_window_view(ks, 2 * half_width + 1)
    chunk = max(1, _ENVELOPE_SCRATCH // (2 * half_width + 1))
    return np.concatenate(
        [np.max(windows[i : i + chunk] * decay, axis=1) for i in range(0, len(windows), chunk)]
    )


@dataclass(frozen=True)
class TemperedEnvelope:
    """Windowed envelope D dominating K with controlled growth along orbits."""

    rho: float
    half_width: int
    bound: Callable[[BasePoint], float]


def build_envelope(orbit: OrbitCache, rho: float, half_width: int) -> TemperedEnvelope:
    """Construct D(p) = max_{|j| <= half_width} K(sigma^j p) e^{-rho |j|}
    for the orbit's system and dichotomy.

    The returned envelope satisfies K <= D everywhere by construction; its
    ``bound(p)`` reads K along a new segment through p.  Nothing is read
    here: ``checks.check_envelope_growth`` checks K <= D and the growth
    D(sigma^n w) <= D(w) e^{rho |n|} along sampled orbits.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    system, dichotomy = orbit.system, orbit.require_dichotomy()

    def envelope(point: BasePoint) -> float:
        segment = OrbitCache(system, point, dichotomy)
        return float(envelope_along_orbit(segment, rho, half_width)[0])

    return TemperedEnvelope(rho, half_width, envelope)
