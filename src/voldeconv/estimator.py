"""Density estimation from high-frequency price increments.

Pipeline: price increments are normalized by sqrt(delta), log-squared (which
turns multiplicative volatility into an additive signal-plus-noise problem),
assembled into p-dimensional observation vectors whose components are lagged
by the index offsets i_k = floor(t_k / delta) of the target times
t_1 < ... < t_p, and averaged against the deconvolution product kernel:

    f_hat(x) = (1/(m h^p)) sum_{j=1}^m prod_k v_h((x_k - Y_{j,k}) / h),

with m = n - i_p + i_1 effective vectors.  Everything is deterministic:
accumulation order is fixed, so a re-run reproduces results bit for bit.

v_h is read from a DeconvTable, which is piecewise linear on a uniform
lattice t_0 < ... < t_{L-1} of step dt.  For p >= 2 the sum is a sweep over
blocks of w observations: table lookups by O(1) index arithmetic on the
lattice (see eval_table), then one product of the per-axis factor matrices.
Coordinate k is the series at a lag, Y_{j,k} = log_sq[j + lag_k], so the
factors of bit-equal axes are column shifts of one lookup matrix: per block
a group of them costs G (w + span) lookups, not G w per axis.  For p = 1 the
sum is taken exactly per lattice interval instead.  With the m values sorted
once and their prefix sums taken, the data falling in interval l for grid
point x (those Y with (x - Y)/h in [t_l, t_{l+1})) are one contiguous run,
found by np.searchsorted at the breakpoints x - h t_l; its count N_l and sum
S_l give

    sum_{j in l} T((x - Y_j)/h) = N_l v_l + slope_l (N_l (x/h - t_l) - S_l/h),

the same linear pieces eval_table evaluates, summed in closed form.  Only the
W ~ (max Y - min Y)/(h dt) + 3 intervals the data can reach are visited, so
the cost is O(m log m + G W log m) against the sweep's O(G m).  Data off the
lattice span form a prefix and a suffix of the sorted values and go through
eval_table, which integrates them exactly.
"""
from __future__ import annotations

import contextlib
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .deconv_kernel import DeconvTable, _check_bandwidth, eval_table
from .errors import (
    ConfigError, InputError, _require_finite, _require_finite_positive, _require_integer,
)
from .quadrature import _in_order

_CLAMP_FLOOR = 1e-12  # experiment.table_for_axes sizes its tables for this floor

# The p >= 2 sweep's workers call this reference: the benchmark's tracer,
# which is not thread-safe, wraps the module's eval_table and not it.
_untraced_eval_table = eval_table

# Observation-block size for the grid sweep; keeps per-block factor matrices
# in the tens of MB while preserving a fixed summation order.
_JCHUNK = 2048

# Breakpoints per block of grid points in the p = 1 interval sums: keeps
# each (grid points) x (window) array near 128 KB whatever the spread of the
# data.  Larger blocks ran no faster and, by fragmenting the heap between
# replications, raised a Monte Carlo run's peak RSS (by 7 MB at 1 << 16).
_BREAKPOINT_BLOCK = 1 << 14


def normalized_increments(prices, delta: float):
    """Price differences over one sampling interval, divided by sqrt(delta)."""
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 1 or prices.size < 2:
        raise InputError(
            f"need at least 2 price points to form increments, got shape {prices.shape}"
        )
    _require_finite_positive("delta", delta, InputError)
    return np.diff(prices) / np.sqrt(delta)


def log_square_transform(x):
    """log(x_i^2), with |x_i| < _CLAMP_FLOOR clamped to the floor first.

    Returns (values, n_clamped).  Exact zeros occur with probability zero but
    would produce -inf and poison every downstream average, so they are
    clamped and counted rather than dropped.  Non-finite increments map to
    non-finite values, which ObservationSet rejects.
    """
    x = np.asarray(x, dtype=float)
    clamped = np.abs(x) < _CLAMP_FLOOR
    vals = 2.0 * np.log(np.maximum(np.abs(x), _CLAMP_FLOOR))
    return vals, int(np.count_nonzero(clamped))


def _check_times(times) -> tuple:
    """times as a tuple of floats, refused unless a non-empty 1-D sequence of
    positive finite values, strictly increasing."""
    try:
        t = np.asarray(times, dtype=float)
    except (TypeError, ValueError):
        t = None
    if t is None or t.ndim == 0:
        raise ConfigError(f"times must be a sequence of numbers, got {times!r}")
    if t.ndim != 1 or t.size < 1:
        raise ConfigError(f"times must be a non-empty 1-D sequence, got {t.tolist()}")
    # "not t > 0" so that NaN fails too: every comparison with NaN is false
    bad = t[~(t > 0.0)]
    if bad.size:
        raise ConfigError(f"target times must be positive, got {bad.tolist()}")
    if np.any(np.isinf(t)):
        raise ConfigError(f"target times must be finite, got {t.tolist()}")
    if not np.all(np.diff(t) > 0.0):
        raise ConfigError(f"target times must be distinct and increasing, got {t.tolist()}")
    return tuple(map(float, t))


def _floor_index(t: float, delta: float) -> int:
    # floor(t/delta) with a 1e-9 relative pad: floor(1.5/0.1) must be 15
    # even though 1.5/0.1 = 14.999... in binary.
    return int(np.floor((t / delta) * (1.0 + 1e-9)))


def _vector_count(n: int, offsets) -> int:
    # m = n - (i_p - i_1) observation vectors at index offsets i_1 < ... < i_p;
    # an estimate needs m >= 1
    return n - (offsets[-1] - offsets[0])


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Log-squared increments plus the target-time index arithmetic.

    delta         : sampling interval.
    log_sq        : n log-squared normalized increments.
    times         : target times, strictly increasing.
    index_offsets : floor(t_k / delta) per target time, computed from times
                    and delta; a given value must equal it.
    n_clamped     : how many increments hit the clamp floor.
    """

    delta: float
    log_sq: np.ndarray
    times: tuple
    index_offsets: Optional[tuple] = None
    n_clamped: int = 0

    def __post_init__(self):
        _require_finite_positive("delta", self.delta, ConfigError)
        if np.ndim(self.log_sq) != 1:
            raise InputError(f"log_sq must be 1-D, got shape {np.shape(self.log_sq)}")
        # one NaN would poison every estimate; reject it before any work
        _require_finite("log-squared increments", self.log_sq, InputError)
        times = _check_times(self.times)
        off = [_floor_index(t, float(self.delta)) for t in times]
        given = off if self.index_offsets is None else np.asarray(self.index_offsets).tolist()
        if given != off:
            raise ConfigError(f"index offsets must be floor(t / delta) = {off}, got {given}")
        _require_integer("n_clamped", self.n_clamped, 0, ConfigError)
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "index_offsets", tuple(off))
        if self.m < 1:
            raise InputError(
                f"series too short for requested time spread: n = {self.n} "
                f"increments, index offsets span {off[-1] - off[0]}"
            )

    @property
    def n(self) -> int:
        return int(np.asarray(self.log_sq).size)

    @property
    def p(self) -> int:
        return int(np.asarray(self.times).size)

    @property
    def m(self) -> int:
        return _vector_count(self.n, self.index_offsets)

    @classmethod
    def from_increments(cls, increments, delta: float, times) -> "ObservationSet":
        """Build from normalized increments at strictly increasing times."""
        log_sq, n_clamped = log_square_transform(increments)
        return cls(delta=delta, log_sq=log_sq, times=times, n_clamped=n_clamped)


def bandwidth_schedule(n: int, p: int, gamma: float, delta_exp: float,
                       bandwidth_override: Optional[float] = None):
    """(delta, h, warning): the sampling interval delta = n^{-delta_exp} and
    the bandwidth h = gamma * pi / log n, unless bandwidth_override pins h,
    for n increments and p target times.

    Variance control needs gamma > 4 p / delta_exp; warning is the text
    saying it fails, or None.  h is refused below pi/600, where the noise
    characteristic function's evaluation window ends.
    """
    _require_integer("n", n, 2, ConfigError)
    _require_integer("p", p, 1, ConfigError)
    _require_finite_positive("gamma", gamma, ConfigError)
    if not (isinstance(delta_exp, numbers.Real) and 0.0 < delta_exp < 1.0):
        raise ConfigError(f"delta_exp must be in (0, 1), got {delta_exp!r}")
    if bandwidth_override is None:
        h = gamma * np.pi / np.log(n)
    else:
        _require_finite_positive("bandwidth_override", bandwidth_override, ConfigError)
        h = float(bandwidth_override)
    _check_bandwidth(h)
    required = 4.0 * p / delta_exp
    warning = None if gamma > required else (
        f"gamma = {gamma} does not exceed 4p/delta_exp = {required:g}; "
        f"variance control is not guaranteed")
    return float(n) ** (-delta_exp), h, warning


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Estimate (or truth) sampled on a tensor grid.

    axes   : p abscissa arrays, axis k for coordinate k.
    values : p-dimensional array, values[i1, ..., ip] at (axes[0][i1], ...).

    Both are stored as float arrays, the axes as a tuple of them.
    """

    axes: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(np.asarray(a, dtype=float) for a in self.axes))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        shape = tuple(len(a) for a in self.axes)
        if tuple(self.values.shape) != shape:
            raise ConfigError(
                f"values shape {self.values.shape} does not match axes {shape}"
            )
        for k, a in enumerate(self.axes):
            _require_finite(f"grid axis {k}", a, ConfigError)
        _require_finite("grid values", self.values, ConfigError)

    def mass(self) -> float:
        """Trapezoid integral of values over the grid box."""
        v = self.values
        for ax in reversed(range(len(self.axes))):
            v = np.trapezoid(v, x=self.axes[ax], axis=ax)
        return float(v)


def marginalize(grid: DensityGrid, axis: int) -> DensityGrid:
    """Integrate one coordinate out by the trapezoid rule."""
    p = len(grid.axes)
    _require_integer("axis", axis, 0, ConfigError)
    if axis >= p:
        raise ConfigError(f"axis {axis} out of range for p = {p}")
    if p == 1:
        raise ConfigError(f"cannot marginalize axis {axis} of a 1-D grid, shape {grid.values.shape}")
    vals = np.trapezoid(grid.values, x=grid.axes[axis], axis=axis)
    axes = tuple(a for i, a in enumerate(grid.axes) if i != axis)
    return DensityGrid(axes=axes, values=vals)


def estimate_density(obs: ObservationSet, table: DeconvTable, axes) -> DensityGrid:
    """Evaluate the deconvolution estimator on a tensor grid.

    Axis k is the grid for target time k, and the result's axis k is the
    same.  The bandwidth is the table's.  Each axis must be 1-D and finite.

    For p >= 2, the blocks' lookup matrices are made two ahead on two
    workers by _in_order, and this thread adds their products in block
    order, so the bits are the serial sweep's.  With one block, or arguments
    that can leave the table's lattice (no worker may reach the direct
    quadrature), the sweep runs on this thread alone.
    """
    p = obs.p
    axes = [np.asarray(a, dtype=float) for a in axes]
    if len(axes) != p:
        raise ConfigError(f"got {len(axes)} grid axes for p = {p} target times")
    if p > 3:
        raise ConfigError(f"p > 3 is not supported, got p = {p}")
    for k, a in enumerate(axes):
        if a.ndim != 1:
            raise ConfigError(f"grid axis {k} must be 1-D, got shape {a.shape}")
        _require_finite(f"grid axis {k}", a, ConfigError)

    h = table.bandwidth
    m = obs.m

    # coordinate k of vector j is log_sq[j + lag_k], lag_k = offset_k - offset_0
    log_sq = np.asarray(obs.log_sq, dtype=float)
    if p == 1:
        acc = _interval_sums(log_sq[:m], axes[0], table)
        return DensityGrid(axes=tuple(axes), values=acc / (m * h))

    lags = [off - obs.index_offsets[0] for off in obs.index_offsets]
    groups, on_lattice = _lag_groups(axes, lags, log_sq, table)

    def block(lo, lookup=eval_table):
        # the factor matrices of observations lo .. lo + w - 1
        w = min(_JCHUNK, m - lo)
        factors = [None] * p
        for group in groups:
            first = lags[group[0]]
            args = axes[group[0]][:, None] - log_sq[lo + first : lo + w + lags[group[-1]]]
            # in place, the bits of args / h: with two lookups at once, the
            # matrix this saves in each keeps the peak RSS near the serial sweep's
            args /= h
            shared = lookup(table, args)
            for k in group:
                factors[k] = shared[:, lags[k] - first : lags[k] - first + w]
        return factors

    acc = np.zeros(tuple(a.size for a in axes))
    starts = range(0, m, _JCHUNK)
    with contextlib.ExitStack() as stack:
        blocks = map(block, starts)
        if len(starts) > 1 and on_lattice:
            table.slope  # cached here, so that the workers do not race to fill it
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=2))
            blocks = _in_order(pool, partial(block, lookup=_untraced_eval_table), starts, 2)
        for factors in blocks:
            if p == 2:
                acc += factors[0] @ factors[1].T
            else:
                acc += np.einsum("am,bm,cm->abc", *factors)
    return DensityGrid(axes=tuple(axes), values=acc / (m * h**p))


def _lag_groups(axes, lags, log_sq, table):
    """(groups, on_lattice): axis indices grouped to share one lookup
    matrix per block, bit-equal axes at distinct lags less than _JCHUNK
    apart; and whether every axis's arguments (x - Y)/h, bounded by the
    extreme ones, stay on the lattice.  A repeated lag stays alone (numpy
    would send the product S S^T of one slice S to BLAS syrk, 6.9e-18 off
    gemm), as does an axis whose arguments can leave the lattice (quadrature
    bits vary by batch).
    """
    h, t = table.bandwidth, table.grid_x
    groups, all_on = [], True
    for k, x in enumerate(axes):
        on_lattice = x.size == 0 or (
            (x.min() - log_sq.max()) / h >= t[0] and (x.max() - log_sq.min()) / h <= t[-1])
        all_on = all_on and on_lattice
        for g in groups if on_lattice else ():
            if lags[g[-1]] < lags[k] < lags[g[0]] + _JCHUNK and np.array_equal(axes[g[0]], x):
                g.append(k)
                break
        else:
            groups.append([k])
    return groups, all_on


def _interval_sums(y: np.ndarray, x: np.ndarray, table: DeconvTable) -> np.ndarray:
    """sum_j eval_table(table, (x_g - y_j) / h) for every grid point x_g.

    Exact per lattice interval (see the module docstring).  Against the
    direct sum it differs only by rounding: the summation order, the side of
    a breakpoint a value within rounding of it lands on (T is continuous, so
    either side gives the same value to rounding), and the cancellation in
    N_l x/h - S_l/h, where S_l is a difference of prefix sums whose rounding
    grows with sum |y|; the prefix sums are kept in long double to contain
    it.  Measured |difference| / max|sum|: at most 2e-15 for m up to 1e6 and
    h in {0.25, 0.5, 2.46} with x86-64's 80-bit long double; 5e-13 at
    h = 0.25, m = 1e5 with double prefix sums, as on platforms where long
    double is double.  The tests hold it to 1e-12.
    """
    h = table.bandwidth
    t, v, slope = table.grid_x, table.values, table.slope
    n_knots = t.size
    dt = (t[-1] - t[0]) / (n_knots - 1)

    ys = np.sort(y)
    csum = np.concatenate(([0.0], np.cumsum(ys, dtype=np.longdouble)))
    m = ys.size

    # on-span data for x_g: sorted indices lo[g] <= j < hi[g], where
    # t_0 <= (x_g - y_j)/h <= t_{L-1}; the rest is a prefix and a suffix
    lo = np.searchsorted(ys, x - h * t[-1], side="left")
    hi = np.searchsorted(ys, x - h * t[0], side="right")

    # window of intervals the data can reach, one interval of slack per side
    width = min(int(np.ceil((ys[-1] - ys[0]) / (h * dt))) + 3, n_knots - 1)
    first = np.floor(((x - ys[-1]) / h - t[0]) / dt) - 1
    first = np.clip(first, 0, n_knots - 2).astype(np.intp)
    steps = np.arange(width + 1)

    out = np.zeros(x.size)
    rows = max(1, _BREAKPOINT_BLOCK // (width + 1))
    for g0 in range(0, x.size, rows):
        g = slice(g0, g0 + rows)
        xg = x[g, None]
        knot = np.minimum(first[g, None] + steps, n_knots - 1)
        # breakpoints x - h t_l fall as l rises; interval k holds the sorted
        # run pos[k+1] <= j < pos[k], clipped to the on-span run so each
        # on-span value is counted exactly once
        pos = np.searchsorted(ys, xg - h * t[knot], side="right")
        pos = np.clip(pos, lo[g, None], hi[g, None])
        pos[:, 0] = hi[g]
        pos[:, -1] = lo[g]
        count = pos[:, :-1] - pos[:, 1:]
        total = (csum[pos[:, :-1]] - csum[pos[:, 1:]]).astype(float)
        base = knot[:, :-1]
        # T(u) = v_l + slope_l (u - t_l) on the last piece's extension too
        grad = slope[np.minimum(base, n_knots - 2)]
        terms = count * v[base] + grad * (count * (xg / h - t[base]) - total / h)
        out[g] = terms.sum(axis=1)

    # off-span data: the exact slow path, one eval_table call per grid point
    for gi in np.flatnonzero((lo > 0) | (hi < m)):
        off = np.concatenate((ys[: lo[gi]], ys[hi[gi] :]))
        out[gi] += eval_table(table, (x[gi] - off) / h).sum()
    return out
