"""Tests for the observation pipeline and the product-kernel density
estimator: increment normalization, log-square transform, index arithmetic,
bandwidth schedule, and grid evaluation."""

import functools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as sst
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voldeconv import (
    ObservationSet,
    OUParams,
    bandwidth_schedule,
    build_table,
    builtin_kernel,
    estimate_density,
    eval_table,
    eval_w,
    log_square_transform,
    marginalize,
    normalized_increments,
    simulate_bundle,
)
from voldeconv import deconv_kernel, estimator
from voldeconv.errors import ConfigError, InputError, RangeError, _require_finite
from voldeconv.estimator import _BREAKPOINT_BLOCK, _JCHUNK, DensityGrid
from voldeconv.experiment import table_for_axes
from voldeconv.vol_sim import integrate_price, simulate_ou

SPEC = builtin_kernel("poly3")


def _observation_matrix(obs):
    """All m observation vectors as an (m, p) matrix: column k is the
    log-squared series read from lag index_offsets[k] - index_offsets[0]."""
    log_sq = np.asarray(obs.log_sq, dtype=float)
    off = np.asarray(obs.index_offsets, dtype=int)
    cols = [log_sq[int(k - off[0]) : int(k - off[0]) + obs.m] for k in off]
    return np.stack(cols, axis=1)


def _obs_from_values(log_sq, delta, times):
    return ObservationSet(delta=delta, log_sq=np.asarray(log_sq, dtype=float), times=tuple(times))


def test_normalized_increments_examples():
    delta = 0.25
    prices = np.array([0.0, 0.1, 0.3, 0.6])
    np.testing.assert_allclose(
        normalized_increments(prices, delta), np.array([0.2, 0.4, 0.6]), rtol=1e-14
    )
    assert np.all(normalized_increments(np.full(5, 2.7), 0.1) == 0.0)
    np.testing.assert_allclose(
        normalized_increments(np.array([0.0, np.sqrt(delta) * 3.0]), delta), [3.0], rtol=1e-14
    )
    with pytest.raises(InputError):
        normalized_increments(np.array([1.0]), delta)


def test_normalized_increments_brownian_variance():
    # sigma identically 1: increments are standard normal
    rng = np.random.default_rng(17)
    delta = 1e-3
    prices = np.concatenate([[0.0], np.cumsum(np.sqrt(delta) * rng.standard_normal(100_000))])
    x = normalized_increments(prices, delta)
    assert abs(np.var(x) - 1.0) < 0.02


def test_log_square_examples():
    vals, clamped = log_square_transform(np.array([1.0, -1.0, np.e]))
    np.testing.assert_allclose(vals, [0.0, 0.0, 2.0], atol=1e-15)
    assert clamped == 0
    vals, clamped = log_square_transform(np.array([0.0, 1e-30, 0.5]))
    assert clamped == 2
    assert vals[0] == vals[1] == pytest.approx(2.0 * np.log(1e-12), rel=1e-14)
    # the floor itself is not clamped, and every value below it maps onto it
    vals, clamped = log_square_transform(np.array([0.0, 1e-13, 1e-12]))
    assert clamped == 2
    assert vals[0] == vals[1] == vals[2] == 2.0 * np.log(1e-12)


def test_log_square_matches_noise_law():
    rng = np.random.default_rng(42)
    z = rng.standard_normal(100_000)
    vals, clamped = log_square_transform(z)
    assert clamped == 0
    cdf = lambda u: sps.erf(np.exp(np.asarray(u) / 2.0) / np.sqrt(2.0))
    assert sst.kstest(vals, cdf).statistic < 0.006  # measured 0.0025 at this seed


def _log_square_reference(x):
    """The transform as one expression, a new array per step."""
    a = np.abs(np.asarray(x, dtype=float))
    return 2.0 * np.log(np.maximum(a, 1e-12)), int(np.count_nonzero(a < 1e-12))


_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-12, -1e-12, np.nextafter(1e-12, 0.0),
          np.nextafter(1e-12, 1.0), -np.nextafter(1e-12, 0.0), np.nan, np.inf, -np.inf,
          1e308, -1e308, 1.0, -2.5, np.e]


def _read_only(values):
    x = np.array(values)
    x.flags.writeable = False
    return x


@pytest.mark.parametrize("make", [
    np.array,
    list,
    lambda v: np.array(v, dtype=np.float32),
    _read_only,
    lambda v: np.array(v)[::2],  # strided
], ids=["float64", "list", "float32", "read-only", "strided"])
def test_log_square_transform_keeps_the_reference_bits(make):
    with np.errstate(invalid="ignore", over="ignore"):
        x = make(_EDGES + list(np.random.default_rng(3).normal(0.0, 1e-11, 200)))
    before = np.array(x, copy=True)
    vals, clamped = log_square_transform(x)
    want, want_clamped = _log_square_reference(before)
    assert vals.dtype == np.float64
    assert vals.tobytes() == want.tobytes()  # bit for bit, NaN and -0.0 included
    assert clamped == want_clamped
    assert np.array(x).tobytes() == before.tobytes()  # the input is untouched


# The transform holds one output-sized float array and the n-byte clamp
# mask at once, plus 64 KB for numpy's own bookkeeping (measured: 0.3 KB).
# Two output-sized temporaries, as in 2 log(max(|x|, floor)), held 8 MB more
# at n = 1e6.
def test_log_square_transform_memory_stays_within_one_output():
    x = np.random.default_rng(4).standard_normal(1_000_000)
    tracemalloc.start()
    try:
        vals, _ = log_square_transform(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = vals.nbytes + x.size + (64 << 10)
    assert peak <= bound, (peak, bound)


def test_observation_vector_index_arithmetic():
    data = np.arange(100, dtype=float)
    obs = _obs_from_values(data, 0.1, (1.0, 1.5))
    assert obs.index_offsets == (10, 15)
    assert obs.m == 95
    # row j - 1 is the j-th vector: j = 1 picks 1-based entries (1, 6)
    rows = _observation_matrix(obs)
    assert rows.shape == (95, 2)
    np.testing.assert_array_equal(rows[0], [0.0, 5.0])
    np.testing.assert_array_equal(rows[94], [94.0, 99.0])

    obs3 = _obs_from_values(data, 0.1, (0.25, 0.5, 0.75))
    assert obs3.index_offsets == (2, 5, 7)
    # j = 3 picks 1-based entries (3, 6, 8)
    rows3 = _observation_matrix(obs3)
    assert rows3.shape == (95, 3)
    np.testing.assert_array_equal(rows3[2], [2.0, 5.0, 7.0])


def test_floor_guard_against_binary_representation():
    # floor(1.5/0.1) must be 15 even though 1.5/0.1 = 14.999... in floats
    obs = _obs_from_values(np.zeros(40), 0.1, (1.5, 2.1))
    assert obs.index_offsets == (15, 21)


def test_observation_set_validation():
    with pytest.raises(ConfigError, match=r"must be distinct .*got \[1.0, 1.0\]"):
        _obs_from_values(np.zeros(10), 0.1, (1.0, 1.0))
    with pytest.raises(ConfigError, match=r"must be positive, got \[-0.5, 0.0\]"):
        _obs_from_values(np.zeros(10), 0.1, (-0.5, 0.0, 0.3))
    with pytest.raises(InputError, match="series too short"):
        _obs_from_values(np.zeros(4), 0.1, (0.1, 0.9))


def test_nan_and_infinite_times_rejected():
    with pytest.raises(ConfigError, match=r"must be positive, got \[nan\]"):
        ObservationSet(delta=0.1, log_sq=np.zeros(50), times=(np.nan,))
    with pytest.raises(ConfigError, match=r"must be positive, got \[nan\]"):
        ObservationSet(delta=0.1, log_sq=np.zeros(50), times=(1.0, np.nan))
    inc = np.linspace(0.1, 1.0, 50)
    with pytest.raises(ConfigError, match=r"must be positive, got \[nan\]"):
        ObservationSet.from_increments(inc, 0.1, (0.5, np.nan))
    with pytest.raises(ConfigError, match=r"must be finite, got \[0.5, inf\]"):
        ObservationSet.from_increments(inc, 0.1, (0.5, np.inf))


def test_bandwidth_schedule():
    _, h, _ = bandwidth_schedule(22026, 1, 10.0, 0.5)  # n = e^10 rounded
    assert abs(h - np.pi) < 1e-4
    assert bandwidth_schedule(10_000, 1, 10.0, 0.5)[0] == pytest.approx(0.01)
    assert bandwidth_schedule(1_000_000, 1, 10.0, 0.5, bandwidth_override=0.8)[1] == 0.8
    with pytest.raises(ConfigError, match="n must be at least 2, got 1"):
        bandwidth_schedule(1, 1, 10.0, 0.5)
    with pytest.raises(ConfigError, match="n must be at least 2, got 0"):
        bandwidth_schedule(0, 1, 10.0, 0.5)
    for n, p, message in [(np.nan, 1, "n must be an integer, got nan"),
                          (2.5, 1, "n must be an integer, got 2.5"),
                          (100, 0, "p must be at least 1, got 0")]:
        with pytest.raises(ConfigError, match=message):
            bandwidth_schedule(n, p, 10.0, 0.5)


def test_bandwidth_warning_when_gamma_too_small():
    # p = 2, delta_exp = 0.5 requires gamma > 16
    assert bandwidth_schedule(10_000, 2, 10.0, 0.5)[2] == (
        "gamma = 10.0 does not exceed 4p/delta_exp = 16; variance control is not guaranteed"
    )
    assert bandwidth_schedule(10_000, 2, 17.0, 0.5)[2] is None


def test_estimator_config_validation():
    window = ("quadrature nodes at |t| = {}, beyond the noise characteristic "
              "function's evaluation window t_max = 191.0")
    for gamma, delta_exp, override, error, message in [
        (-1.0, 0.5, None, ConfigError, "gamma must be finite and positive, got -1.0"),
        (9.0, 1.5, None, ConfigError, "delta_exp must be in (0, 1), got 1.5"),
        (9.0, 0.5, -0.1, ConfigError, "bandwidth_override must be finite and positive, got -0.1"),
        # h below pi/600, pinned or from the schedule (0.01 pi / log 1000)
        (9.0, 0.5, 0.005, RangeError, "bandwidth 0.005 puts " + window.format(200.0)),
        (0.01, 0.5, None, RangeError,
         "bandwidth 0.004547921179472805 puts " + window.format(219.9)),
    ]:
        with pytest.raises(error) as info:
            bandwidth_schedule(1000, 1, gamma, delta_exp, override)
        assert str(info.value) == message


def test_single_observation_reduction():
    h = 0.9
    tbl = build_table(SPEC, h, -40.0, 40.0, 4097)
    y = -1.7
    obs = _obs_from_values(np.array([y]), 0.1, (0.1,))
    assert obs.m == 1
    grid = np.array([-3.0, 0.0, 2.5])
    est = estimate_density(obs, tbl, (grid,))
    np.testing.assert_allclose(est.values, eval_table(tbl, (grid - y) / h) / h, rtol=1e-12)


def test_two_point_manual_product():
    h = 0.9
    tbl = build_table(SPEC, h, -40.0, 40.0, 4097)
    data = np.array([-0.3, 1.1, 0.4, -2.0, 0.9])
    obs = _obs_from_values(data, 0.1, (0.1, 0.3))
    assert obs.index_offsets == (1, 3) and obs.m == 3
    x1, x2 = np.array([-1.0, 0.5]), np.array([0.0, 1.5, 3.0])
    est = estimate_density(obs, tbl, (x1, x2))
    manual = np.zeros((2, 3))
    for j in range(obs.m):
        # components lag by the index offsets: log_sq[j] and log_sq[j + 2]
        y = (obs.log_sq[j], obs.log_sq[j + 2])
        for i, a in enumerate(x1):
            for k, b in enumerate(x2):
                manual[i, k] += float(eval_table(tbl, (a - y[0]) / h)) * float(
                    eval_table(tbl, (b - y[1]) / h)
                )
    manual /= obs.m * h**2
    np.testing.assert_allclose(est.values, manual, rtol=1e-12, atol=1e-16)


def test_duplication_leaves_estimate_unchanged():
    h = 0.8
    tbl = build_table(SPEC, h, -40.0, 40.0, 4097)
    data = np.array([0.2, -1.4, 2.2, 0.7, -0.1, 1.3])
    grid = np.linspace(-4.0, 4.0, 17)
    one = estimate_density(_obs_from_values(data, 0.1, (0.1,)), tbl, (grid,))
    two = estimate_density(_obs_from_values(np.tile(data, 2), 0.1, (0.1,)), tbl, (grid,))
    np.testing.assert_allclose(one.values, two.values, rtol=1e-13)


def _interp_sweep(obs, table, axes):
    """The p >= 2 estimate with np.interp as the lookup, in the estimator's
    block and summation order; every argument must be on the lattice."""
    h = table.bandwidth

    def lookup(x):
        assert _on_lattice(table, x)
        return np.interp(x, table.grid_x, table.values)

    ymat = _observation_matrix(obs)
    axes = [np.asarray(a, dtype=float) for a in axes]
    acc = np.zeros(tuple(a.size for a in axes))
    for lo in range(0, ymat.shape[0], _JCHUNK):
        blk = ymat[lo : lo + _JCHUNK]
        f = [lookup((axes[k][:, None] - blk[None, :, k]) / h) for k in range(obs.p)]
        acc += f[0] @ f[1].T if obs.p == 2 else np.einsum("am,bm,cm->abc", *f)
    return acc / (ymat.shape[0] * h**obs.p)


@pytest.mark.parametrize("times", [(1.0, 1.25), (0.5, 1.0, 1.25)])
def test_sweep_matches_interp_reference(times):
    # m spans two observation blocks; the narrow table does not cover the
    # far grid points' arguments, so it is refused
    bundle = simulate_bundle("ou", OUParams(a=2.0, mu=0.0, b=2.0), _JCHUNK + 700, 0.05, seed=3)
    obs = ObservationSet.from_increments(bundle.increments, bundle.delta, times)
    assert obs.m > _JCHUNK
    # a different grid per axis, so that a mixed-up axis shows
    shifts = (0, 1) if len(times) == 2 else (1, 2, 0)
    axes = [np.linspace(-9.0 + k, 4.0 + k, 9 + 2 * k) for k in shifts]
    est = estimate_density(obs, _table("wide"), axes)
    np.testing.assert_array_equal(est.values, _interp_sweep(obs, _table("wide"), axes))
    assert not _covered(_table("narrow"), obs, axes)
    with pytest.raises(InputError, match="off the table span"):
        estimate_density(obs, _table("narrow"), axes)


def test_grid_mass_near_one():
    bundle = simulate_bundle("ou", OUParams(a=2.0, mu=0.0, b=2.0), 10_000, 10_000**-0.5, seed=5)
    obs = ObservationSet.from_increments(bundle.increments, bundle.delta, (1.0,))
    axes = (np.linspace(-16.0, 16.0, 321),)
    est = estimate_density(obs, table_for_axes("poly3", 0.8, axes), axes)
    assert abs(est.mass() - 1.0) < 0.02  # measured 0.99991


def _marginal_gap(n, seed, h, second, x1):
    """max |p = 2 estimate integrated over a wide second axis - p = 1 estimate
    of the same m vectors' first components| on x1, for an OU path of n
    increments and target times (1, second)."""
    bundle = simulate_bundle("ou", OUParams(a=2.0, mu=0.0, b=2.0), n, 0.05, seed=seed)
    obs2 = ObservationSet.from_increments(bundle.increments, bundle.delta, (1.0, second))
    m = obs2.m
    tbl = build_table(SPEC, h, -290.0, 290.0, 29001)
    y2 = obs2.log_sq[obs2.index_offsets[1] - obs2.index_offsets[0] :][:m]
    lo, hi = y2.min() - 252.0 * h, y2.max() + 252.0 * h
    x2 = np.linspace(lo, hi, int(np.ceil((hi - lo) / (0.5 * h))) + 1)
    marg = np.trapezoid(estimate_density(obs2, tbl, (x1, x2)).values, x2, axis=1)
    obs1 = ObservationSet(delta=obs2.delta, log_sq=obs2.log_sq[:m], times=(1.0,))
    return float(np.max(np.abs(marg - estimate_density(obs1, tbl, (x1,)).values)))


def test_marginalization_matches_univariate():
    # integrating out x2 reproduces the univariate estimate built from the
    # same m vectors' first components
    assert _marginal_gap(300, 77, 1.0, 1.25, np.linspace(-6.0, 4.0, 11)) < 1e-6


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.floats(0.8, 1.5),
    second=st.floats(1.01, 3.0),
)
def test_marginalization_matches_univariate_on_random_data(seed, h, second):
    # criterion 08 on random paths, bandwidths and second times: the p = 2
    # sweep integrated over a wide second axis gives the p = 1 interval sums
    # (measured gap at most 2e-8)
    assert _marginal_gap(500, seed, h, second, np.linspace(-6.0, 4.0, 21)) < 1e-6


def test_conditional_expectation_identity():
    # on a frozen volatility path, averaging the estimator over noise
    # draws reproduces the direct smoother of the true log-variance
    params = OUParams(a=2.0, mu=0.0, b=2.0)
    n, reps, h, ratio = 2000, 200, 2.5, 50
    delta = float(n) ** -0.75
    fine_dt = delta / ratio
    log_var = simulate_ou(params, n * ratio, fine_dt, seed=12345)
    sigma2 = np.exp(log_var)
    tbl = build_table(SPEC, h, -40.0, 40.0, 4097)
    pts = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    vals = np.empty((reps, pts.size))
    for r in range(reps):
        inc = integrate_price(sigma2, fine_dt, delta, seed=400 + r)
        obs = ObservationSet.from_increments(inc, delta, (1.0,))
        vals[r] = estimate_density(obs, tbl, (pts,)).values
    mean = vals.mean(axis=0)
    se = vals.std(axis=0, ddof=1) / np.sqrt(reps)
    left_endpoints = log_var[::ratio][:n]
    smoother = np.array([np.mean(eval_w(SPEC, (x - left_endpoints) / h)) / h for x in pts])
    assert np.max(np.abs(mean - smoother) / se) < 3.0  # measured max 1.12


def test_density_grid_validation():
    with pytest.raises(ConfigError):
        DensityGrid(axes=(np.linspace(0, 1, 5),), values=np.zeros(4))
    with pytest.raises(ConfigError):
        DensityGrid(axes=(np.linspace(0, 1, 3),), values=np.array([1.0, np.nan, 0.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_density_grid_axes_must_be_finite(bad):
    # an infinite abscissa would give a grid whose mass() is inf
    with pytest.raises(ConfigError) as info:
        DensityGrid(axes=(np.array([0.0, 1.0]), np.array([0.0, bad])), values=np.ones((2, 2)))
    assert str(info.value) == "grid axis 1 must be finite, got 1 non-finite, the first at index 1"


@pytest.mark.parametrize("axis, shape", [(np.float64(0.5), "()"), (np.zeros((2, 3)), "(2, 3)")])
def test_density_grid_axes_must_be_1d(axis, shape):
    with pytest.raises(ConfigError) as info:
        DensityGrid(axes=(np.array([0.0, 1.0]), axis), values=np.ones((2, 2)))
    assert str(info.value) == f"grid axis 1 must be 1-D, got shape {shape}"


def test_density_grid_of_int_lists_equals_the_grid_of_arrays():
    listed = DensityGrid(axes=([0, 1, 3], [-1, 1]), values=[[1, 2], [3, 4], [5, 6]])
    arrayed = DensityGrid(axes=(np.array([0.0, 1.0, 3.0]), np.array([-1.0, 1.0])),
                          values=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    assert isinstance(listed.axes, tuple)
    for got, want in zip(listed.axes + (listed.values,), arrayed.axes + (arrayed.values,)):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
    assert listed.mass() == arrayed.mass()
    np.testing.assert_array_equal(marginalize(listed, 0).values, marginalize(arrayed, 0).values)
    values = np.ones(2)
    assert DensityGrid(axes=[np.arange(2.0)], values=values).values is values  # no copy


def test_marginalize_grid():
    x1 = np.linspace(-1.0, 1.0, 41)
    x2 = np.linspace(-2.0, 2.0, 81)
    xx, yy = np.meshgrid(x1, x2, indexing="ij")
    vals = np.exp(-(xx**2) - yy**2 / 2.0)
    grid = DensityGrid(axes=(x1, x2), values=vals)
    m0 = marginalize(grid, 1)
    assert m0.values.shape == (41,)
    np.testing.assert_allclose(m0.values, np.trapezoid(vals, x2, axis=1), rtol=1e-13)
    with pytest.raises(ConfigError):
        marginalize(m0, 1)


def test_non_finite_increments_rejected_early():
    inc = np.linspace(-1.0, 1.0, 50)
    inc[[7, 20, 33]] = [np.nan, np.inf, -np.inf]
    with pytest.raises(InputError, match="log_sq must be finite, got 3 non-finite, the first at index 7"):
        ObservationSet.from_increments(inc, 0.1, (0.5,))


@pytest.mark.parametrize("values, first", [
    (np.array([0.0, np.nan, 1.0, np.inf]), "1"),
    (np.array([[0.0, 1.0], [-np.inf, np.nan]]), "(1, 0)"),
])
def test_require_finite_names_the_count_and_the_first_index(values, first):
    # an int index for 1-D input, a tuple for n-D input
    with pytest.raises(InputError) as info:
        _require_finite("values", values, InputError)
    assert str(info.value) == f"values must be finite, got 2 non-finite, the first at index {first}"


_H = 0.7
_FLOOR = 2.0 * np.log(1e-12)  # log_square_transform's clamp floor


@functools.lru_cache(maxsize=None)
def _table(kind):
    # wide: the arguments (x - y)/h of the tests' data stay on the lattice;
    # narrow: most fall off it, and the estimator refuses them
    if kind == "wide":
        return build_table(SPEC, _H, -150.0, 150.0, 6001)
    return build_table(SPEC, _H, -8.0, 8.0, 321)


def _on_lattice(table, args) -> bool:
    return bool(np.all((table.grid_x[0] <= args) & (args <= table.grid_x[-1])))


def _covered(table, obs, axes) -> bool:
    """Whether estimate_density takes these data, tested point by point:
    for every log_sq value y and every grid point x, (x - y)/h on the
    lattice, and y between the breakpoints x - h t_{L-1} and x - h t_0."""
    h, t, y = table.bandwidth, table.grid_x, obs.log_sq[None, :]
    return all(
        _on_lattice(table, (x[:, None] - y) / h)
        and np.all(x[:, None] - h * t[-1] <= y) and np.all(y <= x[:, None] - h * t[0])
        for x in map(np.asarray, axes)
    )


@st.composite
def _p1_cases(draw):
    kind = draw(st.sampled_from(("wide", "narrow")))
    m = draw(st.integers(1, 2000 if kind == "wide" else 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.normal(draw(st.floats(-10.0, 10.0)), draw(st.floats(0.01, 8.0)), m)
    tbl = _table(kind)
    knots = tbl.grid_x
    if kind == "wide":
        # grids the wide lattice covers, from the clamp floor up to y ~ 50:
        # |x - y| <= 105 = h t_{L-1}
        lo = draw(st.floats(-50.0, 0.0))
        x = np.linspace(lo, lo + draw(st.floats(0.0, min(50.0, 45.0 - lo))),
                        draw(st.integers(1, 20)))
        knots = knots[np.abs(knots) <= 60.0]
    else:
        lo = draw(st.floats(-70.0, 0.0))
        x = np.linspace(lo, lo + draw(st.floats(0.0, 110.0)), draw(st.integers(1, 20)))
    # duplicated values, values on the clamp floor, and values whose
    # argument for some grid point is exactly a table knot
    pick = rng.integers(0, 4, m)
    y[pick == 1] = rng.choice(y, int(np.sum(pick == 1)))
    y[pick == 2] = _FLOOR
    on_knot = np.flatnonzero(pick == 3)
    y[on_knot] = rng.choice(x, on_knot.size) - _H * rng.choice(knots, on_knot.size)
    return tbl, y, x


@settings(max_examples=60, deadline=None)
@given(_p1_cases())
# grid wholly in v_h's far tail, off the narrow lattice
@example((_table("narrow"), np.array([0.79925574]), np.array([-53.0, -53.0])))
def test_p1_interval_sums_match_direct_sum(case):
    tbl, y, x = case
    obs = _obs_from_values(y, 0.1, (0.1,))
    if not _covered(tbl, obs, (x,)):
        with pytest.raises(InputError, match="off the table span"):
            estimate_density(obs, tbl, (x,))
        return
    est = estimate_density(obs, tbl, (x,)).values
    ref = eval_table(tbl, (x[:, None] - y[None, :]) / _H).sum(axis=1) / (y.size * _H)
    # relative to the larger of the estimate and its uniform bound
    # sup|v_h| / h, below which rounding sets the floor
    scale = max(np.max(np.abs(ref)), tbl.sup_bound / _H)
    assert np.max(np.abs(est - ref)) <= 1e-12 * scale


def test_prefix_sums_equal_the_concatenated_form(monkeypatch):
    # _interval_sums' in-place long-double prefix sums, caught at their
    # cumsum, against 0 followed by cumsum(sorted y) in long double; by
    # value, since x86-64 long doubles carry 6 undefined padding bytes
    y = np.random.default_rng(6).normal(-1.3, 2.0, 5001)
    y[::7] = _FLOOR
    seen = []
    cumsum = np.cumsum

    def spy(a, *args, **kwargs):
        seen.append(kwargs.get("out"))
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", spy)
    estimator._interval_sums(y, np.linspace(-8.0, 2.0, 11), _table("wide"))
    monkeypatch.undo()
    (out,) = seen
    csum = out.base
    want = np.concatenate(([0.0], np.cumsum(np.sort(y), dtype=np.longdouble)))
    assert csum.dtype == np.longdouble and csum.shape == want.shape
    assert np.array_equal(csum, want)


@pytest.mark.parametrize("delta", [0.0, np.nan, np.inf, -np.inf, -0.1])
def test_observation_set_refuses_a_bad_delta(delta):
    message = f"delta must be finite and positive, got {delta!r}"
    inc = np.linspace(0.1, 1.0, 50)
    with pytest.raises(ConfigError) as info:
        ObservationSet.from_increments(inc, delta, (1.0,))
    assert str(info.value) == message
    with pytest.raises(ConfigError) as info:
        ObservationSet(delta=delta, log_sq=np.zeros(50), times=(1.0,))
    assert str(info.value) == message
    with pytest.raises(InputError) as info:
        normalized_increments(np.arange(5.0), delta)
    assert str(info.value) == message


def test_observation_errors_name_the_value():
    cases = [
        (lambda: _obs_from_values(np.zeros(4), 0.1, (0.1, 0.9)), InputError,
         "series too short for requested time spread: n = 4 increments, index offsets span 8"),
        (lambda: ObservationSet(delta=0.1, log_sq=np.zeros(50), times=(1.0, 2.0),
                                index_offsets=(20, 10)), ConfigError,
         "index offsets must be floor(t / delta) = [10, 20], got [20, 10]"),
        (lambda: ObservationSet(delta=0.1, log_sq=np.zeros(50), times=()), ConfigError,
         "times must be a non-empty 1-D sequence, got []"),
        (lambda: ObservationSet.from_increments(np.ones(50), 0.1, [[1.0, 2.0]]), ConfigError,
         "times must be a non-empty 1-D sequence, got [[1.0, 2.0]]"),
        (lambda: ObservationSet.from_increments(np.ones(50), 0.1, None), ConfigError,
         "times must be a sequence of numbers, got None"),
        (lambda: ObservationSet(delta=0.1, log_sq=np.zeros(50), times=1.0), ConfigError,
         "times must be a sequence of numbers, got 1.0"),
        (lambda: ObservationSet.from_increments(np.ones(50), 0.1, (1.25, 1.0)), ConfigError,
         "target times must be distinct and increasing, got [1.25, 1.0]"),
        (lambda: normalized_increments([1.0], 0.1), InputError,
         "need at least 2 price points to form increments, got shape (1,)"),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


def test_log_sq_is_stored_as_a_float_array():
    obs = ObservationSet(delta=0.1, log_sq=[0, 1, 2, 3], times=(0.1,))
    assert isinstance(obs.log_sq, np.ndarray) and obs.log_sq.dtype == np.float64
    np.testing.assert_array_equal(obs.log_sq, [0.0, 1.0, 2.0, 3.0])
    assert (obs.n, obs.p, obs.m) == (4, 1, 4)


def test_two_dimensional_log_sq_refused_up_front():
    with pytest.raises(InputError, match=r"log_sq must be 1-D, got shape \(4, 6\)"):
        ObservationSet(delta=0.1, log_sq=np.zeros((4, 6)), times=(0.1,))
    with pytest.raises(InputError, match=r"log_sq must be 1-D, got shape \(4, 6\)"):
        ObservationSet.from_increments(np.ones((4, 6)), 0.1, (0.1, 0.2))


def test_non_integer_index_offsets_refused():
    with pytest.raises(ConfigError, match=r"floor\(t / delta\) = \[1\], got \[1.7\]"):
        ObservationSet(delta=0.1, log_sq=np.zeros(50), times=(0.17,), index_offsets=(1.7,))
    obs = ObservationSet(delta=0.1, log_sq=np.zeros(50), times=(0.1,), index_offsets=(1.0,))
    assert obs.index_offsets == (1,)


def test_index_offsets_are_computed_from_times_and_delta():
    # a given value must be the computed one; (3,) was taken for floor(1.0 / 0.1) = 10
    with pytest.raises(ConfigError) as info:
        ObservationSet(delta=0.1, log_sq=np.zeros(50), times=(1.0,), index_offsets=(3,))
    assert str(info.value) == "index offsets must be floor(t / delta) = [10], got [3]"
    obs = ObservationSet(delta=np.float64(0.1), log_sq=np.zeros(50), times=(1.0, 1.5))
    assert obs.index_offsets == (10, 15) and obs.m == 45
    assert type(obs.delta) is float
    given = ObservationSet(delta=0.1, log_sq=np.zeros(50), times=(1.0, 1.5),
                           index_offsets=np.array([10, 15]))
    assert given.index_offsets == (10, 15)


@pytest.mark.parametrize("n_clamped, message", [
    (-1, "n_clamped must be at least 0, got -1"),
    (1.5, "n_clamped must be an integer, got 1.5"),
    (np.nan, "n_clamped must be an integer, got nan"),
    (True, "n_clamped must be an integer, got True"),
])
def test_observation_set_refuses_a_bad_n_clamped(n_clamped, message):
    with pytest.raises(ConfigError) as info:
        ObservationSet(delta=0.1, log_sq=np.zeros(50), times=(1.0,), n_clamped=n_clamped)
    assert str(info.value) == message


@pytest.mark.parametrize("axis, message", [
    (True, "axis must be an integer, got True"),
    (1.5, "axis must be an integer, got 1.5"),
    (-1, "axis must be at least 0, got -1"),
    (2, "axis 2 out of range for p = 2"),
])
def test_marginalize_refuses_a_bad_axis(axis, message):
    grid = DensityGrid(axes=(np.arange(3.0), np.arange(4.0)), values=np.zeros((3, 4)))
    with pytest.raises(ConfigError) as info:
        marginalize(grid, axis)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"gamma": np.inf}, "gamma must be finite and positive, got inf"),
        ({"bandwidth_override": np.inf}, "bandwidth_override must be finite and positive, got inf"),
    ],
)
def test_estimator_config_refuses_infinite_scales(overrides, message):
    with pytest.raises(ConfigError) as info:
        bandwidth_schedule(**{"n": 1000, "p": 1, "gamma": 9.0, "delta_exp": 0.5, **overrides})
    assert str(info.value) == message


_DELTA = 0.1


@st.composite
def _lag_cases(draw):
    """(table kind, increasing times, n, per-axis grid pick, two grids as
    (lo, width, size), seed) for the p >= 2 sweep."""
    p = draw(st.integers(2, 3))
    steps = draw(st.lists(
        st.sampled_from([0, 1, 281, _JCHUNK - 1, _JCHUNK]) | st.integers(0, 3 * _JCHUNK),
        min_size=p - 1, max_size=p - 1,
    ))
    offsets = np.cumsum([draw(st.integers(1, 30))] + steps)
    # time k sits inside delta bin offsets[k], so equal offsets (lag 0)
    # still give distinct increasing times
    times = [(int(o) + 0.2 * (k + 1)) * _DELTA for k, o in enumerate(offsets)]
    m = draw(st.sampled_from([1, _JCHUNK - 1, _JCHUNK, 2 * _JCHUNK]) | st.integers(1, 2 * _JCHUNK + 99))
    grids = draw(st.lists(
        st.tuples(st.floats(-70.0, 10.0), st.floats(0.0, 60.0), st.integers(1, 6)),
        min_size=2, max_size=2,
    ))
    return (
        draw(st.sampled_from(("wide", "narrow"))),
        tuple(times),
        m + int(offsets[-1] - offsets[0]),
        draw(st.lists(st.integers(0, 1), min_size=p, max_size=p)),
        grids,
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(_lag_cases())
# two times in one delta bin at p = 2: one lag-0 slice taken twice would make
# numpy multiply a buffer by its own transpose (BLAS syrk, other bits)
@example(("wide", (1.02, 1.04), _JCHUNK + 700, [0, 0], [(-9.0, 13.0, 6)] * 2, 11))
# three times on one grid, lags 0, 0 and 2130: the repeated lag is looked
# up alone, and so is the third, _JCHUNK or more away
@example(("wide", (2.02, 2.06, 215.04), _JCHUNK + 300, [0, 0, 0],
          [(-9.0, 13.0, 5), (-12.0, 9.0, 4)], 5))
def test_lag_shared_lookups_match_interp_reference(case):
    kind, times, n, picks, grids, seed = case
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal(n) * np.exp(rng.normal(0.0, 1.0, n))
    obs = ObservationSet.from_increments(inc, _DELTA, times)
    grid = [np.linspace(lo, lo + width, size) for lo, width, size in grids]
    axes = [grid[pick] for pick in picks]
    if not _covered(_table(kind), obs, axes):
        with pytest.raises(InputError, match="off the table span"):
            estimate_density(obs, _table(kind), axes)
        return
    est = estimate_density(obs, _table(kind), axes)
    np.testing.assert_array_equal(est.values, _interp_sweep(obs, _table(kind), axes))


def test_grid_and_estimate_errors_name_the_value():
    values = np.zeros((3, 4))
    values[1, 2], values[2, 0] = np.nan, np.inf
    with pytest.raises(ConfigError, match=r"finite, got 2 non-finite, the first at index \(1, 2\)"):
        DensityGrid(axes=(np.arange(3.0), np.arange(4.0)), values=values)
    line = DensityGrid(axes=(np.arange(5.0),), values=np.zeros(5))
    with pytest.raises(ConfigError, match=r"marginalize axis 0 of a 1-D grid, shape \(5,\)"):
        marginalize(line, 0)
    obs = _obs_from_values(np.zeros(50), 0.1, (0.1, 0.2))
    with pytest.raises(ConfigError, match="got 1 grid axes for p = 2 target times"):
        estimate_density(obs, _table("narrow"), [np.zeros(2)])
    obs = _obs_from_values(np.zeros(50), 0.1, (0.1, 0.2, 0.3, 0.4))
    with pytest.raises(ConfigError, match="p > 3 is not supported, got p = 4"):
        estimate_density(obs, _table("narrow"), [np.zeros(2)] * 4)


def _refuse(*args, **kwargs):
    raise AssertionError("a lookup ran before the inputs were checked")


def _refuse_lookups(monkeypatch):
    for owner, name in [(estimator, "eval_table"), (estimator, "_untraced_eval_table"),
                        (estimator, "_interval_sums"), (deconv_kernel, "vh_quadrature")]:
        monkeypatch.setattr(owner, name, _refuse)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_non_finite_grid_axes_refused_before_any_lookup(monkeypatch, p, bad):
    table = _table("wide")
    _refuse_lookups(monkeypatch)
    obs = _obs_from_values(np.zeros(3 * _JCHUNK), 0.1, (0.1, 0.2, 0.3)[:p])
    axes = [np.linspace(-1.0, 1.0, 7) for _ in range(p)]
    axes[-1][[3, 5]] = bad
    threads = threading.active_count()
    with pytest.raises(ConfigError, match=f"grid axis {p - 1} must be finite, got 2 "
                                          f"non-finite, the first at index 3"):
        estimate_density(obs, table, axes)
    assert threading.active_count() == threads


def test_two_dimensional_grid_axis_refused(monkeypatch):
    monkeypatch.setattr(estimator, "_interval_sums", _refuse)
    obs = _obs_from_values(np.zeros(50), 0.1, (0.1,))
    with pytest.raises(ConfigError, match=r"grid axis 0 must be 1-D, got shape \(2, 3\)"):
        estimate_density(obs, _table("wide"), [np.zeros((2, 3))])


def test_empty_grid_axis_and_log_sq_refused(monkeypatch):
    _refuse_lookups(monkeypatch)
    obs = _obs_from_values(np.zeros(50), 0.1, (0.1,))
    with pytest.raises(ConfigError) as info:
        estimate_density(obs, _table("wide"), [[]])
    assert str(info.value) == "grid axis 0 must be non-empty"
    with pytest.raises(ConfigError) as info:
        DensityGrid(axes=(np.arange(2.0), []), values=np.zeros((2, 0)))
    assert str(info.value) == "grid axis 1 must be non-empty"
    with pytest.raises(InputError) as info:
        ObservationSet(delta=0.1, log_sq=[], times=(0.1,))
    assert str(info.value) == "log_sq must be non-empty"


@pytest.mark.parametrize("p", [1, 2, 3])
def test_off_lattice_data_refused_before_any_lookup(monkeypatch, p):
    _refuse_lookups(monkeypatch)
    log_sq = np.zeros(3 * _JCHUNK)
    log_sq[100] = 200.0
    obs = _obs_from_values(log_sq, 0.1, (0.1, 0.2, 0.3)[:p])
    axes = [np.linspace(-1.0, 1.0, 7) for _ in range(p)]
    threads = threading.active_count()
    with pytest.raises(InputError) as info:
        estimate_density(obs, _table("wide"), axes)
    assert str(info.value) == ("observations in [0, 200] take grid axis 0's arguments to "
                               "[-287.1, 1.429], off the table span [-150, 150]")
    assert threading.active_count() == threads


@functools.lru_cache(maxsize=None)
def _exact_table():
    # h and the lattice ends are exact in binary, so an argument can land
    # exactly on t_0 or t_{L-1} in both rounding forms
    return build_table(SPEC, 0.5, -40.0, 40.0, 1601)


@pytest.mark.parametrize("end", [0, -1])
@pytest.mark.parametrize("p", [1, 2])
def test_lattice_ends_taken_and_one_ulp_past_refused(p, end):
    table = _exact_table()
    h, t = table.bandwidth, table.grid_x
    x = np.array([-1.0, 0.0, 1.5])
    # the value whose argument from the grid's far end is the lattice end
    far = x[0] if end == 0 else x[-1]
    edge = far - h * t[end]
    assert (far - edge) / h == t[end]
    y = np.array([0.3, edge, -0.4, 1.1, 0.2])
    obs = _obs_from_values(y, 0.1, (0.1, 0.2)[:p])
    est = estimate_density(obs, table, [x] * p).values
    factors = [eval_table(table, (x[:, None] - col) / h) for col in _observation_matrix(obs).T]
    ref = factors[0].sum(axis=1) if p == 1 else factors[0] @ factors[1].T
    ref /= obs.m * h**p
    scale = max(np.max(np.abs(ref)), (table.sup_bound / h) ** p)
    assert np.max(np.abs(est - ref)) <= 1e-12 * scale
    y[1] = np.nextafter(edge, np.inf if end == 0 else -np.inf)
    with pytest.raises(InputError, match="off the table span"):
        estimate_density(_obs_from_values(y, 0.1, (0.1, 0.2)[:p]), table, [x] * p)


def test_each_rounding_form_of_the_coverage_check_refuses():
    # at h = 0.7 the quotient (x - y)/h and the breakpoint x - h t round
    # differently near the lattice ends: a value that one form takes and the
    # other does not is refused, whichever form it fails
    table = build_table(SPEC, _H, -40.0, 40.0, 321)
    h, t0, t1 = table.bandwidth, table.grid_x[0], table.grid_x[-1]
    failed = set()
    for x in np.linspace(-10.0, 10.0, 201):
        for t in (t0, t1):
            y = x - h * t
            for _ in range(3):
                y = np.nextafter(y, -np.inf)
            for _ in range(7):
                by_quotient = bool(t0 <= (x - y) / h <= t1)
                by_breakpoint = bool(x - h * t1 <= y <= x - h * t0)
                if by_quotient != by_breakpoint:
                    failed.add(("breakpoint" if by_quotient else "quotient", t))
                    with pytest.raises(InputError, match="off the table span"):
                        estimate_density(_obs_from_values([y], 0.1, (0.1,)), table, [[x]])
                y = np.nextafter(y, np.inf)
    assert failed == {(form, t) for form in ("quotient", "breakpoint") for t in (t0, t1)}


def _sweep_case(p, blocks, seed):
    """(obs, axes) with m spanning the given number of
    _JCHUNK blocks; at p = 2 both axes share one grid (one lookup matrix per
    block), at p = 3 two of the three do."""
    m = {1: 500, 2: _JCHUNK + 1, 3: 2 * _JCHUNK + 7, 4: 4 * _JCHUNK, 7: 6 * _JCHUNK + 300}[blocks]
    times = (0.14, 0.52) if p == 2 else (0.31, 0.75, 1.02)
    offsets = [int(t / _DELTA) for t in times]
    rng = np.random.default_rng(seed)
    n = m + max(offsets) - min(offsets)
    inc = rng.standard_normal(n) * np.exp(rng.normal(0.0, 1.0, n))
    obs = ObservationSet.from_increments(inc, _DELTA, times)
    assert obs.m == m
    grid = np.linspace(-9.0, 4.0, 9)
    return obs, [grid, grid] if p == 2 else [grid, grid, np.linspace(-6.0, 3.0, 5)]


def _worker_lookups(monkeypatch):
    """Thread idents of the calls to the workers' eval_table reference."""
    idents, real = [], estimator._untraced_eval_table

    def record(table, x):
        idents.append(threading.get_ident())
        return real(table, x)

    monkeypatch.setattr(estimator, "_untraced_eval_table", record)
    return idents


@pytest.mark.parametrize("kind", ["wide", "narrow"])
@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("p", [2, 3])
def test_threaded_sweep_matches_interp_reference(monkeypatch, p, blocks, kind):
    idents = _worker_lookups(monkeypatch)
    obs, axes = _sweep_case(p, blocks, seed=10 * p + blocks)
    if kind == "narrow":
        # arguments off the lattice: refused before any lookup
        with pytest.raises(InputError, match="off the table span"):
            estimate_density(obs, _table(kind), axes)
        assert idents == []
        return
    est = estimate_density(obs, _table(kind), axes)
    np.testing.assert_array_equal(est.values, _interp_sweep(obs, _table(kind), axes))
    # the workers run with two or more blocks, one lookup per block and
    # shared group
    assert len(idents) == (blocks * (p - 1) if blocks > 1 else 0)
    assert threading.get_ident() not in idents


def test_concurrent_threaded_sweeps_match_reference():
    cases = [_sweep_case(2, 7, seed=1), _sweep_case(3, 4, seed=2)]
    expect = [_interp_sweep(obs, _table("wide"), axes) for obs, axes in cases]
    results = [None] * len(cases)

    def run(i):
        obs, axes = cases[i]
        results[i] = estimate_density(obs, _table("wide"), axes).values

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        for t in callers:
            t.start()
        for t in callers:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(results, expect):
        np.testing.assert_array_equal(got, want)


# K: most block arrays (8 * _BREAKPOINT_BLOCK bytes: one block's breakpoint
# indices) that the p = 1 interval sums may hold beside 24 bytes per value
# (the sorted copy and its long-double prefix sums).  A block makes about a
# dozen such arrays, the long-double ones counting twice; the measured peak
# at m = 1e6 was 13.0 of them.  Prefix sums cast from a
# whole long-double copy and then concatenated held 16 MB more.
PEAK_BREAKPOINT_ARRAYS = 16


def test_p1_estimate_memory_stays_within_24_bytes_a_value():
    m = 1_000_000
    z = np.random.default_rng(8).standard_normal(m)
    obs = _obs_from_values(2.0 * np.log(np.abs(z)), 1e-6, (0.5,))
    grid = np.linspace(-9.0, 4.0, 121)
    table = table_for_axes("poly3", 2.0, [grid])
    estimate_density(obs, table, [grid])  # the table's slope, untraced
    tracemalloc.start()
    try:
        estimate_density(obs, table, [grid])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 24 * (m + 1) + PEAK_BREAKPOINT_ARRAYS * 8 * _BREAKPOINT_BLOCK
    assert peak <= bound, ((peak - 24 * (m + 1)) / (8 * _BREAKPOINT_BLOCK), bound)


# K: most block matrices (8 * G * _JCHUNK bytes: one block's lookups for a
# G-point axis) that a p = 2 sweep may hold beyond its accumulator.  This
# thread holds two blocks' lookup matrices while the workers fill two more
# (4.1 matrices with the lags' overlap), and each worker's band temporaries
# are about one matrix at G = 61 (a band is a quarter of one), so the sweep
# can reach about 6.1; K is that rounded up.  Measured over 30 sweeps of 5
# blocks: 3.3 to 5.0.  Lookups of a whole block per call held 5.0 to 9.1,
# and above 7 in 26 of the 30.
PEAK_BLOCK_MATRICES = 7


def test_sweep_memory_stays_within_a_few_block_matrices():
    m, times = 4 * _JCHUNK + 1, (0.14, 0.52)  # 5 blocks
    offsets = [int(t / _DELTA) for t in times]
    rng = np.random.default_rng(5)
    n = m + offsets[-1] - offsets[0]
    obs = ObservationSet.from_increments(rng.standard_normal(n) * np.exp(rng.normal(0.0, 1.0, n)),
                                         _DELTA, times)
    grid = np.linspace(-9.0, 4.0, 61)
    estimate_density(obs, _table("wide"), [grid, grid])  # the table's slope, untraced
    peaks = []
    for _ in range(5):  # the highest of a few, as the workers' overlap varies
        tracemalloc.start()
        try:
            est = estimate_density(obs, _table("wide"), [grid, grid])
            peaks.append(tracemalloc.get_traced_memory()[1] - est.values.nbytes)
        finally:
            tracemalloc.stop()
    block_bytes = 8 * grid.size * _JCHUNK
    assert max(peaks) <= PEAK_BLOCK_MATRICES * block_bytes, max(peaks) / block_bytes


def test_failed_block_lookup_surfaces_and_stops_the_workers(monkeypatch):
    # log_sq[j] is j's block index and the grid is the one point 0, so a
    # block's largest argument (0 - b)/h names its block b
    obs = _obs_from_values(np.arange(7 * _JCHUNK + 1) // _JCHUNK, _DELTA, (0.15, 0.25))
    assert obs.m == 7 * _JCHUNK and obs.index_offsets == (1, 2)
    real = estimator._untraced_eval_table

    def fail_on_block_3(table, x):
        if round(-x.max() * table.bandwidth) == 3:
            raise RuntimeError("lookup failed on block 3")
        return real(table, x)

    monkeypatch.setattr(estimator, "_untraced_eval_table", fail_on_block_3)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="lookup failed on block 3"):
        estimate_density(obs, _table("wide"), [np.zeros(1), np.zeros(1)])
    assert threading.active_count() == threads


def test_traced_lookups_and_quadrature_stay_on_the_calling_thread(monkeypatch):
    # the traced eval_table runs on the calling thread only (one-block
    # sweeps), the p = 1 interval sums make no lookup, and the direct
    # quadrature never runs
    calls = {"eval_table": [], "vh_quadrature": []}
    for owner, name in [(estimator, "eval_table"), (deconv_kernel, "vh_quadrature")]:
        real = getattr(owner, name)

        def record(*args, _real=real, _name=name):
            calls[_name].append(threading.get_ident())
            return _real(*args)

        monkeypatch.setattr(owner, name, record)
    idents = _worker_lookups(monkeypatch)
    for p, blocks in [(2, 7), (3, 4), (2, 1), (3, 1)]:
        obs, axes = _sweep_case(p, blocks, seed=p)
        estimate_density(obs, _table("wide"), axes)
        with pytest.raises(InputError, match="off the table span"):
            estimate_density(obs, _table("narrow"), axes)
    traced = len(calls["eval_table"])
    estimate_density(ObservationSet(delta=_DELTA, log_sq=obs.log_sq, times=(0.1,)),
                     _table("wide"), axes[:1])
    assert len(calls["eval_table"]) == traced
    assert any(i != threading.get_ident() for i in idents)  # the workers did run
    assert calls["eval_table"] and calls["vh_quadrature"] == []
    assert set(calls["eval_table"]) == {threading.get_ident()}
