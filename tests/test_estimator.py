"""Tests for the observation pipeline and the product-kernel density
estimator: increment normalization, log-square transform, index arithmetic,
bandwidth schedule, and grid evaluation."""

import functools

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as sst
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voldeconv import (
    EstimatorConfig,
    ObservationSet,
    OUParams,
    ScheduleWarning,
    build_table,
    builtin_kernel,
    default_bandwidth,
    delta_schedule,
    estimate_density,
    eval_table,
    eval_w,
    log_square_transform,
    marginalize,
    normalized_increments,
    simulate_bundle,
    vh_quadrature,
)
from voldeconv.errors import ConfigError, InputError
from voldeconv.estimator import _JCHUNK, DensityGrid, _observation_matrix
from voldeconv.vol_sim import integrate_price, simulate_ou

SPEC = builtin_kernel("poly3")


def _obs_from_values(log_sq, delta, times):
    data = np.asarray(log_sq, dtype=float)
    offsets = tuple(int(np.floor((t / delta) * (1.0 + 1e-9))) for t in times)
    return ObservationSet(
        delta=delta, log_sq=data, times=tuple(times), index_offsets=offsets, n_clamped=0
    )


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
    vals, clamped = log_square_transform(np.array([0.0]), clamp_floor=1e-6)
    assert vals[0] == pytest.approx(2.0 * np.log(1e-6), rel=1e-14)


def test_log_square_matches_noise_law():
    rng = np.random.default_rng(42)
    z = rng.standard_normal(100_000)
    vals, clamped = log_square_transform(z)
    assert clamped == 0
    cdf = lambda u: sps.erf(np.exp(np.asarray(u) / 2.0) / np.sqrt(2.0))
    assert sst.kstest(vals, cdf).statistic < 0.006  # measured 0.0025 at this seed


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
        ObservationSet(delta=0.1, log_sq=np.zeros(50), times=(np.nan,), index_offsets=(0,))
    with pytest.raises(ConfigError, match=r"must be positive, got \[nan\]"):
        ObservationSet(delta=0.1, log_sq=np.zeros(50), times=(1.0, np.nan),
                       index_offsets=(10, 10))
    inc = np.linspace(0.1, 1.0, 50)
    with pytest.raises(ConfigError, match=r"must be positive, got \[nan\]"):
        ObservationSet.from_increments(inc, 0.1, (0.5, np.nan))
    with pytest.raises(ConfigError, match=r"must be finite, got \[0.5, inf\]"):
        ObservationSet.from_increments(inc, 0.1, (0.5, np.inf))


def test_observation_set_sorts_times():
    inc = np.linspace(0.1, 1.0, 30)
    a = ObservationSet.from_increments(inc, 0.1, (1.5, 0.4))
    b = ObservationSet.from_increments(inc, 0.1, (0.4, 1.5))
    assert a.times == b.times == (0.4, 1.5)
    assert a.axis_order == (1, 0)
    assert b.axis_order == (0, 1)
    np.testing.assert_array_equal(a.log_sq, b.log_sq)


def test_bandwidth_schedule():
    cfg = EstimatorConfig(gamma=10.0, delta_exp=0.5)
    h = default_bandwidth(22026, 1, cfg)  # n = e^10 rounded
    assert abs(h - np.pi) < 1e-4
    assert delta_schedule(10_000, EstimatorConfig(gamma=10.0, delta_exp=0.5)) == pytest.approx(0.01)
    cfg_override = EstimatorConfig(gamma=10.0, delta_exp=0.5, bandwidth_override=0.8)
    assert default_bandwidth(1_000_000, 1, cfg_override) == 0.8


def test_bandwidth_warning_when_gamma_too_small():
    # p = 2, delta_exp = 0.5 requires gamma > 16
    with pytest.warns(ScheduleWarning):
        default_bandwidth(10_000, 2, EstimatorConfig(gamma=10.0, delta_exp=0.5))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        default_bandwidth(10_000, 2, EstimatorConfig(gamma=17.0, delta_exp=0.5))


def test_estimator_config_validation():
    with pytest.raises(ConfigError):
        EstimatorConfig(gamma=-1.0, delta_exp=0.5)
    with pytest.raises(ConfigError):
        EstimatorConfig(gamma=9.0, delta_exp=1.5)
    with pytest.raises(ConfigError):
        EstimatorConfig(gamma=9.0, delta_exp=0.5, bandwidth_override=-0.1)


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


def test_swapped_times_transpose():
    h = 1.1
    tbl = build_table(SPEC, h, -40.0, 40.0, 4097)
    bundle = simulate_bundle("ou", OUParams(a=2.0, mu=0.0, b=2.0), 400, 0.05, seed=21)
    x1 = np.linspace(-5.0, 5.0, 11)
    x2 = np.linspace(-4.0, 6.0, 9)
    fwd = ObservationSet.from_increments(bundle.increments, bundle.delta, (1.0, 1.25))
    rev = ObservationSet.from_increments(bundle.increments, bundle.delta, (1.25, 1.0))
    est_fwd = estimate_density(fwd, tbl, (x1, x2))
    est_rev = estimate_density(rev, tbl, (x2, x1))
    np.testing.assert_array_equal(est_rev.values, est_fwd.values.T)


@settings(max_examples=20, deadline=None)
@given(
    p=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
    times=st.lists(st.floats(0.05, 3.0), min_size=3, max_size=3, unique=True),
    sizes=st.lists(st.integers(1, 9), min_size=3, max_size=3),
)
def test_reversed_times_give_transposed_grid(p, seed, times, sizes):
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal(300) * np.exp(rng.normal(0.0, 1.0, 300))
    times = times[:p]
    axes = [np.sort(rng.uniform(-12.0, 6.0, sizes[k])) for k in range(p)]
    fwd = ObservationSet.from_increments(inc, 0.05, times)
    rev = ObservationSet.from_increments(inc, 0.05, times[::-1])
    tbl = _table("wide")
    est_fwd = estimate_density(fwd, tbl, axes)
    est_rev = estimate_density(rev, tbl, axes[::-1])
    np.testing.assert_array_equal(est_rev.values, est_fwd.values.T)


def _interp_sweep(obs, table, axes):
    """The p >= 2 estimate with np.interp as the on-lattice lookup, in the
    estimator's block and summation order."""
    h = table.bandwidth
    t = table.grid_x

    def lookup(x):
        out = np.interp(x, t, table.values)
        off = (x < t[0]) | (x > t[-1])
        out[off] = vh_quadrature(table.kernel, h, x[off])
        return out

    ymat = _observation_matrix(obs)
    axes = [np.asarray(axes[k], dtype=float) for k in obs.axis_order]
    acc = np.zeros(tuple(a.size for a in axes))
    for lo in range(0, ymat.shape[0], _JCHUNK):
        blk = ymat[lo : lo + _JCHUNK]
        f = [lookup((axes[k][:, None] - blk[None, :, k]) / h) for k in range(obs.p)]
        acc += f[0] @ f[1].T if obs.p == 2 else np.einsum("am,bm,cm->abc", *f)
    return np.transpose(acc / (ymat.shape[0] * h**obs.p), np.argsort(obs.axis_order))


@pytest.mark.parametrize("times", [(1.0, 1.25), (1.25, 0.5, 1.0)])
def test_sweep_matches_interp_reference(times):
    # m spans two observation blocks; the narrow table sends the far grid
    # points' arguments off the lattice onto the quadrature
    bundle = simulate_bundle("ou", OUParams(a=2.0, mu=0.0, b=2.0), _JCHUNK + 700, 0.05, seed=3)
    obs = ObservationSet.from_increments(bundle.increments, bundle.delta, times)
    assert obs.m > _JCHUNK
    axes = [np.linspace(-9.0 + k, 4.0 + k, 9 + 2 * k) for k in range(len(times))]
    for kind in ("wide", "narrow"):
        est = estimate_density(obs, _table(kind), axes)
        np.testing.assert_array_equal(est.values, _interp_sweep(obs, _table(kind), axes))


def test_grid_mass_near_one():
    bundle = simulate_bundle("ou", OUParams(a=2.0, mu=0.0, b=2.0), 10_000, 10_000**-0.5, seed=5)
    obs = ObservationSet.from_increments(bundle.increments, bundle.delta, (1.0,))
    tbl = build_table(SPEC, 0.8, -40.0, 40.0, 4097)
    est = estimate_density(obs, tbl, (np.linspace(-16.0, 16.0, 321),))
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
    obs1 = ObservationSet(
        delta=obs2.delta, log_sq=obs2.log_sq[:m], times=(1.0,),
        index_offsets=(obs2.index_offsets[0],),
    )
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
    with pytest.raises(InputError, match="3 non-finite .* index 7"):
        ObservationSet.from_increments(inc, 0.1, (0.5,))


_H = 0.7
_FLOOR = 2.0 * np.log(1e-12)  # log_square_transform's clamp floor


@functools.lru_cache(maxsize=None)
def _table(kind):
    # wide: every argument (x - y)/h below stays on the lattice; narrow:
    # most fall off it and take the exact quadrature fallback
    if kind == "wide":
        return build_table(SPEC, _H, -150.0, 150.0, 6001)
    return build_table(SPEC, _H, -8.0, 8.0, 321)


@st.composite
def _p1_cases(draw):
    kind = draw(st.sampled_from(("wide", "narrow")))
    m = draw(st.integers(1, 2000 if kind == "wide" else 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.normal(draw(st.floats(-10.0, 10.0)), draw(st.floats(0.01, 8.0)), m)
    lo = draw(st.floats(-70.0, 0.0))
    x = np.linspace(lo, lo + draw(st.floats(0.0, 110.0)), draw(st.integers(1, 20)))
    tbl = _table(kind)
    # duplicated values, values on the clamp floor, and values whose
    # argument for some grid point is exactly a table knot
    pick = rng.integers(0, 4, m)
    y[pick == 1] = rng.choice(y, int(np.sum(pick == 1)))
    y[pick == 2] = _FLOOR
    on_knot = np.flatnonzero(pick == 3)
    y[on_knot] = rng.choice(x, on_knot.size) - _H * rng.choice(tbl.grid_x, on_knot.size)
    return tbl, y, x


@settings(max_examples=60, deadline=None)
@given(_p1_cases())
# grid wholly in v_h's far tail: the estimate is ~6e-8, while the
# reference's own quadrature rounding is ~1e-18 and depends on batch shape
@example((_table("narrow"), np.array([0.79925574]), np.array([-53.0, -53.0])))
def test_p1_interval_sums_match_direct_sum(case):
    tbl, y, x = case
    obs = _obs_from_values(y, 0.1, (0.1,))
    est = estimate_density(obs, tbl, (x,)).values
    ref = eval_table(tbl, (x[:, None] - y[None, :]) / _H).sum(axis=1) / (y.size * _H)
    # relative to the larger of the estimate and its uniform bound
    # sup|v_h| / h, below which quadrature rounding sets the floor
    scale = max(np.max(np.abs(ref)), tbl.sup_bound / _H)
    assert np.max(np.abs(est - ref)) <= 1e-12 * scale
