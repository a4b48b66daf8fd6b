"""Tests for path simulation: the mean-reverting log-variance diffusion, the
two-state switching process, price integration, and the bundled generator."""

import hashlib
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.signal
import scipy.stats as sst
from hypothesis import given, settings
from hypothesis import strategies as st

from voldeconv import (
    OUParams,
    PathBundle,
    RegimeSwitchParams,
    integrate_price,
    markov_transition,
    simulate_bundle,
    simulate_ou,
    simulate_regime_switch,
)
from voldeconv import vol_sim
from voldeconv.errors import ConfigError, InputError, NotFoundError


OU = OUParams(a=2.0, mu=0.0, b=2.0)  # stationary N(0, 1)
REGIME = RegimeSwitchParams(
    a0=1.0, a1=1.0, ou0=OUParams(2.0, -2.0, 2.0), ou1=OUParams(2.0, 2.0, 2.0)
)


def test_ou_params_validation():
    with pytest.raises(ConfigError):
        OUParams(a=-1.0, mu=0.0, b=1.0)
    with pytest.raises(ConfigError):
        OUParams(a=1.0, mu=0.0, b=0.0)
    assert OUParams(a=2.0, mu=0.0, b=2.0).stationary_var == pytest.approx(1.0)


def test_ou_stationary_moments():
    dt = 0.25
    path = simulate_ou(OU, 200_000, dt, seed=100)
    assert abs(np.mean(path) - OU.mu) < 0.05
    assert abs(np.var(path) - OU.stationary_var) < 0.05
    lag1 = np.corrcoef(path[:-1], path[1:])[0, 1]
    assert abs(lag1 - np.exp(-OU.a * dt)) < 0.02


def test_ou_starts_stationary():
    # pool the first entry over many fresh paths: marginal is N(mu, b^2/2a)
    firsts = np.array([simulate_ou(OU, 2, 0.1, seed=s)[0] for s in range(4000)])
    assert abs(np.mean(firsts)) < 0.06
    assert abs(np.var(firsts) - 1.0) < 0.08


def test_ou_stationarity_halves():
    path = simulate_ou(OU, 400_000, 0.1, seed=8)
    a, b = path[:200_000], path[200_000:]
    # crude 3-sigma bands for dependent data, effective size ~ n*(1-rho)/(1+rho)
    assert abs(np.mean(a) - np.mean(b)) < 0.05
    assert abs(np.var(a) - np.var(b)) < 0.05


def test_ou_deterministic():
    a = simulate_ou(OU, 1000, 0.1, seed=3)
    b = simulate_ou(OU, 1000, 0.1, seed=3)
    c = simulate_ou(OU, 1000, 0.1, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_markov_transition_properties():
    np.testing.assert_allclose(markov_transition(1.0, 3.0, 0.0), np.eye(2), atol=1e-15)
    pi = np.array(RegimeSwitchParams(1.0, 3.0, OU, OU).stationary_probs)
    for t in (0.1, 0.5, 2.0):
        q = markov_transition(1.0, 3.0, t)
        np.testing.assert_allclose(q.sum(axis=0), [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(q @ pi, pi, atol=1e-14)
        assert np.all(q >= 0.0)


def test_markov_transition_matches_matrix_exponential():
    for a0, a1, t in ((1.0, 3.0, 0.37), (0.2, 0.5, 2.0), (5.0, 0.1, 0.8)):
        gen = np.array([[-a0, a1], [a0, -a1]])
        np.testing.assert_allclose(markov_transition(a0, a1, t), sla.expm(gen * t), atol=1e-13)


def test_markov_transition_validation():
    with pytest.raises(ConfigError):
        markov_transition(-1.0, 1.0, 0.5)
    with pytest.raises(ConfigError):
        markov_transition(1.0, 1.0, -0.5)


def test_regime_occupancy():
    # separate the component means so the occupied state is readable off
    # the path; pi = (a1, a0)/(a0+a1) = (0.75, 0.25)
    params = RegimeSwitchParams(a0=1.0, a1=3.0, ou0=OUParams(2.0, -50.0, 2.0), ou1=OUParams(2.0, 50.0, 2.0))
    np.testing.assert_allclose(params.stationary_probs, (0.75, 0.25), rtol=1e-14)
    xi = simulate_regime_switch(params, 1_000_000, 1.0, seed=2)
    assert abs(np.mean(xi > 0.0) - 0.25) < 0.01


def test_regime_marginal_distribution():
    xi = simulate_regime_switch(REGIME, 100_000, 0.05, seed=9)
    sd = np.sqrt(REGIME.ou0.stationary_var)

    def mix_cdf(u):
        z0 = (np.asarray(u) - REGIME.ou0.mu) / sd
        z1 = (np.asarray(u) - REGIME.ou1.mu) / sd
        return 0.5 * (sst.norm.cdf(z0) + sst.norm.cdf(z1))

    assert sst.kstest(xi, mix_cdf).statistic < 0.01


def test_regime_absorbing_limit():
    # switching out of state 1 is off: the chain settles into state 1 and
    # the path follows the second component
    params = RegimeSwitchParams(a0=1.0, a1=1e-8, ou0=OUParams(2.0, -5.0, 2.0), ou1=OUParams(2.0, 5.0, 2.0))
    np.testing.assert_allclose(params.stationary_probs, (1e-8 / (1.0 + 1e-8), 1.0 / (1.0 + 1e-8)), rtol=1e-9)
    xi = simulate_regime_switch(params, 100_000, 0.05, seed=60)
    assert abs(np.mean(xi) - 5.0) < 0.1


def test_regime_deterministic():
    a = simulate_regime_switch(REGIME, 5000, 0.05, seed=31)
    b = simulate_regime_switch(REGIME, 5000, 0.05, seed=31)
    assert np.array_equal(a, b)


def test_integrate_price_constant_volatility():
    sigma2 = np.full(1_000_000, 4.0)
    inc = integrate_price(sigma2, 1e-4, 1e-3, seed=12)
    assert inc.shape == (100_000,)
    assert abs(np.var(inc) - 4.0) < 0.08  # normalized variance = sigma^2
    assert abs(np.mean(inc)) < 0.02


def test_integrate_price_frozen_block_variance():
    # conditionally on the path, each increment is Gaussian with variance
    # equal to the block average of sigma^2
    rng = np.random.default_rng(14)
    sigma2 = np.exp(rng.standard_normal(50))
    block = np.mean(sigma2)
    draws = np.array([integrate_price(sigma2, 1e-3, 0.05, seed=s)[0] for s in range(4000)])
    assert abs(np.var(draws) - block) < 0.03 * block


def test_integrate_price_drift():
    sigma2 = np.full(100_000, 1.0)
    delta = 0.1
    inc = integrate_price(sigma2, 1e-3, delta, drift=lambda t: 1.0, seed=44)
    # mean shift = drift * delta / sqrt(delta) = sqrt(delta)
    assert abs(np.mean(inc) - np.sqrt(delta)) < 0.01


def test_integrate_price_ratio_guards():
    sigma2 = np.ones(100)
    with pytest.raises(ConfigError):
        integrate_price(sigma2, 1e-3, 5e-3, seed=0)  # ratio 5 < 10
    with pytest.raises(ConfigError):
        integrate_price(sigma2, 1e-3, 0.0153, seed=0)  # non-integer ratio
    with pytest.raises(ConfigError):
        integrate_price(np.ones(105), 1e-3, 0.01, seed=0)  # length not a multiple
    with pytest.raises(InputError, match="50 non-positive sigma\\^2 values, the first at index 1"):
        integrate_price(np.array([1.0, -1.0] * 50), 1e-3, 0.01, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_drift_is_refused(bad):
    # inf * t is NaN at t = 0 and inf after, so every increment is non-finite;
    # simulate_bundle refuses the same increments, through PathBundle
    message = "increments must be finite, got 10 non-finite, the first at index 0"
    with np.errstate(invalid="ignore"), pytest.raises(InputError) as info:
        integrate_price(np.ones(100), 0.1, 1.0, drift=lambda t: bad * t)
    assert str(info.value) == message
    with np.errstate(invalid="ignore"), pytest.raises(InputError) as info:
        simulate_bundle("ou", OU, 10, 0.1, seed=1, drift=lambda t: bad * t)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_variance_is_refused(bad):
    # NaN passes a bare `sigma2 <= 0` test and would give NaN increments
    sigma2 = np.array([1.0, bad] * 10)
    with pytest.raises(InputError, match="10 non-finite sigma\\^2 values, the first at index 1"):
        integrate_price(sigma2, 0.1, 1.0)


@pytest.mark.parametrize("model, params, seed, what, bad_piece", [
    ("ou", OUParams(a=1.0, mu=710.0, b=1.0), 1, "non-finite", 1),  # e^X overflows to inf
    ("ou", OUParams(a=1.0, mu=-800.0, b=1.0), 1, "non-positive", 0),  # e^X underflows to 0
    ("regime", RegimeSwitchParams(1.0, 1.0, OU, OUParams(2.0, 400.0, 2.0)), 3, "non-finite", 1),
])
def test_bad_variance_is_refused_at_its_piece(model, params, seed, what, bad_piece):
    # the first bad piece raises before it or any later piece is summed; the
    # message counts that piece's bad values and names the first one's index
    # over the whole path, found here from the unchunked path
    n, delta, ratio, chunk = 200, 0.05, 50, 2
    path_ss = np.random.SeedSequence(seed).spawn(2)[0]
    with np.errstate(over="ignore", under="ignore"):
        if model == "ou":
            sigma2 = np.exp(simulate_ou(params, n * ratio, delta / ratio, path_ss))
        else:
            sigma2 = np.exp(2.0 * simulate_regime_switch(params, n * ratio, delta / ratio, path_ss))
    bad = ~np.isfinite(sigma2) if what == "non-finite" else sigma2 <= 0.0
    first = int(np.flatnonzero(bad)[0])
    piece = first // (chunk * ratio)
    count = int(np.count_nonzero(bad[piece * chunk * ratio:(piece + 1) * chunk * ratio]))
    assert piece == bad_piece
    with mock.patch.object(vol_sim, "_CHUNK", chunk), \
            mock.patch.object(vol_sim, "_price_block", wraps=vol_sim._price_block) as blocks, \
            np.errstate(over="ignore", under="ignore"), pytest.raises(InputError) as info:
        simulate_bundle(model, params, n, delta, seed)
    assert str(info.value) == f"{count} {what} sigma^2 values, the first at index {first}"
    assert blocks.call_count == piece


def test_bundle_shapes_and_determinism():
    b1 = simulate_bundle("ou", OU, 400, 0.05, seed=7)
    b2 = simulate_bundle("ou", OU, 400, 0.05, seed=7)
    b3 = simulate_bundle("ou", OU, 400, 0.05, seed=8)
    assert b1.increments.shape == (400,)
    assert b1.sigma2.shape == (400 * 50,)
    assert b1.subgrid_ratio == 50
    assert np.array_equal(b1.increments, b2.increments)
    assert np.array_equal(b1.sigma2, b2.sigma2)
    assert not np.array_equal(b1.increments, b3.increments)


def test_bundle_volatility_scale():
    # the bundled path is sigma^2 = exp(log-variance): for the regime model
    # log sigma^2 = 2 xi, so log(sigma2) has the mixture law; decimate to
    # time spacing 2.0 so serial dependence is negligible for the KS check
    b = simulate_bundle("regime", REGIME, 40_000, 0.05, seed=3)
    logs2 = np.log(b.sigma2[::50])[::40]
    sd = 2.0 * np.sqrt(REGIME.ou0.stationary_var)

    def mix_cdf(u):
        z0 = (np.asarray(u) - 2.0 * REGIME.ou0.mu) / sd
        z1 = (np.asarray(u) - 2.0 * REGIME.ou1.mu) / sd
        return 0.5 * (sst.norm.cdf(z0) + sst.norm.cdf(z1))

    assert sst.kstest(logs2, mix_cdf).statistic < 0.05  # measured 0.029



def test_bundle_unknown_model():
    with pytest.raises((ConfigError, NotFoundError)):
        simulate_bundle("garch", OU, 100, 0.05, seed=1)


def test_bundle_validation():
    with pytest.raises(ConfigError):
        simulate_bundle("ou", OU, 100, 0.05, seed=1, subgrid_ratio=5)


@pytest.mark.parametrize(
    "overrides, error, message",
    [
        ({"delta": np.inf}, ConfigError, "delta must be finite and positive, got inf"),
        ({"delta": np.nan}, ConfigError, "delta must be finite and positive, got nan"),
        ({"delta": -0.1}, ConfigError, "delta must be finite and positive, got -0.1"),
        ({"delta": "0.05"}, ConfigError, "delta must be finite and positive, got '0.05'"),
        ({"n": 100.0}, InputError, "n must be an integer, got 100.0"),
        ({"n": True}, InputError, "n must be an integer, got True"),
        ({"n": 0}, InputError, "n must be at least 1, got 0"),
        ({"subgrid_ratio": 50.5}, ConfigError, "subgrid_ratio must be an integer, got 50.5"),
        ({"subgrid_ratio": 9}, ConfigError, "subgrid_ratio must be at least 10, got 9"),
        ({"params": REGIME}, ConfigError, "model 'ou' needs OUParams params, got RegimeSwitchParams"),
        # numpy would run True as seed 1 and refuse 1.5 and -1 without naming the seed
        ({"seed": True}, ConfigError, "seed must be an integer, got True"),
        ({"seed": 1.5}, ConfigError, "seed must be an integer, got 1.5"),
        ({"seed": -1}, ConfigError, "seed must be at least 0, got -1"),
    ],
)
def test_bundle_arguments_are_checked_first(overrides, error, message):
    args = dict(model="ou", params=OU, n=100, delta=0.05, seed=1)
    args.update(overrides)
    with pytest.raises(error) as info:
        simulate_bundle(**args)
    assert str(info.value) == message


@pytest.mark.parametrize("simulate", [
    lambda seed: simulate_ou(OU, 10, 0.1, seed),
    lambda seed: simulate_regime_switch(REGIME, 10, 0.1, seed),
    lambda seed: integrate_price(np.ones(20), 0.01, 0.1, seed=seed),
], ids=["simulate_ou", "simulate_regime_switch", "integrate_price"])
@pytest.mark.parametrize("seed, message", [
    # numpy would run True as seed 1 and refuse the others without naming the seed
    (True, "seed must be an integer, got True"),
    (1.5, "seed must be an integer, got 1.5"),
    (np.nan, "seed must be an integer, got nan"),
    (-1, "seed must be at least 0, got -1"),
])
def test_simulators_refuse_a_bad_seed(simulate, seed, message):
    with pytest.raises(ConfigError) as info:
        simulate(seed)
    assert str(info.value) == message


def test_bundle_accepts_numpy_scalars():
    a = simulate_bundle("ou", OU, np.int64(40), np.float64(0.05), seed=2, subgrid_ratio=np.int32(20))
    b = simulate_bundle("ou", OU, 40, 0.05, seed=2, subgrid_ratio=20)
    assert np.array_equal(a.increments, b.increments)


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(["ou", "regime"]),
    n=st.integers(1, 120),
    chunk=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
    with_drift=st.booleans(),
)
def test_any_chunk_size_gives_the_same_bits(model, n, chunk, seed, with_drift):
    params = OU if model == "ou" else REGIME
    drift = (lambda t: 0.5 * np.sin(3.0 * t)) if with_drift else None
    with mock.patch.object(vol_sim, "_CHUNK", n):
        whole = simulate_bundle(model, params, n, 0.05, seed, subgrid_ratio=10, drift=drift)
    with mock.patch.object(vol_sim, "_CHUNK", chunk):
        pieces = simulate_bundle(model, params, n, 0.05, seed, subgrid_ratio=10, drift=drift)
    assert np.array_equal(pieces.sigma2, whole.sigma2)
    assert np.array_equal(pieces.increments, whole.increments)


@pytest.mark.parametrize("model", ["ou", "regime"])
def test_bundle_is_the_simulate_exp_integrate_composition(model):
    # the unchunked pipeline written out: simulate the whole fine path, take
    # sigma^2, integrate; 600 increments are 9 chunks of 64 and a partial one
    n, delta, seed, ratio = 600, 0.05, 21, 50
    fine_dt = delta / ratio
    drift = lambda t: 0.3 * np.cos(t)  # noqa: E731
    path_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    if model == "ou":
        sigma2 = np.exp(simulate_ou(OU, n * ratio, fine_dt, path_ss))
    else:
        sigma2 = np.exp(2.0 * simulate_regime_switch(REGIME, n * ratio, fine_dt, path_ss))
    increments = integrate_price(sigma2, fine_dt, delta, drift=drift, seed=noise_ss)
    with mock.patch.object(vol_sim, "_CHUNK", 64):
        bundle = simulate_bundle(model, OU if model == "ou" else REGIME, n, delta, seed, drift=drift)
    assert np.array_equal(bundle.sigma2, sigma2)
    assert np.array_equal(bundle.increments, increments)


@pytest.mark.parametrize("dt", [1e-3, 0.05 / 50, 0.1, 1.0 / 3.0, 7.3e-5])
def test_switch_index_matches_a_search_of_the_grid(dt):
    # jump times at, just below and just above every grid point, and past
    # the end, where the plain ceil(time / dt) is often one step off
    n_steps = 20_000
    grid = np.arange(n_steps) * dt
    times = np.concatenate([
        grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf), [n_steps * dt, 2e9 * dt]
    ])
    expected = np.searchsorted(grid, times, side="left")
    assert np.array_equal(vol_sim._first_at_or_after(times, dt, n_steps), expected)


def test_concurrent_bundles_match_serial_ones():
    # each call owns its threads: four calls at once, with thread switches
    # forced often, give the serial bits
    seeds = range(8)
    with mock.patch.object(vol_sim, "_CHUNK", 7):
        serial = [simulate_bundle("regime", REGIME, 200, 0.05, s).increments for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(simulate_bundle, "regime", REGIME, 200, 0.05, s) for s in seeds]
                together = [f.result(timeout=60).increments for f in futures]
        finally:
            sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(serial, together))


# K: most chunk arrays (8 * _CHUNK * subgrid_ratio bytes each) a bundle may
# hold beyond the increments it returns.  Measured peaks at n = 20 000 and
# 60 000, with and without thread switches forced every 10 us: 6.05 for OU,
# of which 4 are the path's and the shocks' draw buffers, and at most 11.08
# for regime, of which 6 are its three streams' draw buffers; K is each
# rounded up, plus one.  Streams whose pieces piled up would hold about one
# more array per piece.
PEAK_CHUNK_ARRAYS = {"ou": 8, "regime": 13}


@pytest.mark.parametrize("n", [20_000, 60_000])
@pytest.mark.parametrize("model", ["ou", "regime"])
def test_bundle_memory_stays_within_a_few_chunks(model, n):
    params = OU if model == "ou" else REGIME
    simulate_bundle(model, params, 100, 0.1, seed=5)  # first-use imports, untraced
    tracemalloc.start()
    try:
        bundle = simulate_bundle(model, params, n, n**-0.5, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_bytes = 8 * vol_sim._CHUNK * bundle.subgrid_ratio
    beyond = peak - bundle.increments.nbytes
    assert beyond <= PEAK_CHUNK_ARRAYS[model] * chunk_bytes, beyond / chunk_bytes


# One piece of 2048 increments at the default 50 substeps, 0.8 MB.  A
# bundle at n = 1e5 and the default ratio may hold PEAK_CHUNK_ARRAYS of
# them beyond its increments (6.6 MB for OU, 10.6 MB for regime); measured
# 4.7 and 8.7 MB.  Pieces of 4096 increments held 9.5 and 17.3 MB.
PIECE_BYTES = 8 * 2048 * 50


@pytest.mark.parametrize("model", ["ou", "regime"])
def test_default_bundle_memory_stays_within_a_few_pieces(model):
    params = OU if model == "ou" else REGIME
    simulate_bundle(model, params, 100, 0.1, seed=5)  # first-use imports, untraced
    tracemalloc.start()
    try:
        bundle = simulate_bundle(model, params, 100_000, 100_000**-0.5, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    beyond = peak - bundle.increments.nbytes
    assert beyond <= PEAK_CHUNK_ARRAYS[model] * PIECE_BYTES, beyond / PIECE_BYTES


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


# sha256 of sigma2 and increments for 9000 increments at delta 0.05, seed
# 2024, recorded from the unchunked simulator (numpy 2.4, scipy 1.17, x86-64)
PINNED = {
    "ou": ("312f3f44db4d008085926b2e42da533d61878838a726e15332ac7e084d48c76c",
           "1557d76fdd4d0148c2a9ec6ed4fcde2c5964c3493ea5db296e9d1524189c65b7"),
    "regime": ("6a0a7989664527f2756fa0fdb252c6c9950af98c3e7cb584c6101f1cb74f4f55",
               "aefd6f41b1c92d6ffc01606720c5652c539f3803510bf31ec0b4b41984133292"),
}


@pytest.mark.parametrize("model", ["ou", "regime"])
def test_bundle_bits_are_pinned(model):
    bundle = simulate_bundle(model, OU if model == "ou" else REGIME, 9000, 0.05, seed=2024)
    assert (_digest(bundle.sigma2), _digest(bundle.increments)) == PINNED[model]


@pytest.mark.parametrize("model", ["ou", "regime"])
def test_pinned_bits_hold_with_thread_switches_forced(model):
    # 90 chunks per stream, each drawn into its ring while this thread still
    # reads the one before: a buffer overwritten too early changes the bits
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(vol_sim, "_CHUNK", 100):
            bundle = simulate_bundle(model, OU if model == "ou" else REGIME, 9000, 0.05, seed=2024)
    finally:
        sys.setswitchinterval(interval)
    assert (_digest(bundle.sigma2), _digest(bundle.increments)) == PINNED[model]


class _RecordingGenerator:
    """A numpy Generator that records the thread it was made on and the
    arguments and thread of each standard_normal call."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls
        self.thread = threading.get_ident()
        self.draw_threads = []

    def standard_normal(self, *args, **kwargs):
        self._calls.append((self, args, kwargs))
        self.draw_threads.append(threading.get_ident())
        return self._rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("model, streams", [("ou", 2), ("regime", 3)])
def test_every_draw_goes_into_a_two_buffer_ring(model, streams):
    # each stream's normals are drawn with out= into one of two buffers, in
    # turn, and its generator is made on the calling thread, as are the
    # buffers with it: no worker allocates a draw array
    params = OU if model == "ou" else REGIME
    made, calls = [], []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        made.append(_RecordingGenerator(default_rng(seed), calls))
        return made[-1]

    with mock.patch.object(vol_sim, "_CHUNK", 7):
        expected = simulate_bundle(model, params, 200, 0.05, seed=3)
        with mock.patch.object(vol_sim.np.random, "default_rng", recording_rng):
            bundle = simulate_bundle(model, params, 200, 0.05, seed=3)
    assert np.array_equal(bundle.sigma2, expected.sigma2)
    assert np.array_equal(bundle.increments, expected.increments)
    assert {rng.thread for rng in made} == {threading.get_ident()}
    buffers = {}  # stream -> the buffer behind each draw, in draw order
    for rng, args, kwargs in calls:
        assert args == () and list(kwargs) == ["out"]
        buffers.setdefault(rng, []).append(kwargs["out"].base)
    assert len(buffers) == streams
    for ring in buffers.values():
        assert len(ring) == 29  # ceil(200 / 7) chunks
        assert len({id(b) for b in ring}) == 2
        assert all(a is not b for a, b in zip(ring, ring[1:]))


def _filter_and_draw_threads(simulate):
    """The thread of every lfilter call and of every standard_normal call
    that simulate() makes, in call order."""
    filters, made = [], []
    lfilter, default_rng = scipy.signal.lfilter, np.random.default_rng

    def recording_lfilter(*args, **kwargs):
        filters.append(threading.get_ident())
        return lfilter(*args, **kwargs)

    def recording_rng(seed):
        made.append(_RecordingGenerator(default_rng(seed), []))
        return made[-1]

    # _ou_filter imports lfilter when it first runs, so the attribute is patched
    with mock.patch.object(scipy.signal, "lfilter", recording_lfilter), \
            mock.patch.object(vol_sim.np.random, "default_rng", recording_rng):
        simulate()
    return filters, [thread for rng in made for thread in rng.draw_threads]


@pytest.mark.parametrize("model, filters_on_caller, n_filters, n_draws", [
    ("ou", True, 29, 58), ("regime", False, 58, 87),
])
def test_filters_and_draws_run_on_their_measured_threads(
    model, filters_on_caller, n_filters, n_draws
):
    # an OU bundle filters its one path on the calling thread and its workers
    # only draw (a filter on a worker made OU bundles 5-10 % slower); a regime
    # bundle draws and filters both paths on the workers; 29 chunks of 7
    caller = threading.get_ident()
    params = OU if model == "ou" else REGIME
    with mock.patch.object(vol_sim, "_CHUNK", 7):
        filters, draws = _filter_and_draw_threads(
            lambda: simulate_bundle(model, params, 200, 0.05, seed=3)
        )
    assert (len(filters), len(draws)) == (n_filters, n_draws)
    assert (set(filters) == {caller}) if filters_on_caller else (caller not in filters)
    assert caller not in draws


@pytest.mark.parametrize("simulate", [
    lambda: simulate_ou(OU, 1000, 0.1, seed=3),
    lambda: simulate_regime_switch(REGIME, 1000, 0.1, seed=3),
], ids=["simulate_ou", "simulate_regime_switch"])
def test_path_simulators_run_on_the_calling_thread(simulate):
    filters, draws = _filter_and_draw_threads(simulate)
    assert filters and draws
    assert set(filters) | set(draws) == {threading.get_ident()}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"increments": np.zeros((2, 1))}, "increments must be 1-D, got shape (2, 1)"),
        ({"increments": np.float64(0.0)}, "increments must be 1-D, got shape ()"),
        ({"increments": np.array([0.0, np.nan])},
         "increments must be finite, got 1 non-finite, the first at index 1"),
        ({"increments": np.array([np.inf, 0.0])},
         "increments must be finite, got 1 non-finite, the first at index 0"),
        ({"increments": np.array([-np.inf, -np.inf])},
         "increments must be finite, got 2 non-finite, the first at index 0"),
    ],
)
def test_path_bundle_refuses_malformed_arrays(overrides, message):
    args = dict(increments=np.zeros(2), delta=1.0, subgrid_ratio=10, model="ou", params=OU, seed=1)
    args.update(overrides)
    with pytest.raises(InputError) as info:
        PathBundle(**args)
    assert str(info.value) == message


def test_path_bundle_stores_float_arrays():
    bundle = PathBundle(increments=[1, -2], delta=1.0, subgrid_ratio=10, model="ou", params=OU,
                        seed=1)
    for a in (bundle.increments, bundle.sigma2):
        assert isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 1
    assert bundle.increments.tolist() == [1.0, -2.0]
    assert bundle.sigma2.size == 20


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"subgrid_ratio": 50.5}, "subgrid_ratio must be an integer, got 50.5"),
        ({"subgrid_ratio": 9}, "subgrid_ratio must be at least 10, got 9"),
        ({"subgrid_ratio": True}, "subgrid_ratio must be an integer, got True"),
        ({"delta": np.inf}, "delta must be finite and positive, got inf"),
        ({"delta": np.nan}, "delta must be finite and positive, got nan"),
        ({"delta": 0.0}, "delta must be finite and positive, got 0.0"),
        ({"delta": -0.1}, "delta must be finite and positive, got -0.1"),
        ({"model": "garch"}, "unknown model 'garch'; expected 'ou' or 'regime'"),
        ({"params": REGIME}, "model 'ou' needs OUParams params, got RegimeSwitchParams"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ],
)
def test_path_bundle_arguments_are_checked(overrides, message):
    args = dict(increments=np.zeros(2), delta=1.0, subgrid_ratio=10, model="ou", params=OU, seed=1)
    args.update(overrides)
    with pytest.raises(ConfigError) as info:
        PathBundle(**args)
    assert str(info.value) == message


def test_path_bundle_fine_dt_is_delta_over_ratio():
    bundle = simulate_bundle("ou", OU, 30, 0.013, seed=5, subgrid_ratio=30)
    assert (bundle.delta, bundle.subgrid_ratio) == (0.013, 30)
    assert bundle.fine_dt == 0.013 / 30


@pytest.mark.parametrize("simulate, params", [(simulate_ou, OU), (simulate_regime_switch, REGIME)])
@pytest.mark.parametrize(
    "n_steps, dt, error, message",
    [
        (10.0, 0.1, InputError, "n_steps must be an integer, got 10.0"),
        (True, 0.1, InputError, "n_steps must be an integer, got True"),
        (0, 0.1, InputError, "n_steps must be at least 1, got 0"),
        (10, np.inf, ConfigError, "dt must be finite and positive, got inf"),
        (10, np.nan, ConfigError, "dt must be finite and positive, got nan"),
        (10, 0.0, ConfigError, "dt must be finite and positive, got 0.0"),
    ],
)
def test_path_simulators_check_their_arguments(simulate, params, n_steps, dt, error, message):
    with pytest.raises(error) as info:
        simulate(params, n_steps, dt, seed=1)
    assert str(info.value) == message


def test_markov_transition_refuses_nan_time():
    with pytest.raises(ConfigError) as info:
        markov_transition(1.0, 1.0, np.nan)
    assert str(info.value) == "t must be nonnegative, got nan"


def test_markov_transition_names_a_negative_time():
    with pytest.raises(ConfigError) as info:
        markov_transition(1.0, 1.0, -1)
    assert str(info.value) == "t must be nonnegative, got -1"


def test_integrate_price_names_a_bad_path_or_step():
    with pytest.raises(InputError) as info:
        integrate_price(np.ones((2, 10)), 0.1, 1.0)
    assert str(info.value) == "sigma2_path must be a non-empty 1-D sequence, got shape (2, 10)"
    with pytest.raises(ConfigError) as info:
        integrate_price(np.ones(10), np.inf, 1.0)
    assert str(info.value) == "fine_dt must be finite and positive, got inf"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize(
    "build, field",
    [
        (lambda v: OUParams(a=v, mu=0.0, b=1.0), "a"),
        (lambda v: OUParams(a=1.0, mu=0.0, b=v), "b"),
        (lambda v: RegimeSwitchParams(a0=v, a1=1.0, ou0=OU, ou1=OU), "a0"),
        (lambda v: RegimeSwitchParams(a0=1.0, a1=v, ou0=OU, ou1=OU), "a1"),
        (lambda v: markov_transition(v, 1.0, 0.5), "a0"),
        (lambda v: markov_transition(1.0, v, 0.5), "a1"),
    ],
)
def test_model_scales_must_be_finite(build, field, bad):
    # an infinite rate once built a constant path (stationary_var 0.0) or
    # stationary_probs [0, nan]
    with pytest.raises(ConfigError) as info:
        build(bad)
    assert str(info.value) == f"{field} must be finite and positive, got {bad!r}"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_ou_mean_must_be_finite(bad):
    with pytest.raises(ConfigError) as info:
        OUParams(a=1.0, mu=bad, b=1.0)
    assert str(info.value) == f"mu must be finite, got {bad!r}"
