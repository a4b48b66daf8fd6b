"""Tests for the shared Gauss-Legendre rules: read from the shipped file or
built lazily, read-only, leggauss's bits, shipped for every size the package
asks for, and numerically the same rules the kernel and truth quadratures
always used; for fourier_sum's threaded blocks, which give the serial loop's
bits; and for _in_order, the in-order two-worker helper every threaded stage
runs on."""

import importlib.util
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voldeconv
from voldeconv import (
    OUParams,
    bias_check,
    build_table,
    builtin_kernel,
    eval_w,
    kernel_moments,
    ou_logsq_marginal,
    run_experiment,
    sup_bound,
    vh_quadrature,
)
from voldeconv.deconv_kernel import _half_rule_coefficients
from voldeconv.errors import ConfigError
from voldeconv.experiment import ExperimentConfig, resolve_grid, truth_for
from voldeconv.quadrature import _BLOCK, _RULES, _in_order, fourier_sum, gauss_legendre
from voldeconv.vol_sim import RegimeSwitchParams

SPEC = builtin_kernel("poly3")

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "gauss_legendre_rules.py"
_TOOL_SPEC = importlib.util.spec_from_file_location("gauss_legendre_rules", _TOOL)
_RULES_TOOL = importlib.util.module_from_spec(_TOOL_SPEC)
_TOOL_SPEC.loader.exec_module(_RULES_TOOL)


def _fresh_process_output(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(voldeconv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return out.stdout.strip()


def test_import_builds_no_rule():
    code = (
        "import voldeconv\n"
        "from voldeconv.quadrature import gauss_legendre\n"
        "print(gauss_legendre.cache_info().currsize)\n"
    )
    assert _fresh_process_output(code) == "0"


def test_import_loads_no_slow_scipy_module():
    # scipy.signal and scipy.integrate are imported where they are used
    code = (
        "import sys\n"
        "import voldeconv\n"
        "print(sorted(m for m in ('scipy.signal', 'scipy.integrate') if m in sys.modules))\n"
    )
    assert _fresh_process_output(code) == "[]"


def test_rules_are_shared_read_only_leggauss():
    nodes, weights = gauss_legendre(64)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(64)
    np.testing.assert_array_equal(nodes, ref_nodes)
    np.testing.assert_array_equal(weights, ref_weights)
    assert gauss_legendre(64)[0] is nodes
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


# Values below were recorded with the rules built by leggauss at module
# import; the cached rules must reproduce them bit for bit.  sup_bound and
# v_h also divide by phi_k, which since it moved from a Lanczos gamma to
# scipy's loggamma differs from the recording by up to 2.2e-15 relative
# (4.2e-15 of max|v_h|), so those are held to 1e-12 relative.


def test_kernel_rules_bit_identical():
    np.testing.assert_allclose(
        [sup_bound(SPEC, h) for h in (0.4, 1.0, 2.46)],
        [0.4217360192473992, 0.18356029421689235, 0.1520034607016237],
        rtol=1e-12, atol=0.0,
    )
    np.testing.assert_allclose(
        vh_quadrature(SPEC, 1.0, np.array([-3.0, 0.0, 0.7, 12.5])),
        [0.04813756179104243, 0.17525310453611598, 0.18292322472385247,
         0.0014218460116805153],
        rtol=1e-12, atol=0.0,
    )
    assert eval_w(SPEC, np.array([0.0, 1.5, 40.0])).tolist() == [
        0.1455130908268758, 0.12822774667823306, -4.609193930372635e-06,
    ]
    assert kernel_moments(SPEC) == 5.99999999938407


def test_truth_rules_bit_identical():
    cfg = ExperimentConfig(
        model="ou", params=OUParams(a=2.0, mu=0.3, b=1.7), n_schedule=(1000,),
        delta_exp=0.5, gamma=9.0, times=(1.0,), grid_spec="auto",
        replications=1, master_seed=1,
    )
    axes, mass = resolve_grid(cfg, truth_for(cfg))
    assert (float(axes[0][0]), float(axes[0][-1]), mass) == (
        -3.95, 4.55, 5.733032577559527e-07,
    )
    params = RegimeSwitchParams(
        a0=1.0, a1=1.0, ou0=OUParams(4.0, -2.0, 1.0), ou1=OUParams(4.0, 2.0, 1.0)
    )
    cfg2 = ExperimentConfig(
        model="regime", params=params, n_schedule=(1000,), delta_exp=0.75,
        gamma=17.0, times=(1.0, 1.05), grid_spec="-6:6:11", replications=1,
        master_seed=1,
    )
    assert resolve_grid(cfg2, truth_for(cfg2))[1] == 0.003951689739403852
    assert ou_logsq_marginal(OUParams(a=2.0, mu=0.0, b=2.0)).mass() == 1.0000000000000018


def test_shipped_rules_are_leggauss_bit_for_bit():
    # the rules file holds tools/gauss_legendre_rules.py's SIZES, each with
    # the bits leggauss gave under the environment stored beside them
    with np.load(_RULES, allow_pickle=False) as shipped:
        stored = {name: shipped[name] for name in shipped.files}
    assert sorted(stored) == sorted(
        [*_RULES_TOOL.environment()]
        + [f"{kind}{n}" for n in _RULES_TOOL.SIZES for kind in ("nodes", "weights")]
    )
    for field, value in _RULES_TOOL.environment().items():
        if str(stored[field]) != value:
            pytest.skip(f"{field} differs from the one the rules were made under: "
                        f"{value!r}, stored {str(stored[field])!r}")
    for n in _RULES_TOOL.SIZES:
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        nodes, weights = gauss_legendre(n)
        assert nodes.tobytes() == stored[f"nodes{n}"].tobytes() == ref_nodes.tobytes(), n
        assert weights.tobytes() == stored[f"weights{n}"].tobytes() == ref_weights.tobytes(), n


def test_every_rule_the_package_asks_for_is_shipped(monkeypatch):
    # with leggauss unusable and the cache empty, the package's own paths
    # must find every rule they need in the rules file
    def refuse(n):
        raise AssertionError(f"leggauss({n}) called: size {n} is not shipped")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    gauss_legendre.cache_clear()
    ou = ExperimentConfig(
        model="ou", params=OUParams(a=2.0, mu=0.0, b=2.0), n_schedule=(500,),
        delta_exp=0.5, gamma=9.0, times=(1.0,), grid_spec="auto",
        replications=2, master_seed=1,
    )
    regime = ExperimentConfig(
        model="regime", params=RegimeSwitchParams(
            a0=1.0, a1=1.0, ou0=OUParams(4.0, -2.0, 1.0), ou1=OUParams(4.0, 2.0, 1.0)
        ), n_schedule=(500,), delta_exp=0.75, gamma=17.0, times=(1.0, 1.05),
        grid_spec="auto", replications=1, master_seed=1,
    )
    for cfg in (ou, regime):
        assert run_experiment(cfg).records
    assert bias_check(ou, truth_for(ou)).replications == 2
    build_table(SPEC, 0.8, -10.0, 10.0, 101)
    eval_w(SPEC, np.array([0.0, 1.5]))
    assert ou_logsq_marginal(OUParams(a=2.0, mu=0.0, b=2.0)).mass() > 0.99
    assert gauss_legendre.cache_info().currsize == len(_RULES_TOOL.SIZES)


@pytest.mark.parametrize(
    "n, message",
    [(True, "n must be an integer, got True"), (0, "n must be at least 1, got 0"),
     (-3, "n must be at least 1, got -3"), (2.5, "n must be an integer, got 2.5"),
     ("4", "n must be an integer, got '4'")],
)
def test_gauss_legendre_refuses_a_bad_n(n, message):
    assert gauss_legendre(1)[0].tolist() == [0.0]  # True == 1 must not hit it
    with pytest.raises(ConfigError, match=re.escape(message)):
        gauss_legendre(n)


def test_gauss_legendre_shares_one_rule_across_integer_types():
    assert gauss_legendre(np.int64(512))[0] is gauss_legendre(512)[0]


def _serial_fourier_sum(nodes, cos_coef, sin_coef, x):
    """fourier_sum's one-thread block loop, kept as its exact reference."""
    x = np.asarray(x, dtype=float)
    xv = x.ravel()
    out = np.empty(xv.size)
    for lo in range(0, xv.size, _BLOCK):
        phase = np.outer(nodes, xv[lo : lo + _BLOCK])
        blk = 0.0 if sin_coef is None else sin_coef @ np.sin(phase)
        out[lo : lo + _BLOCK] = cos_coef @ np.cos(phase, out=phase) + blk
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _assert_same_as_serial(nodes, coef, x):
    for sin_coef in (coef.imag, None):
        got = fourier_sum(nodes, coef.real, sin_coef, x)
        want = _serial_fourier_sum(nodes, coef.real, sin_coef, x)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("h", [0.4, 2.46])
@pytest.mark.parametrize(
    "size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, 29001]
)
def test_threaded_blocks_equal_the_serial_loop(h, size):
    # one or two workers, partial last blocks, empty x: the serial bits
    nodes, coef = _half_rule_coefficients(SPEC, h)
    x = np.random.default_rng(size).uniform(-300.0, 300.0, size)
    _assert_same_as_serial(nodes, coef, x)


def test_threaded_blocks_keep_scalars_and_shapes():
    nodes, coef = _half_rule_coefficients(SPEC, 1.0)
    _assert_same_as_serial(nodes, coef, 0.7)
    assert isinstance(fourier_sum(nodes, coef.real, None, 0.7), float)
    x2 = np.random.default_rng(2).normal(0.0, 20.0, (3, 1500))
    _assert_same_as_serial(nodes, coef, x2)


@settings(max_examples=25, deadline=None)
@given(
    h=st.sampled_from([0.25, 0.5, 1.0, 4.64]),
    size=st.integers(0, 3 * _BLOCK + 100),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_threaded_blocks_equal_the_serial_loop_property(h, size, scale, seed):
    nodes, coef = _half_rule_coefficients(SPEC, h)
    x = np.random.default_rng(seed).normal(0.0, scale, size)
    _assert_same_as_serial(nodes, coef, x)


def test_concurrent_vh_calls_give_the_serial_bits():
    # two callers at once, each with its own two block workers, with thread
    # switches forced often: both results are the serial loop's bits
    x = np.linspace(-290.0, 290.0, 29001)
    nodes, coef = _half_rule_coefficients(SPEC, 0.4)
    serial = _serial_fourier_sum(nodes, coef.real, coef.imag, x) / np.pi
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(vh_quadrature, SPEC, 0.4, x) for _ in range(2)]
            together = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(v, serial) for v in together)


class _Recorder:
    """A recording fn for _in_order, and the pool it submits to.

    Each call's return sets an Event; a call for item i starts only after
    item i - ahead's has returned, or a fault is logged.  An even item waits
    (up to 50 ms) for its odd successor to return first, so that a worker
    freed early would start a later item out of turn.
    """

    def __init__(self, pool, n, ahead, fail_at=None):
        self.pool, self.ahead, self.fail_at = pool, ahead, fail_at
        self.returned = [threading.Event() for _ in range(n)]
        self.submitted, self.faults = [], []

    def submit(self, fn, i):
        in_flight = 1 + sum(not self.returned[j].is_set() for j in self.submitted)
        if in_flight > self.ahead:
            self.faults.append(f"{in_flight} calls in flight at item {i}")
        self.submitted.append(i)
        return self.pool.submit(fn, i)

    def __call__(self, i):
        try:
            if i >= self.ahead and not self.returned[i - self.ahead].is_set():
                self.faults.append(f"item {i} started before item {i - self.ahead} returned")
            if self.ahead > 1 and i % 2 == 0 and i + 1 < len(self.returned):
                self.returned[i + 1].wait(timeout=0.05)
            if i == self.fail_at:
                raise RuntimeError(f"item {i} failed")
            return i
        finally:
            self.returned[i].set()


@pytest.mark.parametrize("ahead", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_in_order_yields_in_item_order_within_ahead(n, ahead):
    with ThreadPoolExecutor(max_workers=2) as pool:
        rec = _Recorder(pool, n, ahead)
        got = []
        for result in _in_order(rec, rec, range(n), ahead):
            # nothing past the held result plus `ahead` was ever submitted
            assert max(rec.submitted) <= result + ahead
            got.append(result)
    assert got == list(range(n))
    assert rec.submitted == list(range(n))
    assert rec.faults == []


def test_in_order_advances_a_stateful_draw_in_order():
    # with one call ahead, a draw that reads and then writes its state is
    # never run twice at once, even with thread switches forced often
    state = [0]

    def draw(size):
        start = state[0]
        time.sleep(0)  # invite a thread switch between the read and the write
        state[0] = start + size
        return list(range(start, start + size))

    sizes = [3, 1, 4, 1, 5, 9, 2, 6] * 25
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            drawn = [v for piece in _in_order(pool, draw, sizes, 1) for v in piece]
    finally:
        sys.setswitchinterval(interval)
    assert drawn == list(range(sum(sizes)))


def test_in_order_surfaces_a_failure_at_its_item_and_stops_the_workers():
    threads = threading.active_count()
    got = []
    with pytest.raises(RuntimeError, match="item 3 failed"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            rec = _Recorder(pool, 7, 2, fail_at=3)
            for result in _in_order(rec, rec, range(7), 2):
                got.append(result)
    assert got == [0, 1, 2]
    assert max(rec.submitted) <= 4  # item 5 waits for item 3, which failed
    assert threading.active_count() == threads
