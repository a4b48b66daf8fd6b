"""Tests for the shared Gauss-Legendre rules: built lazily, read-only, and
numerically the same rules the kernel and truth quadratures always used."""

import os
import subprocess
import sys

import numpy as np
import pytest

import voldeconv
from voldeconv import (
    OUParams,
    builtin_kernel,
    eval_w,
    kernel_moments,
    ou_logsq_marginal,
    sup_bound,
    vh_quadrature,
)
from voldeconv.experiment import ExperimentConfig, resolve_grid, truth_for
from voldeconv.quadrature import gauss_legendre
from voldeconv.vol_sim import RegimeSwitchParams

SPEC = builtin_kernel("poly3")


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
