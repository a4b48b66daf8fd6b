"""Tests for the band-limited smoothing kernel: spectral window, real-space
evaluation, mass, and the bias constant mu2."""

import numpy as np
import pytest

from voldeconv import builtin_kernel, eval_w, kernel_moments
from voldeconv.errors import NotFoundError

SPEC = builtin_kernel("poly3")

# frozen values, independently cross-checked against dense quadrature
W_AT_ZERO = 16.0 / (35.0 * np.pi)


def test_builtin_lookup():
    assert SPEC.name == "poly3"
    assert SPEC.rho == 3.0
    assert SPEC.edge_coeff == 8.0


def test_unknown_kernel_name():
    with pytest.raises(NotFoundError) as exc:
        builtin_kernel("tricube")
    assert "poly3" in str(exc.value)


def test_spectral_window_shape():
    s = np.linspace(-1.5, 1.5, 301)
    vals = SPEC.phi_w(s)
    assert np.all(vals[np.abs(s) > 1.0] == 0.0)
    inside = np.abs(s) <= 1.0
    np.testing.assert_allclose(vals[inside], (1.0 - s[inside] ** 2) ** 3, rtol=1e-14)
    assert SPEC.phi_w(0.0) == 1.0


def test_w_at_zero_closed_form():
    # w(0) = (1/2pi) * [integral of (1-s^2)^3 over [-1,1]] = 16/(35 pi)
    assert float(eval_w(SPEC, 0.0)) == pytest.approx(W_AT_ZERO, rel=1e-13)


def test_w_evenness():
    x = np.linspace(0.0, 25.0, 400)
    assert np.max(np.abs(eval_w(SPEC, x) - eval_w(SPEC, -x))) < 1e-12


def test_w_scalar_matches_array():
    # scalar and batched paths may differ by reduction order only
    x = np.array([-3.2, 0.0, 1.7, 9.9])
    arr = eval_w(SPEC, x)
    for xi, vi in zip(x, arr):
        assert float(eval_w(SPEC, float(xi))) == pytest.approx(vi, abs=1e-15)


def test_w_decay():
    # |w(x)| <= C/x^4 for a window with three continuous spectral derivatives
    x = np.array([20.0, 50.0, 100.0, 300.0])
    vals = np.abs(eval_w(SPEC, x))
    assert np.all(vals < 50.0 / x**4)


def test_moments_mass():
    # w is band-limited, so the lattice sum does not depend on the step
    # below the Nyquist limit pi; measured mass - 1 = -3.75e-9 at both steps
    for step in (0.25, 0.125):
        x = np.arange(-300.0, 300.0 + step / 2, step)
        mass = float(np.trapezoid(eval_w(SPEC, x), dx=step))
        assert abs(mass - 1.0) < 1e-8


def test_moments_second_derivative_rule():
    # mu2 = -phi_w''(0) = 6 for the cubic window
    mom = kernel_moments(SPEC)
    assert abs(mom - 6.0) < 1e-6


def test_edge_power_law():
    # phi_w(1-t) = 8 t^3 (1 + O(t)): the normalized ratio rises toward 1
    ts = np.array([1e-2, 1e-3, 1e-4])
    ratios = SPEC.phi_w(1.0 - ts) / (SPEC.edge_coeff * ts**SPEC.rho)
    assert np.all(np.diff(ratios) > 0.0)
    assert abs(ratios[-1] - 1.0) < 0.01
