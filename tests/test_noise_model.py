"""Tests for the log-chi-square noise channel: density and characteristic
function."""

import warnings

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as sst

from voldeconv import noise_density, phi_k
from voldeconv.errors import RangeError
from voldeconv.noise_model import T_MAX


def _noise_cdf(x):
    # P(log Z^2 <= x) = P(|Z| <= e^{x/2}) for standard normal Z
    return sps.erf(np.exp(np.asarray(x) / 2.0) / np.sqrt(2.0))


def test_density_pointwise_values():
    # k(x) = (2*pi)^{-1/2} e^{x/2} e^{-e^x/2}
    x = np.array([-2.0, 0.0, 1.0, 3.0])
    expected = np.exp(x / 2.0) * np.exp(-np.exp(x) / 2.0) / np.sqrt(2.0 * np.pi)
    np.testing.assert_allclose(noise_density(x), expected, rtol=1e-14)


def test_density_far_left_tail():
    # left tail ~ e^{x/2}/sqrt(2 pi); double-exponential cutoff on the right
    assert noise_density(-30.0) == pytest.approx(
        np.exp(-15.0) / np.sqrt(2.0 * np.pi), rel=1e-10
    )
    assert noise_density(10.0) < 1e-4000 or noise_density(10.0) < 1e-300


def test_density_underflows_to_zero_on_the_far_right():
    # an unclipped x / 2 outgrows exp(700) / 2 past x ~ 1.01e304, which gives
    # inf with an overflow warning
    x = np.array([700.0, 710.0, 1.1e304, 1e306, np.finfo(float).max, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(noise_density(x), np.zeros(x.size))
        assert np.isnan(noise_density(np.nan))


def test_density_mass_and_mean():
    from scipy.integrate import quad

    mass, _ = quad(lambda u: float(noise_density(u)), -60.0, 8.0, limit=200)
    assert abs(mass - 1.0) < 1e-9
    mean, _ = quad(lambda u: u * float(noise_density(u)), -60.0, 8.0, limit=200)
    # E log Z^2 = digamma(1/2) + log 2, the skew center of the channel
    assert abs(mean - (sps.digamma(0.5) + np.log(2.0))) < 1e-9


def test_characteristic_function_modulus_identity():
    # |phi_k(t)|^2 cosh(pi t) = 1 exactly
    t = np.linspace(-30.0, 30.0, 6001)
    resid = np.abs(np.abs(phi_k(t)) ** 2 * np.cosh(np.pi * t) - 1.0)
    assert np.max(resid) < 1e-10


def test_phi_k_abs_matches_phi_k():
    # |phi_k(t)| = 1/sqrt(cosh(pi t)) by |Gamma(1/2 + it)|^2 = pi/cosh(pi t);
    # measured max relative error 1.3e-13 over the whole evaluation window
    t = np.linspace(-T_MAX, T_MAX, 4001)
    np.testing.assert_allclose(
        np.abs(phi_k(t)), 1.0 / np.sqrt(np.cosh(np.pi * t)), rtol=1e-12, atol=0.0
    )


def test_phi_k_matches_direct_quadrature():
    # Simpson rule on [-50, 6]; the left tail beyond -50 contributes < 2e-11
    x = np.linspace(-50.0, 6.0, 40001)
    kx = noise_density(x)
    step = x[1] - x[0]
    for t in np.linspace(-10.0, 10.0, 9):
        integrand = kx * np.exp(1j * t * x)
        val = (step / 3.0) * (
            integrand[0]
            + integrand[-1]
            + 4.0 * integrand[1:-1:2].sum()
            + 2.0 * integrand[2:-1:2].sum()
        )
        assert abs(val - phi_k(t)) < 1e-8


def test_phi_k_asymptotic_decay_ratio():
    r = abs(phi_k(10.0)) / (np.sqrt(2.0) * np.exp(-np.pi * 10.0 / 2.0))
    assert abs(r - 1.0) < 1e-3


def test_phi_k_at_zero_is_one():
    assert phi_k(0.0) == pytest.approx(1.0, abs=1e-13)


def test_phi_k_conjugate_symmetry():
    t = np.linspace(0.1, 20.0, 57)
    np.testing.assert_allclose(phi_k(-t), np.conj(phi_k(t)), rtol=1e-12)


def test_phi_k_range_guard():
    val = phi_k(T_MAX)  # boundary is allowed
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    with pytest.raises(RangeError):
        phi_k(T_MAX * 1.01)
    with pytest.raises(RangeError):
        phi_k(-T_MAX * 1.01)


def test_phi_k_phase_against_scipy_gamma():
    # phi_k is computed through loggamma; its phase must match the plain
    # product 2^{it} Gamma(1/2 + it), which stays finite for |t| <= 50
    t = np.linspace(-50.0, 50.0, 2001)
    ref = np.exp(1j * t * np.log(2.0)) * sps.gamma(0.5 + 1j * t)
    dphase = np.angle(phi_k(t) * np.conj(ref))
    assert np.max(np.abs(dphase)) < 1e-12


def test_sample_noise_distribution():
    # log Z^2 for standard normal Z follows the noise_density law
    z = np.random.default_rng(11).standard_normal(100_000)
    stat = sst.kstest(np.log(z * z), _noise_cdf).statistic
    assert stat < 0.006  # measured 0.0027 at this seed
