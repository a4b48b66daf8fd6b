"""Log-chi-square(1) noise channel.

When a normalized price increment is approximately sigma * Z with Z standard
normal, taking log of the square turns the multiplicative noise into additive
noise distributed as log(Z^2).  This module provides that noise law: its
density and its characteristic function (computed through scipy's complex
log-gamma).
"""
from __future__ import annotations

import numpy as np
from scipy.special import loggamma

from .errors import RangeError

SQRT_2PI = np.sqrt(2.0 * np.pi)
SQRT_PI = np.sqrt(np.pi)
LOG_2 = np.log(2.0)

# Largest |t| accepted by phi_k.  |phi_k(t)| = 1/sqrt(cosh(pi t)) decays like
# exp(-pi|t|/2), so at t = 600/pi the magnitude is ~e^-300: still normal in
# double precision, but the reciprocal used downstream is ~e^300 and one more
# decade would overflow.
T_MAX = 600.0 / np.pi


def noise_density(x):
    """Density k of log(Z^2) for standard normal Z.

    k(x) = (2 pi)^{-1/2} exp(x/2) exp(-exp(x)/2).  Underflows to 0 for large
    |x| instead of raising.
    """
    x = np.asarray(x, dtype=float)
    # exp(x) overflows for x > ~709, and an unclipped x / 2 outgrows exp(700) / 2
    # past x ~ 1e304; the density is exactly 0 beyond 700, so clip x first.
    c = np.minimum(x, 700.0)
    return np.exp(c / 2.0 - np.exp(c) / 2.0) / SQRT_2PI


def phi_k(t):
    """Characteristic function of the log(Z^2) noise.

    phi_k(t) = pi^{-1/2} 2^{it} Gamma(1/2 + it), with phi_k(-t) the complex
    conjugate of phi_k(t).  Raises RangeError when |t| > T_MAX, where the
    downstream reciprocal 1/phi_k would leave double-precision range.
    """
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > T_MAX):
        worst = float(np.max(np.abs(t)))
        raise RangeError(
            f"|t| = {worst:.3f} exceeds t_max = {T_MAX:.3f}; "
            "1/phi_k(t) is not representable in double precision"
        )
    return np.exp(1j * t * LOG_2 + loggamma(0.5 + 1j * t)) / SQRT_PI

