"""Band-limited smoothing kernels.

A smoothing kernel w is specified through its characteristic function phi_w:
real, even, supported on [-1, 1], with phi_w(0) = 1 and a polynomial edge law
phi_w(1 - t) ~ A * t^rho as t -> 0.  The kernel itself is recovered by the
inverse Fourier transform

    w(x) = (1/2pi) * integral_{-1}^{1} phi_w(s) cos(s x) ds,

so w is real, symmetric, integrates to one, and is band-limited: its spectrum
lives on [-1, 1], which is what keeps the deconvolution integral finite.  The
bias expansion needs one kernel constant, mu2 = -phi_w''(0) (kernel_moments).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotFoundError
from .quadrature import fourier_sum, gauss_legendre

# Gauss-Legendre rule size for all w evaluations.  256 nodes on [-1,1]
# resolve the cos(s x) oscillation for |x| up to roughly 380, beyond any
# argument the estimator or the tests feed this function.  Rules come from
# the gauss_legendre cache, built on first use rather than at import.
_GL_SIZE = 256


@dataclass(frozen=True)
class KernelSpec:
    """A smoothing kernel described in the Fourier domain.

    Attributes
    ----------
    name : str
        Identifier, e.g. "poly3".
    phi_w : callable
        Vectorized characteristic function; must be even, 1 at 0, and 0
        outside [-1, 1].
    rho : float
        Edge exponent: phi_w(1 - t) ~ edge_coeff * t^rho as t -> 0.
    edge_coeff : float
        Edge coefficient A in the same expansion.
    """

    name: str
    phi_w: Callable[[np.ndarray], np.ndarray]
    rho: float
    edge_coeff: float


def _phi_poly3(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) <= 1.0
    out[inside] = (1.0 - s[inside] ** 2) ** 3
    return out


_BUILTINS = {
    # phi_w(1-t) = t^3 (2-t)^3 = 8 t^3 (1 + O(t)), so rho = 3, A = 8.
    "poly3": KernelSpec(name="poly3", phi_w=_phi_poly3, rho=3.0, edge_coeff=8.0),
}


def builtin_kernel(name: str) -> KernelSpec:
    """Look up a shipped kernel by name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise NotFoundError(f"unknown kernel {name!r}; available: {known}") from None


def eval_w(spec: KernelSpec, x):
    """Evaluate the kernel w at x (scalar or array) by Fourier inversion."""
    nodes, weights = gauss_legendre(_GL_SIZE)
    return fourier_sum(nodes, weights * spec.phi_w(nodes), None, x) / (2.0 * np.pi)


def kernel_moments(spec: KernelSpec) -> float:
    """mu2 = integral of u^2 w(u) du = -phi_w''(0), by a fourth-order central
    difference; the leading bias term of the estimator is (h^2 / 2) * mu2 *
    (trace of the Hessian).

    The step e = 3e-3 balances truncation against cancellation (about 1e-9
    in total for polynomial-like phi_w).
    """
    e = 3e-3
    stencil = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * e
    ph = spec.phi_w(stencil)
    second = (-ph[0] + 16 * ph[1] - 30 * ph[2] + 16 * ph[3] - ph[4]) / (12 * e * e)
    return float(-second)
