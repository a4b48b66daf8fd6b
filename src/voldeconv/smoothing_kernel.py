"""Band-limited smoothing kernels.

A smoothing kernel w is specified through its characteristic function phi_w:
real, even, supported on [-1, 1], with phi_w(0) = 1 and a polynomial edge law
phi_w(1 - t) ~ A * t^rho as t -> 0.  The kernel itself is recovered by the
inverse Fourier transform

    w(x) = (1/2pi) * integral_{-1}^{1} phi_w(s) cos(s x) ds,

so w is real, symmetric, integrates to one, and is band-limited: its spectrum
lives on [-1, 1], which is what keeps the deconvolution integral finite.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotFoundError, NumericalFailure
from .quadrature import fourier_sum, gauss_legendre

# Gauss-Legendre rule size for all w evaluations.  256 nodes on [-1,1]
# resolve the cos(s x) oscillation for |x| up to roughly 380, beyond any
# argument the estimator or the tests feed this function.  Rules come from
# the gauss_legendre cache, built on first use rather than at import.
_GL_SIZE = 256

# Denser rule for the moment integrals, whose truncation radius (several
# hundred) exceeds what the 256-node rule can oscillate against.
_GL_SIZE_DENSE = 2048


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


@dataclass(frozen=True)
class KernelMoments:
    """Moments of w used by bias predictions and bound checks.

    m0        : integral of w (should be 1).
    mu2       : integral of u^2 w(u) du, equal to -phi_w''(0).
    m2_abs    : integral of u^2 |w(u)| du, by truncated quadrature.
    m2_abs_tail : analytic estimate of the truncated tail of m2_abs.
    """

    m0: float
    mu2: float
    m2_abs: float
    m2_abs_tail: float


def kernel_moments(spec: KernelSpec, max_radius: float = 900.0) -> KernelMoments:
    """Compute kernel moments by quadrature.

    m0 uses a uniform trapezoid lattice: w is band-limited, so the lattice sum
    is exact up to the tail beyond the truncation radius (|w| decays
    polynomially); convergence is verified by halving the lattice step.
    mu2 is computed as -phi_w''(0) by a fourth-order central difference.
    m2_abs converges only like 1/R because u^2 |w(u)| ~ C |cos u| / u^2 in the
    tail; it is integrated out to max_radius with the tail estimate reported.
    """
    # w by the dense rule, valid out to |u| of a few thousand
    nodes, weights = gauss_legendre(_GL_SIZE_DENSE)
    coef = weights * spec.phi_w(nodes)

    # m0: trapezoid with spacing well below the Nyquist limit pi; band-limited
    # w makes the lattice sum step-independent, so a halved step must agree.
    m0_radius = min(max_radius, 400.0)
    m0 = None
    for step in (0.25, 0.125):
        grid = np.arange(-m0_radius, m0_radius + step / 2, step)
        w = fourier_sum(nodes, coef, None, grid) / (2.0 * np.pi)
        est = float(np.trapezoid(w, dx=step))
        if m0 is None:
            m0 = est
        else:
            resid = abs(est - m0)
            if resid > 1e-9:
                raise NumericalFailure(
                    f"kernel mass quadrature did not converge: step halving "
                    f"moved the estimate by {resid:.3e}",
                    residual=resid,
                )

    # mu2 = -phi_w''(0), five-point stencil, step balances truncation against
    # cancellation (~1e-9 total for polynomial-like phi_w).
    e = 3e-3
    stencil = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * e
    ph = spec.phi_w(stencil)
    second = (-ph[0] + 16 * ph[1] - 30 * ph[2] + 16 * ph[3] - ph[4]) / (12 * e * e)
    mu2 = float(-second)

    # m2_abs: Simpson per 2pi-length segment; |w| has kinks at the zeros of w,
    # but each segment holds only a few so fixed 256-point Simpson is ample.
    per_seg = 256
    seg_len = 2.0 * np.pi
    n_seg = int(max_radius // seg_len)
    total = 0.0
    last_seg = 0.0
    for j in range(n_seg):
        lo = j * seg_len
        pts = np.linspace(lo, lo + seg_len, per_seg + 1)
        w = fourier_sum(nodes, coef, None, pts) / (2.0 * np.pi)
        vals = pts ** 2 * np.abs(w)
        weights = np.ones(per_seg + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        last_seg = float(np.sum(weights * vals) * (seg_len / per_seg) / 3.0)
        total += last_seg
    u_end = n_seg * seg_len
    # Segments decay like c/u^2, so the one-sided remainder is about
    # last_seg * u_end / (2pi); double everything for the negative axis.
    tail = 2.0 * last_seg * u_end / seg_len
    return KernelMoments(m0=m0, mu2=mu2, m2_abs=2.0 * total + tail, m2_abs_tail=tail)
