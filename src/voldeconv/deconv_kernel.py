"""Deconvolution kernel for the log chi-square noise channel.

The estimator observes log sigma^2 contaminated additively by log Z^2 noise.
The deconvolving kernel

    v_h(a) = (1/2pi) * integral_{-1}^{1} phi_w(s) / phi_k(s/h) * exp(-i s a) ds

divides the noise characteristic function out of a band-limited smoothing
kernel.  Its defining property (and the package's load-bearing correctness
check) is

    integral v_h((y - z)/h) k(z) dz = w(y/h)   for all y,

i.e. averaging v_h over the noise law reproduces the plain smoother w.  The
noise is skewed (its mean is psi(1/2) + log 2 = -1.27), so v_h is real but
NOT symmetric: the kernel leans to compensate the noise asymmetry, and the
orientation matters (the reflected kernel fails the identity by ~5e-2).

Since 1/|phi_k(t)| grows like exp(pi |t| / 2) / sqrt(2), the integrand spans
e^{pi/(2h)}; bandwidths below pi/600 (where the gamma-function evaluation
window ends) are refused outright.  As phi_w is even and phi_k(-t) is
conj phi_k(t), the quadrature coefficients are conjugate symmetric (checked
on every call): v_h is a real cosine/sine sum over the s > 0 half-rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError, NumericalFailure, RangeError, _require_finite, _require_finite_positive,
    _require_integer,
)
from .noise_model import T_MAX, phi_k
from .quadrature import fourier_sum, gauss_legendre
from .smoothing_kernel import KernelSpec

# 512-node Gauss-Legendre on [-1,1]: resolves both the phi_w polynomial and
# the oscillation exp(-i s a) for |a| up to several hundred.  The rule comes
# from the gauss_legendre cache, built on first use rather than at import.
_GL_SIZE = 512

# Tolerated conjugate asymmetry of the coefficients, relative to max |c|; more
# signals a phi_w that is not even or a broken phi_k evaluation.
_SYM_TOL = 1e-9


def _check_bandwidth(h: float) -> float:
    _require_finite_positive("bandwidth", h, RangeError)
    h = float(h)
    if 1.0 / h > T_MAX:
        raise RangeError(
            f"bandwidth {h} puts quadrature nodes at |t| = {1.0 / h:.1f}, "
            f"beyond the noise characteristic function's evaluation window "
            f"t_max = {T_MAX:.1f}"
        )
    return h


def _half_rule_coefficients(spec: KernelSpec, h: float):
    """Nodes s_k > 0 of the rule and c_k = w_k phi_w(s_k)/phi_k(s_k/h), after
    checking h and that c(-s) = conj c(s); node j of the rule mirrors node n-1-j."""
    h = _check_bandwidth(h)
    nodes, weights = gauss_legendre(_GL_SIZE)
    coef = weights * spec.phi_w(nodes) / phi_k(nodes / h)
    asym = float(np.max(np.abs(coef[::-1] - np.conj(coef))))
    scale = float(np.max(np.abs(coef)))
    if asym > _SYM_TOL * scale:
        raise NumericalFailure(
            f"v_h quadrature coefficients are not conjugate symmetric: asymmetry "
            f"{asym:.3e} exceeds {_SYM_TOL:g} of max |c| = {scale:.3e}",
            residual=asym,
        )
    return nodes[_GL_SIZE // 2 :], coef[_GL_SIZE // 2 :]


def vh_quadrature(spec: KernelSpec, h: float, x):
    """Evaluate the deconvolution kernel v_h at x (scalar or array).

    v_h(x) = (1/pi) * sum_{s_k > 0} [Re c_k cos(s_k x) + Im c_k sin(s_k x)]
    folds the full 512-node sum (1/2pi) * sum_k c_k exp(-i s_k x) onto s > 0;
    the two agree to 1e-14 of max |v_h| for |x| <= 290 (measured: 2.6e-15).
    Through fourier_sum, a point's last bits depend on the rest of the batch
    x; that is why estimator._lag_groups keeps alone an axis whose points can
    leave a table's lattice, as regrouping it would change its batches.

    Raises RangeError if 1/h exceeds the noise model's evaluation window and
    NumericalFailure if the coefficients are not conjugate symmetric.
    """
    nodes, coef = _half_rule_coefficients(spec, h)
    return fourier_sum(nodes, coef.real, coef.imag, x) / np.pi


def sup_bound(spec: KernelSpec, h: float) -> float:
    """Uniform bound on |v_h|: (1/2pi) * integral |phi_w(s)/phi_k(s/h)| ds, by
    the half rule as (1/pi) * sum_{s_k > 0} |c_k|.

    This number is simultaneously the sup-norm bound and the Lipschitz
    constant of v_h, and it blows up like h^{1+rho} e^{pi/(2h)} as h -> 0,
    which is the price of deconvolving supersmooth noise.
    """
    _, coef = _half_rule_coefficients(spec, h)
    return float(np.sum(np.abs(coef)) / np.pi)


@dataclass(frozen=True, eq=False)
class DeconvTable:
    """Cached lattice of v_h values for O(1) interpolated evaluation.

    bandwidth : float
        The h the table was built at (log sigma^2 scale), finite and positive.
    kernel : KernelSpec
        Smoothing kernel whose spectrum was deconvolved.
    x_min, x_max : float
        Ends of the lattice, finite with x_min < x_max.
    values : ndarray
        v_h at grid_x, real and finite, 1-D with at least 2 points; stored
        as a float array.

    sup_bound, the uniform bound on |v_h| and its Lipschitz constant, is
    computed from kernel and bandwidth on first use, so it cannot disagree
    with them.  The lattice is linspace(x_min, x_max, values.size), so it is
    uniform and increasing by construction, as eval_table and the p = 1
    interval sums need: both locate a point's interval by index arithmetic.
    """

    bandwidth: float
    kernel: KernelSpec
    x_min: float
    x_max: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if np.ndim(self.values) != 1 or np.size(self.values) < 2:
            raise ConfigError(f"need 1-D values of at least 2 points, got shape "
                              f"{np.shape(self.values)}")
        if not -np.inf < self.x_min < self.x_max < np.inf:
            raise ConfigError(f"need finite x_min < x_max, got [{self.x_min}, {self.x_max}]")
        _require_finite("table values", self.values, ConfigError)
        _require_finite_positive("bandwidth", self.bandwidth, ConfigError)

    @cached_property
    def sup_bound(self) -> float:
        """The module's sup_bound at the table's kernel and bandwidth."""
        return sup_bound(self.kernel, self.bandwidth)

    @cached_property
    def grid_x(self) -> np.ndarray:
        """The uniform evaluation lattice, bit for bit build_table's."""
        return np.linspace(self.x_min, self.x_max, self.values.size)

    @cached_property
    def slope(self) -> np.ndarray:
        """numpy interp's slope (v_{j+1} - v_j) / (t_{j+1} - t_j) per interval
        j, plus a zero one for j = L-1."""
        return np.append(np.diff(self.values) / np.diff(self.grid_x), 0.0)


def build_table(
    spec: KernelSpec, h: float, x_min: float, x_max: float, n_points: int
) -> DeconvTable:
    """Tabulate v_h on a uniform lattice.

    v_h is band-limited (spectrum in [-1, 1] in its own argument), so linear
    interpolation error is governed by |v''| <= sup_bound and a lattice step
    of ~0.02 serves every admissible bandwidth.
    """
    _require_integer("n_points", n_points, 2, ConfigError)
    if not -np.inf < x_min < x_max < np.inf:  # refused before the quadrature
        raise ConfigError(f"need finite x_min < x_max, got [{x_min}, {x_max}]")
    h = _check_bandwidth(h)
    x_min, x_max = float(x_min), float(x_max)
    values = vh_quadrature(spec, h, np.linspace(x_min, x_max, n_points))
    return DeconvTable(bandwidth=h, kernel=spec, x_min=x_min, x_max=x_max, values=values)


def eval_table(table: DeconvTable, x):
    """v_h from the table: linear interpolation inside the lattice, direct
    quadrature (slow path) outside it.

    Inside, the value is bit for bit numpy's interp(x, grid_x, values), found
    in O(1) per point rather than by binary search: on the uniform lattice
    the guess j = trunc((x - t_0)/dt), clipped to [0, L-2], is at most one
    interval off the bracket t_j <= x < t_{j+1}, and one step each way finds
    it.  The value is slope_j (x - t_j) + v_j with slope_j = (v_{j+1} - v_j)
    / (t_{j+1} - t_j), interp's own formula; x = t_{L-1} ends on j = L-1 and
    reads v_{L-1} through a zero slope.  NaN gives NaN.

    The tail of v_h decays like 1/|x| with oscillation, so extrapolating the
    lattice would be wrong; out-of-range points get the exact integral.
    """
    x = np.asarray(x, dtype=float)
    xv = x.ravel()
    t, v, slope = table.grid_x, table.values, table.slope
    last = t.size - 1
    # points below t_0 end on j = -1 and read the zero slope; they are
    # replaced below
    guess = (xv - t[0]) * (last / (t[-1] - t[0]))
    np.fmax(guess, 0.0, out=guess)  # fmax also sends NaN to 0
    np.fmin(guess, last - 1, out=guess)
    j = guess.astype(np.intp)
    del guess  # in place from here on: fewer live temporaries, the same bits
    j += xv >= t[j + 1]
    j -= xv < t[j]
    out = xv - t[j]
    out *= slope[j]
    out += v[j]
    outside = (xv < t[0]) | (xv > t[-1])
    if np.any(outside):
        out[outside] = vh_quadrature(table.kernel, table.bandwidth, xv[outside])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
