"""Closed-form target densities for verifying the estimator.

Every shipped model admits an exact stationary law: the OU log-volatility is
Gaussian, and the two-state regime-switching process has a four-component
bivariate Gaussian mixture whose weights come from the chain's transition
matrix.  A general 1-D invariant-density formula (scale-measure construction)
is included as an independent cross-check of the Gaussian cases.

Scale convention: estimator-facing truths live on the log sigma^2 scale.
For the OU model the simulated path is log sigma^2 itself; for the regime
model sigma = exp(xi), so log sigma^2 = 2 xi and the xi-scale mixture must be
pushed through the doubling map (see scaled_truth).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, _is_real
from .noise_model import SQRT_2PI
from .vol_sim import OUParams, RegimeSwitchParams, markov_transition


# most grid points per vector_eval call in grid_values
_GRID_BLOCK = 1 << 13


@dataclass(frozen=True, eq=False)
class TruthDensity:
    """A reference density with a documented integration box.

    vector_eval    : vectorized evaluation on arrays of shape (..., p); it
                     must be pointwise, each value depending on its own
                     point alone, so that grid_values' blocks keep its bits.
    truncation_box : p pairs (lo, hi) outside which the mass is negligible;
                     their count is the dimension p.
    """

    vector_eval: Callable
    truncation_box: tuple

    @property
    def dimension(self) -> int:
        """The number of coordinates p, one per pair of the box."""
        return len(self.truncation_box)

    def evaluator(self, x) -> float:
        """Single-point evaluation: a p-vector (or a scalar when p = 1) to a
        nonnegative float."""
        pt = np.asarray(x, dtype=float)
        if pt.ndim == 0:
            pt = pt.reshape(1)
        if pt.shape != (self.dimension,):
            raise ConfigError(
                f"point shape {pt.shape} does not match dimension {self.dimension}"
            )
        return float(self.vector_eval(pt))

    def grid_values(self, axes) -> np.ndarray:
        """Evaluate on the tensor grid spanned by the axis arrays, in blocks of
        whole first-axis rows of at most _GRID_BLOCK points (one row if a row
        is longer), so the evaluator's temporaries stay block-sized."""
        axes = [np.asarray(a, dtype=float).ravel() for a in axes]
        if len(axes) != self.dimension:
            raise ConfigError(
                f"got {len(axes)} axes for a {self.dimension}-dimensional density"
            )
        out = np.empty([a.size for a in axes])
        row = int(np.prod(out.shape[1:]))  # 1 at p = 1, 0 for an empty axis
        rows = max(1, _GRID_BLOCK // max(1, row))
        for i in range(0, len(out), rows):
            mesh = np.meshgrid(axes[0][i : i + rows], *axes[1:], indexing="ij")
            out[i : i + rows] = self.vector_eval(np.stack(mesh, axis=-1))
        return out


def ou_logsq_marginal(params: OUParams) -> TruthDensity:
    """Stationary density when the OU path is log sigma^2 itself:
    Normal(mu, b^2/(2a))."""
    var = params.stationary_var
    sd = np.sqrt(var)
    mu = params.mu

    def fn(pts):
        u = np.asarray(pts, dtype=float)[..., 0] - mu
        return np.exp(-0.5 * u * u / var) / (SQRT_2PI * sd)

    box = ((mu - 10.0 * sd, mu + 10.0 * sd),)
    return TruthDensity(fn, box)


def ou_bivariate(params: OUParams, s: float, t: float) -> TruthDensity:
    """Joint stationary law of an OU path at two times: bivariate normal with
    equal means and variances and correlation e^{-a (t - s)}."""
    if not (_is_real(s) and _is_real(t) and np.isfinite(s) and np.isfinite(t)):
        raise DomainError(f"s and t must be finite, got s={s}, t={t}")
    if not s < t:
        raise DomainError(f"need s < t, got s={s}, t={t}")
    var = params.stationary_var
    sd = np.sqrt(var)
    mu = params.mu
    rho = np.exp(-params.a * (t - s))
    det = var * var * (1.0 - rho * rho)

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        u = pts[..., 0] - mu
        v = pts[..., 1] - mu
        quad_form = (u * u - 2.0 * rho * u * v + v * v) / (var * (1.0 - rho * rho))
        return np.exp(-0.5 * quad_form) / (2.0 * np.pi * np.sqrt(det))

    box = ((mu - 10.0 * sd, mu + 10.0 * sd),) * 2
    return TruthDensity(fn, box)


def regime_marginal(params: RegimeSwitchParams) -> TruthDensity:
    """Stationary marginal of xi: the pi-weighted mixture of the two OU
    laws, on the union of their boxes."""
    pi = params.stationary_probs
    m0, m1 = ou_logsq_marginal(params.ou0), ou_logsq_marginal(params.ou1)

    def fn(pts):
        return pi[0] * m0.vector_eval(pts) + pi[1] * m1.vector_eval(pts)

    (lo0, hi0), (lo1, hi1) = m0.truncation_box[0], m1.truncation_box[0]
    return TruthDensity(fn, ((min(lo0, lo1), max(hi0, hi1)),))


def regime_bivariate(params: RegimeSwitchParams, s: float, t: float) -> TruthDensity:
    """Joint law of (xi_s, xi_t) for the regime-switching process.

    Four components, indexed by the chain's states at the two times: stay in
    1, move 0 -> 1, move 1 -> 0, stay in 0.  Stay components are bivariate OU
    laws; move components factor because the two OU paths are independent.
    """
    biv0 = ou_bivariate(params.ou0, s, t)  # refuses s >= t
    biv1 = ou_bivariate(params.ou1, s, t)
    m0, m1 = ou_logsq_marginal(params.ou0), ou_logsq_marginal(params.ou1)
    pi = params.stationary_probs
    q = markov_transition(params.a0, params.a1, t - s)

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., :1], pts[..., 1:]
        stay1 = q[1, 1] * pi[1] * biv1.vector_eval(pts)
        move01 = q[1, 0] * pi[0] * m0.vector_eval(x) * m1.vector_eval(y)
        move10 = q[0, 1] * pi[1] * m1.vector_eval(x) * m0.vector_eval(y)
        stay0 = q[0, 0] * pi[0] * biv0.vector_eval(pts)
        return stay1 + move01 + move10 + stay0

    # not the union of m0's and m1's boxes: with unequal sds those differ
    v0, v1 = params.ou0.stationary_var, params.ou1.stationary_var
    mu0, mu1 = params.ou0.mu, params.ou1.mu
    sd = max(np.sqrt(v0), np.sqrt(v1))
    lo = min(mu0, mu1) - 10.0 * sd
    hi = max(mu0, mu1) + 10.0 * sd
    return TruthDensity(fn, ((lo, hi),) * 2)


def scaled_truth(truth: TruthDensity, factor: float) -> TruthDensity:
    """Push a density through coordinatewise scaling z = factor * x.

    Used to move xi-scale laws onto the log sigma^2 scale, where
    log sigma^2 = 2 xi.
    """
    if not (_is_real(factor) and 0.0 < abs(factor) < np.inf):  # NaN fails too
        raise DomainError(f"scale factor must be finite and nonzero, got {factor}")
    jac = 1.0 / abs(factor) ** truth.dimension

    def fn(pts):
        return truth.vector_eval(np.asarray(pts, dtype=float) / factor) * jac

    box = []
    for lo, hi in truth.truncation_box:
        a, b = lo * factor, hi * factor
        box.append((min(a, b), max(a, b)))
    return TruthDensity(fn, tuple(box))


def invariant_density_1d(
    drift_fn: Callable,
    diff_fn: Callable,
    state_interval,
    x0: float,
) -> TruthDensity:
    """Stationary density of a 1-D diffusion from its scale construction.

    Unnormalized shape: (1 / diff^2(x)) * exp(2 * int_{x0}^{x} drift / diff^2),
    normalized by adaptive quadrature over the state interval.  The choice of
    x0 shifts only the multiplicative constant and cancels on normalization.
    """
    from scipy.integrate import quad  # imported here: slow to import

    lo, hi = float(state_interval[0]), float(state_interval[1])
    if not lo < x0 < hi:
        raise DomainError(f"x0 = {x0} must be interior to ({lo}, {hi})")

    probe = np.linspace(max(lo, x0 - 50.0), min(hi, x0 + 50.0), 201)
    dvals = np.asarray([diff_fn(float(u)) for u in probe], dtype=float)
    bad = np.flatnonzero(~(np.isfinite(dvals) & (dvals > 0.0)))
    if bad.size:
        raise DomainError(
            f"diffusion coefficient must be finite and positive on the interval, got "
            f"{dvals[bad[0]]} at x = {probe[bad[0]]}"
        )

    def exponent_integrand(y):
        d = diff_fn(y)
        return drift_fn(y) / (d * d)

    def unnormalized(x: float) -> float:
        integral, _ = quad(exponent_integrand, x0, x, limit=200)
        d = diff_fn(x)
        arg = 2.0 * integral
        if arg > 700.0:
            return np.inf
        return np.exp(arg) / (d * d)

    norm, norm_err = quad(unnormalized, lo, hi, limit=400, epsrel=1e-9)
    if not np.isfinite(norm) or norm <= 0.0 or norm_err > 1e-6 * norm:
        raise DomainError(
            f"not positive recurrent on ({lo}, {hi}): normalizer {norm} "
            f"(quadrature error estimate {norm_err})"
        )

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        flat = pts[..., 0].ravel()
        out = np.array([unnormalized(float(u)) for u in flat]) / norm
        return out.reshape(pts[..., 0].shape)

    # find a finite box holding all but ~1e-10 of the mass
    if np.isfinite(lo) and np.isfinite(hi):
        box_lo, box_hi = lo, hi
    else:
        half = 4.0
        while half < 1e6:
            tail = 0.0
            if not np.isfinite(hi) or x0 + half < hi:
                tail += quad(unnormalized, x0 + half, hi, limit=200)[0]
            if not np.isfinite(lo) or x0 - half > lo:
                tail += quad(unnormalized, lo, x0 - half, limit=200)[0]
            if tail < 1e-10 * norm:
                break
            half *= 2.0
        box_lo = max(lo, x0 - half)
        box_hi = min(hi, x0 + half)
    return TruthDensity(fn, ((box_lo, box_hi),))
