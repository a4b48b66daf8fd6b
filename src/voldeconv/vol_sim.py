"""Stationary stochastic-volatility simulators.

Two shipped models for the latent log-volatility signal:

* mean-reverting Gaussian (Ornstein-Uhlenbeck) paths, simulated by the exact
  one-step recursion so there is no discretization bias to confound tests;
* a two-state regime-switching process: a continuous-time Markov chain picks
  between two independent OU paths, xi_t = U_t X^1_t + (1 - U_t) X^0_t, with
  volatility sigma_t = exp(xi_t).

Log prices are then integrated on a fine subgrid: each sampling-interval
increment is a Riemann sum of drift plus sigma times independent Gaussian
shocks, normalized by sqrt(delta).  The sigma path and the price shocks come
from independent, documented child streams of one master seed, so every
bundle is reproducible from (seed, parameters) alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, InputError

SeedLike = Union[int, np.random.SeedSequence]


@dataclass(frozen=True)
class OUParams:
    """Mean-reverting Gaussian process dX = -a (X - mu) dt + b dW.

    Stationary law is Normal(mu, b^2 / (2a)).
    """

    a: float
    mu: float
    b: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise ConfigError(f"mean-reversion rate a must be positive, got {self.a}")
        if not self.b > 0.0:
            raise ConfigError(f"diffusion b must be positive, got {self.b}")

    @property
    def stationary_var(self) -> float:
        return self.b**2 / (2.0 * self.a)


@dataclass(frozen=True)
class RegimeSwitchParams:
    """Two-state switching between independent OU paths.

    a0, a1 are the chain's holding intensities: the chain leaves state i at
    rate a_i, so the stationary probabilities are pi_i = a_{1-i} / (a0 + a1).
    """

    a0: float
    a1: float
    ou0: "OUParams"
    ou1: "OUParams"

    def __post_init__(self):
        if not (self.a0 > 0.0 and self.a1 > 0.0):
            raise ConfigError(
                f"transition intensities must be positive, got ({self.a0}, {self.a1})"
            )

    @property
    def stationary_probs(self) -> np.ndarray:
        s = self.a0 + self.a1
        return np.array([self.a1 / s, self.a0 / s])


def simulate_ou(params: OUParams, n_steps: int, dt: float, seed: SeedLike):
    """Simulate n_steps points of the OU process on a dt grid.

    Exact discretization: X_{k+1} = mu + (X_k - mu) e^{-a dt} + eta_k with
    eta_k ~ N(0, (b^2/2a)(1 - e^{-2 a dt})), and X_0 drawn stationary.  One
    standard-normal draw per step, in order, from default_rng(seed).
    """
    if n_steps < 1:
        raise InputError(f"n_steps must be at least 1, got {n_steps}")
    if not dt > 0.0:
        raise ConfigError(f"dt must be positive, got {dt}")
    from scipy.signal import lfilter  # imported here: slow to import

    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_steps)
    phi = np.exp(-params.a * dt)
    sd_stat = np.sqrt(params.stationary_var)
    e = z * (sd_stat * np.sqrt(1.0 - phi * phi))
    e[0] = z[0] * sd_stat
    # AR(1) recursion x_k = phi x_{k-1} + e_k as a linear filter
    x = lfilter([1.0], [1.0, -phi], e)
    return params.mu + x


def markov_transition(a0: float, a1: float, t: float) -> np.ndarray:
    """Transition matrix Q(t) of the two-state chain; column j is the
    distribution at time t started from state j (columns sum to 1)."""
    if not (a0 > 0.0 and a1 > 0.0):
        raise ConfigError(f"intensities must be positive, got ({a0}, {a1})")
    if t < 0.0:
        raise ConfigError(f"t must be nonnegative, got {t}")
    s = a0 + a1
    d = np.exp(-s * t)
    return (
        np.array([[a1 + a0 * d, a1 - a1 * d], [a0 - a0 * d, a0 + a1 * d]]) / s
    )


def simulate_regime_switch(
    params: RegimeSwitchParams, n_steps: int, dt: float, seed: SeedLike
):
    """Simulate xi_t = U_t X^1_t + (1 - U_t) X^0_t on a dt grid.

    The chain U is simulated exactly by exponential holding clocks (state i
    holds for Exp(a_i) time), started from its stationary law; X^0 and X^1
    are independent OU paths.  Child streams of `seed`, in order: chain,
    X^0, X^1.
    """
    if n_steps < 1:
        raise InputError(f"n_steps must be at least 1, got {n_steps}")
    if not dt > 0.0:
        raise ConfigError(f"dt must be positive, got {dt}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    chain_ss, ou0_ss, ou1_ss = ss.spawn(3)

    rng = np.random.default_rng(chain_ss)
    pi = params.stationary_probs
    state0 = 0 if rng.random() < pi[0] else 1
    horizon = (n_steps - 1) * dt
    rates = np.array([params.a0, params.a1])

    # alternating exponential holding times until the horizon is covered
    jumps = np.empty(0)
    elapsed = 0.0
    parity = state0
    while elapsed <= horizon:
        batch = max(64, int(horizon * max(params.a0, params.a1)) + 64)
        raw = rng.standard_exponential(batch)
        scale = np.where((parity + np.arange(batch)) % 2 == 0, 1.0 / rates[0], 1.0 / rates[1])
        holds = raw * scale
        jumps = np.concatenate([jumps, elapsed + np.cumsum(holds)])
        elapsed = float(jumps[-1])
        parity = (parity + batch) % 2

    grid = np.arange(n_steps) * dt
    n_jumps = np.searchsorted(jumps, grid, side="right")
    occupied = (state0 + n_jumps) % 2

    x0 = simulate_ou(params.ou0, n_steps, dt, ou0_ss)
    x1 = simulate_ou(params.ou1, n_steps, dt, ou1_ss)
    return np.where(occupied == 1, x1, x0)


def integrate_price(
    sigma2_path,
    fine_dt: float,
    delta: float,
    drift: Optional[Callable] = None,
    seed: SeedLike = 0,
):
    """Normalized log-price increments from a fine-grid sigma^2 path.

    Each increment is the Riemann sum over delta/fine_dt substeps of
    drift(t) * fine_dt + sigma_t * sqrt(fine_dt) * N(0,1), with sigma and
    drift read at substep left endpoints, then divided by sqrt(delta).  The
    shock stream is keyed by `seed` and independent of whatever generated
    the sigma path.
    """
    sigma2 = np.asarray(sigma2_path, dtype=float)
    if sigma2.ndim != 1 or sigma2.size < 1:
        raise InputError("sigma2_path must be a non-empty 1-D sequence")
    if np.any(sigma2 <= 0.0):
        raise InputError("sigma2 path must be strictly positive")
    if not (fine_dt > 0.0 and delta > 0.0):
        raise ConfigError(f"need positive steps, got fine_dt={fine_dt}, delta={delta}")
    ratio_f = delta / fine_dt
    ratio = int(round(ratio_f))
    if abs(ratio_f - ratio) > 1e-9 * max(1.0, ratio_f) or ratio < 10:
        raise ConfigError(
            f"delta/fine_dt = {ratio_f} must be an integer of at least 10"
        )
    if sigma2.size % ratio != 0:
        raise ConfigError(
            f"sigma2 path length {sigma2.size} is not a multiple of the "
            f"subgrid ratio {ratio}"
        )
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(sigma2.size)
    steps = np.sqrt(sigma2) * np.sqrt(fine_dt) * z
    if drift is not None:
        t_left = np.arange(sigma2.size) * fine_dt
        b = np.broadcast_to(np.asarray(drift(t_left), dtype=float), t_left.shape)
        steps = steps + b * fine_dt
    blocks = steps.reshape(-1, ratio)
    return blocks.sum(axis=1) / np.sqrt(delta)


@dataclass(frozen=True, eq=False)
class PathBundle:
    """One simulated realization: fine sigma^2 path plus price increments.

    fine_dt    : substep of the sigma^2 lattice.
    sigma2     : sigma^2 at substep left endpoints, strictly positive.
    increments : normalized price increments, one per delta interval.
    delta      : sampling interval; delta/fine_dt is a positive integer.
    seed       : master seed the bundle was generated from.
    """

    fine_dt: float
    sigma2: np.ndarray
    increments: np.ndarray
    delta: float
    seed: int

    def __post_init__(self):
        if not (self.fine_dt > 0.0 and self.delta > 0.0):
            raise ConfigError("fine_dt and delta must be positive")
        ratio_f = self.delta / self.fine_dt
        if abs(ratio_f - round(ratio_f)) > 1e-9 * max(1.0, ratio_f) or ratio_f < 1:
            raise ConfigError(
                f"delta/fine_dt = {ratio_f} must be a positive integer"
            )
        if np.any(np.asarray(self.sigma2) <= 0.0):
            raise ConfigError("sigma2 entries must be strictly positive")
        expected = np.asarray(self.increments).size * self.subgrid_ratio
        if np.asarray(self.sigma2).size != expected:
            raise ConfigError(
                f"sigma2 length {np.asarray(self.sigma2).size} does not cover "
                f"{np.asarray(self.increments).size} increments at ratio "
                f"{self.subgrid_ratio}"
            )

    @property
    def subgrid_ratio(self) -> int:
        return int(round(self.delta / self.fine_dt))


def simulate_bundle(
    model: str,
    params,
    n: int,
    delta: float,
    seed: int,
    subgrid_ratio: int = 50,
    drift: Optional[Callable] = None,
) -> PathBundle:
    """Simulate n price increments under the named volatility model.

    model "ou": the OU path is log sigma^2 itself (sigma^2 = e^X), so the
    density being estimated is Normal(mu, b^2/2a).  model "regime": sigma =
    exp(xi), so log sigma^2 = 2 xi and the estimand is the two-component
    mixture on that doubled scale.  Child streams of `seed`, in order:
    sigma path, price shocks.
    """
    if n < 1:
        raise InputError(f"need n >= 1 increments, got {n}")
    if subgrid_ratio < 10:
        raise ConfigError(f"subgrid_ratio must be at least 10, got {subgrid_ratio}")
    fine_dt = delta / subgrid_ratio
    n_fine = n * subgrid_ratio
    ss = np.random.SeedSequence(seed)
    path_ss, noise_ss = ss.spawn(2)
    if model == "ou":
        if not isinstance(params, OUParams):
            raise ConfigError("model 'ou' requires OUParams")
        log_sigma2 = simulate_ou(params, n_fine, fine_dt, path_ss)
        sigma2 = np.exp(log_sigma2)
    elif model == "regime":
        if not isinstance(params, RegimeSwitchParams):
            raise ConfigError("model 'regime' requires RegimeSwitchParams")
        xi = simulate_regime_switch(params, n_fine, fine_dt, path_ss)
        sigma2 = np.exp(2.0 * xi)
    else:
        raise ConfigError(f"unknown model {model!r}; expected 'ou' or 'regime'")
    increments = integrate_price(sigma2, fine_dt, delta, drift=drift, seed=noise_ss)
    return PathBundle(
        fine_dt=fine_dt,
        sigma2=sigma2,
        increments=increments,
        delta=float(delta),
        seed=int(seed),
    )
