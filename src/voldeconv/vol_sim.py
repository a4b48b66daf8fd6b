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

Each stage is a private chunk generator.  simulate_bundle runs them a few
thousand increments at a time, with the normal draws made a chunk ahead on
two worker threads, so only sigma^2 is held at full length; the public
simulate_ou, simulate_regime_switch and integrate_price are the same
generators read as one chunk.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError, InputError, _require_finite_positive, _require_integer

SeedLike = Union[int, np.random.SeedSequence]

# increments per simulate_bundle chunk; the output does not depend on it
_CHUNK = 4096
MIN_SUBGRID_RATIO = 10  # fewest fine substeps per delta interval


@dataclass(frozen=True)
class OUParams:
    """Mean-reverting Gaussian process dX = -a (X - mu) dt + b dW.

    Stationary law is Normal(mu, b^2 / (2a)).
    """

    a: float
    mu: float
    b: float

    def __post_init__(self):
        _require_finite_positive("a", self.a, ConfigError)
        _require_finite_positive("b", self.b, ConfigError)
        if not np.isfinite(self.mu):
            raise ConfigError(f"mu must be finite, got {self.mu!r}")

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
        _require_finite_positive("a0", self.a0, ConfigError)
        _require_finite_positive("a1", self.a1, ConfigError)

    @property
    def stationary_probs(self) -> np.ndarray:
        s = self.a0 + self.a1
        return np.array([self.a1 / s, self.a0 / s])


# the volatility models simulate_bundle knows, by name, with their params type
MODELS = {"ou": OUParams, "regime": RegimeSwitchParams}


def _check_model(model: str, params) -> None:
    """Refuse a model name outside MODELS, or params not of its type."""
    if model not in MODELS:
        expected = " or ".join(map(repr, MODELS))
        raise ConfigError(f"unknown model {model!r}; expected {expected}")
    if not isinstance(params, MODELS[model]):
        raise ConfigError(
            f"model {model!r} needs {MODELS[model].__name__} params, "
            f"got {type(params).__name__}"
        )


def _normal_chunks(seed: SeedLike, size: int, chunk: int):
    """Yield default_rng(seed)'s first `size` standard normals in pieces of at
    most `chunk`; joined, they are the bits of one standard_normal(size)."""
    rng = np.random.default_rng(seed)
    for start in range(0, size, chunk):
        yield rng.standard_normal(min(chunk, size - start))


def _ou_chunks(
    params: OUParams, n_steps: int, dt: float, seed: SeedLike, chunk: int, read: Callable = iter
):
    """Yield simulate_ou's path in consecutive pieces of at most `chunk` steps.

    The normals are default_rng(seed)'s, in order and read through `read`,
    and the AR(1) state is carried between pieces by lfilter's zi, so the
    pieces joined are the same bits whatever the chunk size.
    """
    from scipy.signal import lfilter  # imported here: slow to import

    phi = np.exp(-params.a * dt)
    sd_stat = np.sqrt(params.stationary_var)
    scale = sd_stat * np.sqrt(1.0 - phi * phi)
    state = np.zeros(1)
    normals = read(_normal_chunks(seed, n_steps, chunk))
    for start, e in zip(range(0, n_steps, chunk), normals):
        first = e[0]
        e *= scale
        if start == 0:
            e[0] = first * sd_stat
        # AR(1) recursion x_k = phi x_{k-1} + e_k as a linear filter
        x, state = lfilter([1.0], [1.0, -phi], e, zi=state)
        x += params.mu
        yield x


def simulate_ou(params: OUParams, n_steps: int, dt: float, seed: SeedLike):
    """Simulate n_steps points of the OU process on a dt grid.

    Exact discretization: X_{k+1} = mu + (X_k - mu) e^{-a dt} + eta_k with
    eta_k ~ N(0, (b^2/2a)(1 - e^{-2 a dt})), and X_0 drawn stationary.  One
    standard-normal draw per step, in order, from default_rng(seed).
    """
    _require_integer("n_steps", n_steps, 1, InputError)
    _require_finite_positive("dt", dt, ConfigError)
    return next(_ou_chunks(params, n_steps, dt, seed, n_steps))


def markov_transition(a0: float, a1: float, t: float) -> np.ndarray:
    """Transition matrix Q(t) of the two-state chain; column j is the
    distribution at time t started from state j (columns sum to 1)."""
    _require_finite_positive("a0", a0, ConfigError)
    _require_finite_positive("a1", a1, ConfigError)
    if not t >= 0.0:  # NaN fails too
        raise ConfigError(f"t must be nonnegative, got {t}")
    s = a0 + a1
    d = np.exp(-s * t)
    return (
        np.array([[a1 + a0 * d, a1 - a1 * d], [a0 - a0 * d, a0 + a1 * d]]) / s
    )


def _first_at_or_after(times: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """For each time, the first grid index k < n_steps with k * dt >= time
    (n_steps if none), with k * dt rounded exactly as np.arange(n_steps) * dt."""
    k = np.minimum(np.ceil(times / dt), n_steps).astype(np.int64)
    while True:  # ceil(time / dt) can be one step off after rounding
        early = (k < n_steps) & (k * dt < times)
        late = (k > 0) & ((k - 1) * dt >= times)
        if not (early.any() or late.any()):
            return k
        k += early
        k -= late


def _regime_chunks(
    params: RegimeSwitchParams,
    n_steps: int,
    dt: float,
    seed: SeedLike,
    chunk: int,
    read: Callable = iter,
):
    """Yield simulate_regime_switch's path in pieces of at most `chunk` steps.

    The chain's jump times over the whole horizon are drawn first; the two OU
    paths are then streamed side by side, each through `read`, and every
    piece takes X^1 where the chain is in state 1 and X^0 elsewhere.
    """
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
    # a jump at time J is counted from the first grid point at or after J
    switch = _first_at_or_after(jumps, dt, n_steps)

    paths = zip(
        range(0, n_steps, chunk),
        _ou_chunks(params.ou0, n_steps, dt, ou0_ss, chunk, read),
        _ou_chunks(params.ou1, n_steps, dt, ou1_ss, chunk, read),
    )
    for start, x0, x1 in paths:
        state = (state0 + np.searchsorted(switch, start, side="right")) % 2
        inside = switch[(switch > start) & (switch < start + x0.size)] - start
        edges = np.concatenate([[0], inside, [x0.size]])
        for lo, hi in zip(edges[:-1], edges[1:]):
            if state == 1:
                x0[lo:hi] = x1[lo:hi]
            state ^= 1
        yield x0


def simulate_regime_switch(
    params: RegimeSwitchParams, n_steps: int, dt: float, seed: SeedLike
):
    """Simulate xi_t = U_t X^1_t + (1 - U_t) X^0_t on a dt grid.

    The chain U is simulated exactly by exponential holding clocks (state i
    holds for Exp(a_i) time), started from its stationary law; X^0 and X^1
    are independent OU paths.  Child streams of `seed`, in order: chain,
    X^0, X^1.
    """
    _require_integer("n_steps", n_steps, 1, InputError)
    _require_finite_positive("dt", dt, ConfigError)
    return next(_regime_chunks(params, n_steps, dt, seed, n_steps))


def _price_block(sigma2, z, fine_dt, delta, ratio, drift, start):
    """Normalized increments of the whole delta intervals covered by the
    substeps start, start + 1, ... whose sigma^2 and shocks are given."""
    steps = np.sqrt(sigma2)
    steps *= np.sqrt(fine_dt)
    steps *= z
    if drift is not None:
        t_left = np.arange(start, start + steps.size) * fine_dt
        b = np.broadcast_to(np.asarray(drift(t_left), dtype=float), t_left.shape)
        steps += b * fine_dt
    return steps.reshape(-1, ratio).sum(axis=1) / np.sqrt(delta)


def _check_variance(sigma2: np.ndarray) -> None:
    """Refuse NaN, infinite and non-positive sigma^2."""
    if sigma2.min() > 0.0 and sigma2.max() < np.inf:  # NaN fails both
        return
    for bad, what in ((~np.isfinite(sigma2), "non-finite"), (sigma2 <= 0.0, "non-positive")):
        if np.any(bad):
            raise InputError(
                f"{int(np.count_nonzero(bad))} {what} sigma^2 values, the first "
                f"at index {int(np.flatnonzero(bad)[0])}"
            )


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
        raise InputError(
            f"sigma2_path must be a non-empty 1-D sequence, got shape {sigma2.shape}"
        )
    _check_variance(sigma2)
    _require_finite_positive("fine_dt", fine_dt, ConfigError)
    _require_finite_positive("delta", delta, ConfigError)
    ratio_f = delta / fine_dt
    ratio = int(round(ratio_f))
    if abs(ratio_f - ratio) > 1e-9 * max(1.0, ratio_f) or ratio < MIN_SUBGRID_RATIO:
        raise ConfigError(
            f"delta/fine_dt = {ratio_f} must be an integer of at least {MIN_SUBGRID_RATIO}"
        )
    if sigma2.size % ratio != 0:
        raise ConfigError(
            f"sigma2 path length {sigma2.size} is not a multiple of the "
            f"subgrid ratio {ratio}"
        )
    z = next(_normal_chunks(seed, sigma2.size, sigma2.size))
    return _price_block(sigma2, z, fine_dt, delta, ratio, drift, 0)


@dataclass(frozen=True, eq=False)
class PathBundle:
    """One simulated realization: price increments plus the fine sigma^2 path.

    increments    : normalized price increments, one per delta interval.
    delta         : sampling interval, finite and positive.
    subgrid_ratio : substeps per delta interval, an integer of at least 10.
    sigma2        : sigma^2 at substep left endpoints, finite and strictly
                    positive, subgrid_ratio of them per increment.
    """

    increments: np.ndarray
    delta: float
    subgrid_ratio: int
    sigma2: np.ndarray

    def __post_init__(self):
        _require_finite_positive("delta", self.delta, ConfigError)
        _require_integer("subgrid_ratio", self.subgrid_ratio, MIN_SUBGRID_RATIO, ConfigError)
        sigma2 = np.asarray(self.sigma2, dtype=float)
        n = np.asarray(self.increments).size
        if sigma2.size != n * self.subgrid_ratio:
            raise ConfigError(
                f"sigma2 length {sigma2.size} does not cover {n} increments "
                f"at ratio {self.subgrid_ratio}"
            )
        if sigma2.size:
            _check_variance(sigma2)

    @property
    def fine_dt(self) -> float:
        """Substep of the sigma^2 lattice."""
        return self.delta / self.subgrid_ratio


def _read_ahead(pool, chunks):
    """Yield from `chunks`, computing each next item on `pool` while the
    caller works on the current one.  Only one item is in flight at a time,
    so the stream advances in order and its items do not depend on timing."""
    future = pool.submit(next, chunks, None)
    while (item := future.result()) is not None:
        future = pool.submit(next, chunks, None)
        yield item


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

    The path is made _CHUNK increments at a time: two worker threads draw
    the next chunk of normals for the log-variance path and for the price
    shocks while this thread filters, exponentiates and sums the current
    one.  Each stream is advanced by one thread at a time and in order, so
    the bundle is simulate_ou -> exp -> integrate_price (or its regime
    equivalent) bit for bit, whatever the chunk size or thread timing.
    """
    _require_integer("n", n, 1, InputError)
    _require_integer("subgrid_ratio", subgrid_ratio, MIN_SUBGRID_RATIO, ConfigError)
    _require_finite_positive("delta", delta, ConfigError)
    _check_model(model, params)
    from concurrent.futures import ThreadPoolExecutor  # imported here: unused at import

    fine_dt = delta / subgrid_ratio
    n_fine = n * subgrid_ratio
    chunk = _CHUNK * subgrid_ratio
    path_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    sigma2 = np.empty(n_fine)
    increments = np.empty(n)
    with ThreadPoolExecutor(max_workers=2) as pool:
        ahead = functools.partial(_read_ahead, pool)
        if model == "ou":
            log_sigma2 = _ou_chunks(params, n_fine, fine_dt, path_ss, chunk, read=ahead)
        else:
            xi = _regime_chunks(params, n_fine, fine_dt, path_ss, chunk, read=ahead)
            log_sigma2 = (2.0 * x for x in xi)
        shocks = ahead(_normal_chunks(noise_ss, n_fine, chunk))
        for start, log_s2, z in zip(range(0, n_fine, chunk), log_sigma2, shocks):
            s2 = np.exp(log_s2, out=sigma2[start:start + log_s2.size])
            first = start // subgrid_ratio
            increments[first:first + s2.size // subgrid_ratio] = _price_block(
                s2, z, fine_dt, delta, subgrid_ratio, drift, start
            )
    return PathBundle(
        increments=increments,
        delta=float(delta),
        subgrid_ratio=int(subgrid_ratio),
        sigma2=sigma2,
    )
