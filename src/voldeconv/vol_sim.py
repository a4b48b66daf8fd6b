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

Each stage is a private chunk iterator.  simulate_bundle runs them 2048
increments at a time (pieces of 0.8 MB at the default 50 substeps), with
each stream's next chunk made a call ahead on two worker threads, so only
the increments are held at full length.  The regime model's two OU paths are
each drawn and filtered on a worker, and the calling thread splices,
exponentiates and sums; the OU model's one path is filtered on the calling
thread, so that the path's worker only draws, like the price shocks' (a
filter there unbalanced the workers and made OU bundles 5-10 % slower).
Every normal stream is a two-buffer ring of draws (_ring_draws); the OU
filter, exp and sqrt work in place in its pieces.  A bundle keeps its sigma^2
path's recipe, not the path: PathBundle.sigma2 re-runs the sigma^2 stream
(_sigma2_pieces) when first read.  simulate_ou and simulate_regime_switch are
the same iterators read as one chunk; integrate_price is one price block.
"""
from __future__ import annotations

import functools
import itertools
import numbers
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    ConfigError, InputError, _is_real, _require_finite, _require_finite_positive,
    _require_integer, _require_vector,
)
from .quadrature import _in_order

SeedLike = Union[int, np.random.SeedSequence]

# increments per simulate_bundle chunk; the output does not depend on it.
# 2048 makes a piece 0.8 MB at the default ratio; 1024 held 4 MB less in a
# Monte Carlo run but made bundles 5-7 % slower
_CHUNK = 2048
MIN_SUBGRID_RATIO = 10  # fewest fine substeps per delta interval
_SUBGRID_RATIO = 50  # default fine substeps per delta interval
_LOAD_LOCK = threading.Lock()  # a load beside another finds a half-made module


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
        if not (_is_real(self.mu) and np.isfinite(self.mu)):
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


def _check_seed(seed) -> None:
    """Refuse a seed that is neither a SeedSequence nor an integer of at least 0."""
    if not isinstance(seed, np.random.SeedSequence):
        _require_integer("seed", seed, 0, ConfigError)


def _ring_draws(seed: SeedLike, sizes: list):
    """A generator of default_rng(seed).standard_normal's pieces of the given
    sizes, in order, each drawn into one of two buffers made at the call.

    The generator and its buffers are made on the thread that calls here, so
    a worker that only advances the generator allocates no draw array (a
    worker's freed arrays would stay resident in its own malloc arena).
    Piece k is drawn into buffer k % 2, so it is the reader's only until
    piece k + 2 is drawn: a reader must be done with a piece before it asks
    for the next, and a stream read ahead (simulate_bundle) may be at most
    one piece ahead of its reader, as _in_order at ahead 1 is.  The draws are
    the bits of one standard_normal(size) call per piece.
    """
    rng = np.random.default_rng(seed)
    ring = [np.empty(sizes[0]) for _ in sizes[:2]]
    return (rng.standard_normal(out=ring[k % 2][:size]) for k, size in enumerate(sizes))


@functools.cache
def _sosfilt_core():
    """scipy's in-place filter core _sosfilt(sos, x, zi), loaded by file where
    scipy.signal (0.6 s and 50 MB to import) is not imported, else _lfilter_sos."""
    try:
        with _LOAD_LOCK:
            module = sys.modules.get("scipy.signal._sosfilt")
            if module is None:
                from importlib import machinery, util
                # finding scipy.signal's spec imports scipy, not scipy.signal
                where = util.find_spec("scipy.signal").submodule_search_locations
                spec = machinery.PathFinder.find_spec("scipy.signal._sosfilt", where)
                module = util.module_from_spec(spec)
                spec.loader.exec_module(module)
            return module._sosfilt
    except (ImportError, AttributeError, OSError):
        return _lfilter_sos


def _lfilter_sos(sos, x, zi):
    """_sosfilt(sos, x, zi) for one section [[1, 0, 0, 1, a1, 0]], by lfilter."""
    from scipy.signal import lfilter  # imported here: slow to import
    x[0], zi[0, 0, :1] = lfilter([1.0], sos[0, 3:5], x[0], zi=zi[0, 0, :1])


def _ou_filter(params: OUParams, dt: float, draws):
    """Yield the OU path piece by piece, each filtered in place in its draws.

    x_k = phi x_{k-1} + e_k is the section [[1, 0, 0, 1, -phi, 0]], run as
    lfilter([1], [1, -phi]) runs it (y = e + z, z <- phi y), to the same bits;
    zi carries its state between pieces, so any chunk size gives the same path.
    """
    phi = np.exp(-params.a * dt)
    sd_stat = np.sqrt(params.stationary_var)
    scale = sd_stat * np.sqrt(1.0 - phi * phi)
    sos, zi = np.array([[1.0, 0.0, 0.0, 1.0, -phi, 0.0]]), np.zeros((1, 1, 2))
    for k, e in enumerate(draws):
        first = e[0]
        e *= scale
        if k == 0:
            e[0] = first * sd_stat
        _sosfilt_core()(sos, e[np.newaxis], zi)
        e += params.mu
        yield e


def simulate_ou(params: OUParams, n_steps: int, dt: float, seed: SeedLike):
    """Simulate n_steps points of the OU process on a dt grid.

    Exact discretization: X_{k+1} = mu + (X_k - mu) e^{-a dt} + eta_k with
    eta_k ~ N(0, (b^2/2a)(1 - e^{-2 a dt})), and X_0 drawn stationary.  One
    standard-normal draw per step, in order, from default_rng(seed).
    """
    _require_integer("n_steps", n_steps, 1, InputError)
    _require_finite_positive("dt", dt, ConfigError)
    _check_seed(seed)
    return next(_ou_filter(params, dt, _ring_draws(seed, [n_steps])))


def markov_transition(a0: float, a1: float, t: float) -> np.ndarray:
    """Transition matrix Q(t) of the two-state chain; column j is the
    distribution at time t started from state j (columns sum to 1)."""
    _require_finite_positive("a0", a0, ConfigError)
    _require_finite_positive("a1", a1, ConfigError)
    if isinstance(t, numbers.Real) and not isinstance(t, bool) and not _is_real(t):
        raise ConfigError(f"t is out of float range: |t| exceeds {np.finfo(float).max}")
    if not (_is_real(t) and t >= 0.0):  # NaN fails too
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


def _regime_chunks(params: RegimeSwitchParams, dt: float, seed: SeedLike, sizes: list, ahead=iter):
    """Yield simulate_regime_switch's path in pieces of the given sizes.

    The chain's jump times over the whole horizon are drawn first; the two OU
    paths are then streamed side by side, and every piece takes X^1 where
    the chain is in state 1 and X^0 elsewhere.  Each path's filtered pieces
    are read through ahead(stream), so where simulate_bundle reads them
    ahead both filters run on its workers, and this thread only splices.
    """
    n_steps = sum(sizes)
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

    x0s, x1s = (
        ahead(_ou_filter(ou, dt, _ring_draws(ou_ss, sizes)))
        for ou, ou_ss in ((params.ou0, ou0_ss), (params.ou1, ou1_ss))
    )
    for start, x0, x1 in zip(itertools.accumulate(sizes, initial=0), x0s, x1s):
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
    _check_seed(seed)
    return next(_regime_chunks(params, dt, seed, [n_steps]))


def _price_block(sigma2, z, fine_dt, delta, ratio, drift, start):
    """Normalized increments of the whole delta intervals covered by the
    substeps start, start + 1, ... whose sigma^2 (overwritten) and shocks are given."""
    steps = np.sqrt(sigma2, out=sigma2)
    steps *= np.sqrt(fine_dt)
    steps *= z
    if drift is not None:
        t_left = np.arange(start, start + steps.size) * fine_dt
        b = np.broadcast_to(np.asarray(drift(t_left), dtype=float), t_left.shape)
        steps += b * fine_dt
    return steps.reshape(-1, ratio).sum(axis=1) / np.sqrt(delta)


def _check_variance(sigma2: np.ndarray, start: int = 0) -> None:
    """Refuse NaN, infinite and non-positive sigma^2; the index named is
    counted from start, the path index of sigma2[0]."""
    if sigma2.min() > 0.0 and sigma2.max() < np.inf:  # NaN fails both
        return
    for bad, what in ((~np.isfinite(sigma2), "non-finite"), (sigma2 <= 0.0, "non-positive")):
        if np.any(bad):
            raise InputError(
                f"{int(np.count_nonzero(bad))} {what} sigma^2 values, the first "
                f"at index {start + int(np.flatnonzero(bad)[0])}"
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
    the sigma path.  Non-finite increments (from the drift) raise InputError.
    """
    sigma2 = np.array(sigma2_path, dtype=float)  # a copy: _price_block writes it
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
    _check_seed(seed)
    z = next(_ring_draws(seed, [sigma2.size]))
    increments = _price_block(sigma2, z, fine_dt, delta, ratio, drift, 0)
    _require_finite("increments", increments, InputError)
    return increments


def _piece_sizes(n: int, subgrid_ratio: int) -> list:
    """Substeps in each piece of an n-increment bundle: _CHUNK increments'
    worth, and what is left in the last."""
    n_fine, chunk = n * subgrid_ratio, _CHUNK * subgrid_ratio
    return [min(chunk, n_fine - start) for start in range(0, n_fine, chunk)]


def _sigma2_pieces(model: str, params, fine_dt: float, path_ss, sizes: list, ahead=iter):
    """Yield a bundle's sigma^2 path in pieces of the given sizes.

    Each piece is exponentiated in place over its log-variance filter output
    (doubled first for "regime"), and refused with _check_variance's
    InputError, naming its first bad index over the whole path, before it
    is yielded.  The path's streams are read through ahead(stream), as in
    _regime_chunks.
    """
    if model == "ou":
        log_sigma2 = _ou_filter(params, fine_dt, ahead(_ring_draws(path_ss, sizes)))
    else:
        xi = _regime_chunks(params, fine_dt, path_ss, sizes, ahead)
        log_sigma2 = (np.multiply(x, 2.0, out=x) for x in xi)
    for start, log_s2 in zip(itertools.accumulate(sizes, initial=0), log_sigma2):
        s2 = np.exp(log_s2, out=log_s2)
        _check_variance(s2, start)
        yield s2


@dataclass(frozen=True, eq=False)
class PathBundle:
    """One simulated realization: price increments plus the recipe of the
    fine sigma^2 path they were integrated over.

    increments    : normalized price increments, one per delta interval,
                    finite, as a 1-D float array.
    delta         : sampling interval, finite and positive.
    subgrid_ratio : substeps per delta interval, an integer of at least 10.
    model, params : the volatility model by name (a key of MODELS) and its
                    params.
    seed          : the master seed, an integer of at least 0; its first
                    child stream is the sigma path's.
    """

    increments: np.ndarray
    delta: float
    subgrid_ratio: int
    model: str
    params: Union[OUParams, RegimeSwitchParams]
    seed: int

    def __post_init__(self):
        _require_finite_positive("delta", self.delta, ConfigError)
        _require_integer("subgrid_ratio", self.subgrid_ratio, MIN_SUBGRID_RATIO, ConfigError)
        _check_model(self.model, self.params)
        _require_integer("seed", self.seed, 0, ConfigError)
        increments = _require_vector("increments", self.increments, InputError)
        object.__setattr__(self, "increments", increments)

    @property
    def fine_dt(self) -> float:
        """Substep of the sigma^2 lattice."""
        return self.delta / self.subgrid_ratio

    @functools.cached_property
    def sigma2(self) -> np.ndarray:
        """sigma^2 at substep left endpoints, subgrid_ratio per increment, as a
        1-D float array: re-simulated on this thread at the first read, bit for
        bit the values the increments were integrated over."""
        sizes = _piece_sizes(self.increments.size, self.subgrid_ratio)
        path_ss = np.random.SeedSequence(self.seed).spawn(2)[0]
        sigma2 = np.empty(sum(sizes))
        pieces = _sigma2_pieces(self.model, self.params, self.fine_dt, path_ss, sizes)
        for start, s2 in zip(itertools.accumulate(sizes, initial=0), pieces):
            sigma2[start:start + s2.size] = s2
        return sigma2


def simulate_bundle(
    model: str,
    params,
    n: int,
    delta: float,
    seed: int,
    subgrid_ratio: int = _SUBGRID_RATIO,
    drift: Optional[Callable] = None,
) -> PathBundle:
    """Simulate n price increments under the named volatility model.

    model "ou": the OU path is log sigma^2 itself (sigma^2 = e^X), so the
    density being estimated is Normal(mu, b^2/2a).  model "regime": sigma =
    exp(xi), so log sigma^2 = 2 xi and the estimand is the two-component
    mixture on that doubled scale.  Child streams of `seed`, in order:
    sigma path, price shocks.

    The path is made _CHUNK increments at a time, and only the increments
    are kept: the bundle's sigma2 re-runs the path's stream when it is read.
    Every stream is built here and read through ahead(stream), the one place
    a stream goes to the pool: _in_order at ahead 1 makes its next chunk on
    one of two workers while this thread finishes the current one.  For "ou"
    the workers draw the path's normals and the shocks, and this thread
    filters, exponentiates and sums; for "regime" they also filter both OU
    paths, and this thread splices, exponentiates and sums.  A piece with
    non-finite or non-positive sigma^2 raises InputError before it is summed.
    Each stream is advanced one call at a time, in order, so the bundle is
    simulate_ou -> exp -> integrate_price (or its regime equivalent) bit for
    bit, whatever the chunk size or thread timing.
    """
    _require_integer("n", n, 1, InputError)
    _require_integer("subgrid_ratio", subgrid_ratio, MIN_SUBGRID_RATIO, ConfigError)
    _require_finite_positive("delta", delta, ConfigError)
    _require_integer("seed", seed, 0, ConfigError)
    _check_model(model, params)
    fine_dt = delta / subgrid_ratio
    path_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    increments = np.empty(n)
    sizes = _piece_sizes(n, subgrid_ratio)
    with ThreadPoolExecutor(max_workers=2) as pool:

        def ahead(stream):
            return _in_order(pool, next, itertools.repeat(stream, len(sizes)), 1)

        sigma2 = _sigma2_pieces(model, params, fine_dt, path_ss, sizes, ahead)
        shocks = ahead(_ring_draws(noise_ss, sizes))
        for start, s2, z in zip(itertools.accumulate(sizes, initial=0), sigma2, shocks):
            first = start // subgrid_ratio
            increments[first:first + s2.size // subgrid_ratio] = _price_block(
                s2, z, fine_dt, delta, subgrid_ratio, drift, start
            )
    return PathBundle(increments, float(delta), int(subgrid_ratio), model, params, seed)
