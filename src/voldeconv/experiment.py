"""End-to-end Monte Carlo experiments: simulate, estimate, compare to truth.

A single flat config fixes the model, the (n, delta, h) schedule, the grid,
the replication count, and one master seed; everything downstream is derived
deterministically.  Per-replication seeds mix the master seed with the
(n-index, replication-index) pair through numpy's SeedSequence spawn keys, so
any record can be regenerated in isolation.

Determinism contract: records.csv, aggregate.csv, grids/*.csv and config.echo
are byte-identical across re-runs on one platform.  Wall-clock timings are
inherently non-reproducible, so they are quarantined in a separate
timings.csv sidecar instead of polluting the deterministic files.
"""
from __future__ import annotations

import contextlib
import itertools
import numbers
import operator
import os
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Tuple

import numpy as np

from .analytic_truth import (
    TruthDensity,
    ou_bivariate,
    ou_logsq_marginal,
    regime_bivariate,
    regime_marginal,
    scaled_truth,
)
from .deconv_kernel import build_table
from .errors import ConfigError, InputError, _require_integer
from .estimator import (
    _CLAMP_FLOOR,
    DensityGrid,
    ObservationSet,
    _check_times,
    _floor_index,
    _vector_count,
    bandwidth_schedule,
    estimate_density,
)
from .quadrature import gauss_legendre_box, tensor_quadrature
from .smoothing_kernel import builtin_kernel, kernel_moments
from .vol_sim import (
    _SUBGRID_RATIO, MIN_SUBGRID_RATIO, OUParams, RegimeSwitchParams, _check_model, simulate_bundle,
)

_TABLE_STEP = 0.02  # lattice step in kernel-argument units; valid for all h
_AUTO_POINTS = {1: 201, 2: 61}  # grid points per axis for grid = auto
_LOG_SQ_FLOOR = 2.0 * np.log(_CLAMP_FLOOR)  # floor of the log-square transform


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one Monte Carlo experiment."""

    model: str
    params: object
    n_schedule: Tuple[int, ...]
    delta_exp: float
    gamma: float
    times: Tuple[float, ...]
    grid_spec: str
    replications: int
    master_seed: int
    kernel_name: str = "poly3"
    bandwidth_override: Optional[float] = None
    subgrid_ratio: int = _SUBGRID_RATIO

    def __post_init__(self):
        _check_model(self.model, self.params)
        if self.model == "regime":  # the flat format has one a and one b
            ou0, ou1 = self.params.ou0, self.params.ou1
            if (ou0.a, ou0.b) != (ou1.a, ou1.b):
                raise ConfigError(
                    f"regimes must share a and b, got ou0 = {ou0}, ou1 = {ou1}"
                )
        _require_integer("replications", self.replications, 1, ConfigError)
        _require_integer("master_seed", self.master_seed, 0, ConfigError)
        builtin_kernel(self.kernel_name)
        _require_integer("subgrid_ratio", self.subgrid_ratio, MIN_SUBGRID_RATIO, ConfigError)
        try:
            sched = tuple(self.n_schedule)
        except TypeError:
            raise ConfigError(f"n_schedule must be a sequence, got {self.n_schedule!r}") from None
        for n in sched:
            _require_integer("n_schedule entry", n, 2, ConfigError)
        sched = tuple(map(int, sched))
        if not sched or any(b <= a for a, b in zip(sched, sched[1:])):
            raise ConfigError(f"n schedule must be strictly increasing, got {sched}")
        # stored as checked, so that a config hashes and equals its mapping's
        object.__setattr__(self, "n_schedule", sched)
        object.__setattr__(self, "times", _check_times(self.times))
        truth_for_model(self.model, self.params, self.times)  # every run needs it: p <= 2
        for n in sched:  # gamma, delta_exp, the bandwidth, each n's h and its m >= 1
            delta, _, _ = bandwidth_schedule(
                n, self.p, self.gamma, self.delta_exp, self.bandwidth_override)
            offsets = [_floor_index(t, delta) for t in self.times]
            if _vector_count(n, offsets) < 1:
                raise ConfigError(
                    f"n = {n} increments at delta = {delta:.6g} leave no observation vector: "
                    f"the index offsets of times {self.times} span {offsets[-1] - offsets[0]}")
        if not isinstance(self.grid_spec, str):
            raise ConfigError(f"grid_spec must be a string, got {self.grid_spec!r}")
        if self.grid_spec != "auto":
            parse_grid_spec(self.grid_spec, self.p)

    @property
    def p(self) -> int:
        return len(self.times)

    def to_mapping(self) -> dict:
        """Flat key = value view, invertible by from_mapping: the _CONFIG_KEYS
        in order, the model's params keys after model, bandwidth only if set."""
        out = {}
        for key, (name, _) in _CONFIG_KEYS.items():
            value = getattr(self, name)
            if isinstance(value, str):
                out[key] = value
            elif value is not None:  # a number or a sequence of numbers
                out[key] = ",".join(map(_fmt, value if np.ndim(value) else [value]))
            if key == "model":
                out.update((k, _fmt(v)) for k, v in params_to_mapping(self.params).items())
        return out

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """The config a flat mapping describes; a key the mapping leaves out
        takes its field's default, and is missing when the field has none."""
        model = _value(mapping, "model", str.strip)
        params = params_from_mapping(model, mapping)
        unknown = set(mapping) - set(_CONFIG_KEYS) - set(_PARAM_KEYS[model])
        if unknown:
            raise ConfigError(f"unknown config keys for model {model!r}: {sorted(unknown)}")
        optional = {f.name for f in fields(cls) if f.default is not MISSING}
        return cls(params=params, **{
            name: _value(mapping, key, parse)
            for key, (name, parse) in _CONFIG_KEYS.items()
            if key in mapping or name not in optional
        })


# the flat config's keys besides the model's params keys, in config.echo
# order: key -> (ExperimentConfig field, parser of the key's text)
_CONFIG_KEYS = {
    "model": ("model", str.strip),
    "n_schedule": ("n_schedule", lambda text: tuple(map(int, text.split(",")))),
    "delta_exp": ("delta_exp", float),
    "gamma": ("gamma", float),
    "bandwidth": ("bandwidth_override", float),
    "times": ("times", lambda text: tuple(map(float, text.split(",")))),
    "grid": ("grid_spec", str.strip),
    "replications": ("replications", int),
    "seed": ("master_seed", int),
    "kernel": ("kernel_name", str.strip),
    "subgrid_ratio": ("subgrid_ratio", int),
}
# each model's params keys, in config.echo order: key -> attribute of its params
_PARAM_KEYS = {
    "ou": {"a": "a", "mu": "mu", "b": "b"},
    "regime": {"a": "ou0.a", "b": "ou0.b", "mu0": "ou0.mu", "mu1": "ou1.mu",
               "a0": "a0", "a1": "a1"},
}


def _value(mapping: dict, key: str, convert=float):
    """mapping[key] passed through convert; a ConfigError names the key when
    it is missing or its value does not convert."""
    if key not in mapping:
        raise ConfigError(f"missing key {key!r}")
    try:
        return convert(mapping[key])
    except (TypeError, ValueError):
        raise ConfigError(
            f"key {key!r} has a malformed value {mapping[key]!r}"
        ) from None


def params_from_mapping(model: str, mapping: dict):
    """OUParams or RegimeSwitchParams from a flat key = value mapping, such as
    a parsed config or params file; other keys are ignored."""
    if model not in _PARAM_KEYS:
        _check_model(model, None)  # raises: the model is unknown
    v = {key: _value(mapping, key) for key in _PARAM_KEYS[model]}
    if model == "ou":
        return OUParams(**v)
    ou0, ou1 = (OUParams(a=v["a"], mu=v[mu], b=v["b"]) for mu in ("mu0", "mu1"))
    return RegimeSwitchParams(a0=v["a0"], a1=v["a1"], ou0=ou0, ou1=ou1)


def params_to_mapping(params) -> dict:
    """The flat key -> value view of OU or regime-switching parameters that
    params_from_mapping reads back, keys in config.echo order."""
    keys = _PARAM_KEYS["ou" if isinstance(params, OUParams) else "regime"]
    return {key: operator.attrgetter(attr)(params) for key, attr in keys.items()}


def parse_config_text(text: str) -> dict:
    """Parse flat `key = value` lines; blank lines and # comments ignored,
    a repeated key refused."""
    out, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        out[key] = value.strip()
    return out


def truth_for_model(model: str, params, times) -> TruthDensity:
    """The estimand on the log sigma^2 scale for a named model.

    OU: the simulated path is log sigma^2 itself.  Regime: sigma = exp(xi),
    so the xi-scale law is pushed through log sigma^2 = 2 xi.
    """
    _check_model(model, params)
    times = _check_times(times)
    p = len(times)
    if p not in (1, 2):
        name = "OU" if model == "ou" else model
        raise ConfigError(f"closed-form {name} truth is shipped for p <= 2 only, got p = {p}")
    if model == "ou":
        return ou_logsq_marginal(params) if p == 1 else ou_bivariate(params, *times)
    xi_law = regime_marginal(params) if p == 1 else regime_bivariate(params, *times)
    return scaled_truth(xi_law, 2.0)


def truth_for(cfg: ExperimentConfig) -> TruthDensity:
    """The estimand on the log sigma^2 scale for the configured model."""
    return truth_for_model(cfg.model, cfg.params, cfg.times)


def _box_nodes(truth: TruthDensity) -> int:
    # Gauss-Legendre nodes per axis for tensor quadrature against the truth
    return 400 if truth.dimension > 1 else 2000


def _truth_moments(truth: TruthDensity):
    """Per-axis mean and sd of a truth density by tensor quadrature."""
    xs, ws = gauss_legendre_box(truth.truncation_box, _box_nodes(truth))
    vals = truth.grid_values(xs)
    total = tensor_quadrature(vals, ws)
    means, sds = [], []
    for k, x in enumerate(xs):
        coord = x.reshape((-1,) + (1,) * (len(xs) - 1 - k))  # broadcasts along axis k
        m1 = tensor_quadrature(vals * coord, ws) / total
        m2 = tensor_quadrature(vals * coord ** 2, ws) / total
        means.append(m1)
        sds.append(np.sqrt(max(m2 - m1 * m1, 0.0)))
    return means, sds


def parse_axis_spec(spec: str) -> np.ndarray:
    """An evaluation axis from a lo:hi:count string."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid spec {spec!r} is not of the form lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(
            f"grid spec {spec!r} needs numbers lo:hi and an integer count"
        ) from None
    if count < 2 or not lo < hi or not np.isfinite(lo) or not np.isfinite(hi):
        raise ConfigError(f"bad grid spec {spec!r}: need finite lo < hi and count >= 2, "
                          f"got lo = {lo}, hi = {hi}, count = {count}")
    return np.linspace(lo, hi, count)


def parse_grid_spec(spec: str, p: int) -> list:
    """p evaluation axes from comma-separated lo:hi:count specs, one per
    axis; a single spec serves every axis."""
    specs = spec.split(",")
    if len(specs) == 1:
        specs = specs * p
    if len(specs) != p:
        raise ConfigError(f"got {len(specs)} grid specs for p = {p} target times")
    return [parse_axis_spec(s) for s in specs]


def resolve_grid(cfg: ExperimentConfig, truth: TruthDensity):
    """Grid axes from the config's grid spec.

    "auto" spans truth-mean +/- 5 truth-sd per axis; explicit specs are
    lo:hi:count, comma-separated per axis (a single spec serves all axes).
    Returns (axes, truncated_mass): the truth mass left outside the grid box.
    """
    if cfg.grid_spec == "auto":
        means, sds = _truth_moments(truth)
        count = _AUTO_POINTS[cfg.p]
        axes = [
            np.linspace(m - 5.0 * s, m + 5.0 * s, count)
            for m, s in zip(means, sds)
        ]
    else:
        axes = parse_grid_spec(cfg.grid_spec, cfg.p)

    # mass outside the grid box, by quadrature against the truth
    box = [(float(ax[0]), float(ax[-1])) for ax in axes]
    xs, ws = gauss_legendre_box(box, _box_nodes(truth))
    inside = tensor_quadrature(truth.grid_values(xs), ws)
    return axes, max(0.0, 1.0 - inside)


def mix_seed(master_seed: int, n_index: int, rep_index: int) -> int:
    """Replication seed: master seed mixed with (n-index, rep-index) through
    a SeedSequence spawn key.  Fixed and documented so any single record can
    be reproduced without running the others."""
    _require_integer("master_seed", master_seed, 0, ConfigError)
    _require_integer("n_index", n_index, 0, ConfigError)
    _require_integer("rep_index", rep_index, 0, ConfigError)
    ss = np.random.SeedSequence(master_seed, spawn_key=(n_index, rep_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ExperimentRecord:
    n: int
    rep: int
    seed: int
    mise: float
    bias_center: float
    clamps: int
    seconds: float


@dataclass(frozen=True)
class AggregateRow:
    n: int
    mise_mean: float
    mise_se: float


@dataclass(frozen=True, eq=False)
class MonteCarloReport:
    """All records, aggregates, and grids from one experiment."""

    config: ExperimentConfig
    records: Tuple[ExperimentRecord, ...]
    aggregate: Tuple[AggregateRow, ...]
    grids: dict
    bandwidths: dict
    warnings: Tuple[str, ...]
    truncated_mass: float
    mise_slope: Optional[float] = field(default=None)


def compute_mise(est: DensityGrid, truth: TruthDensity) -> float:
    """Trapezoid-weighted integrated squared error of the estimate against
    the truth, over the estimate's own grid."""
    if len(est.axes) != truth.dimension:
        raise InputError(
            f"estimate is {len(est.axes)}-dimensional but truth is "
            f"{truth.dimension}-dimensional"
        )
    diff2 = (est.values - truth.grid_values(est.axes)) ** 2
    return DensityGrid(est.axes, diff2).mass()


@contextlib.contextmanager
def _stage(stage: str, n: int, rep: int):
    """Re-raise a failure in the block naming the stage, n and rep, as its own
    type (or RuntimeError) with its attributes and itself as the cause."""
    try:
        yield
    except Exception as exc:
        msg = f"stage {stage!r} failed at n={n}, rep={rep}: {exc}"
        try:
            new = type(exc)(msg)
        except Exception:
            new = RuntimeError(msg)
        else:
            # keep the original's attributes, such as NumericalFailure.residual
            new.__dict__.update(vars(exc))
        raise new from exc


def table_for_axes(kernel_name: str, h: float, axes):
    """Deconvolution table wide enough for every kernel argument (x - Y)/h.

    log-squared observations live in [2 log(1e-12), ~30] by the clamp rule,
    so the argument range is known up front; estimate_density refuses data
    beyond it with an InputError.
    """
    spec = builtin_kernel(kernel_name)
    ax_lo = min(float(a[0]) for a in axes)
    ax_hi = max(float(a[-1]) for a in axes)
    lo = (ax_lo - 30.0) / h - 2.0
    hi = (ax_hi - _LOG_SQ_FLOOR) / h + 2.0
    n_points = max(4097, int(np.ceil((hi - lo) / _TABLE_STEP)) + 1)
    return build_table(spec, h, lo, hi, n_points)


def _replicate(cfg: ExperimentConfig, n_index: int, rep: int, delta: float, table, axes):
    """One replication's simulate -> observe -> estimate step, returning (seed,
    clamp count, estimate); a failure is re-raised naming its stage, n and rep."""
    n = cfg.n_schedule[n_index]
    seed = mix_seed(cfg.master_seed, n_index, rep)
    with _stage("simulate", n, rep):
        increments = simulate_bundle(
            cfg.model, cfg.params, n, delta, seed, subgrid_ratio=cfg.subgrid_ratio
        ).increments
    with _stage("estimate", n, rep):
        obs = ObservationSet.from_increments(increments, delta, cfg.times)
        del increments  # freed before the estimate, which needs only obs
        est = estimate_density(obs, table, axes)
    return seed, obs.n_clamped, est


def run_experiment(cfg: ExperimentConfig) -> MonteCarloReport:
    """Run the full simulate -> estimate -> compare loop over the schedule.

    Sequential and deterministic: replications are keyed by mix_seed, the
    loop order is (n ascending, rep ascending), and aggregation reduces in
    that order.
    """
    truth = truth_for(cfg)
    axes, truncated_mass = resolve_grid(cfg, truth)

    center_idx = tuple(a.size // 2 for a in axes)
    center_point = tuple(float(a[i]) for a, i in zip(axes, center_idx))
    truth_center = truth.evaluator(np.array(center_point))

    records = []
    grids = {}
    bandwidths = {}
    notes = []
    for n_index, n in enumerate(cfg.n_schedule):
        delta, h, warning = bandwidth_schedule(
            n, cfg.p, cfg.gamma, cfg.delta_exp, cfg.bandwidth_override)
        if warning is not None:
            notes.append(f"n={n}: {warning}")
        bandwidths[n] = h
        with _stage("build_table", n, -1):
            table = table_for_axes(cfg.kernel_name, h, axes)
        for rep in range(cfg.replications):
            t0 = time.perf_counter()
            seed, clamps, est = _replicate(cfg, n_index, rep, delta, table, axes)
            with _stage("compare", n, rep):
                mise = compute_mise(est, truth)
            seconds = time.perf_counter() - t0
            bias_center = float(est.values[center_idx]) - truth_center
            records.append(
                ExperimentRecord(
                    n=int(n), rep=rep, seed=seed, mise=mise,
                    bias_center=bias_center, clamps=clamps,
                    seconds=seconds,
                )
            )
            grids[(int(n), rep)] = est

    aggregate = []
    for n in cfg.n_schedule:
        vals = np.array([r.mise for r in records if r.n == n])
        se = float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        aggregate.append(AggregateRow(n=int(n), mise_mean=float(np.mean(vals)), mise_se=se))

    slope = None
    if len(cfg.n_schedule) >= 2 and all(a.mise_mean > 0 for a in aggregate):
        slope = float(
            np.polyfit(
                np.log([a.n for a in aggregate]),
                np.log([a.mise_mean for a in aggregate]),
                1,
            )[0]
        )

    return MonteCarloReport(
        config=cfg,
        records=tuple(records),
        aggregate=tuple(aggregate),
        grids=grids,
        bandwidths=bandwidths,
        warnings=tuple(notes),
        truncated_mass=truncated_mass,
        mise_slope=slope,
    )


@dataclass(frozen=True)
class BiasReport:
    """Replicated bias at the grid center against the kernel prediction."""

    n: int
    h: float
    point: tuple
    replications: int
    empirical_bias: float
    empirical_se: float
    predicted_bias: float
    ratio: float


def _hessian_trace(truth: TruthDensity, x: np.ndarray, step: float = 1e-4) -> float:
    total = 0.0
    fx = truth.evaluator(x)
    for ax in range(truth.dimension):
        e = np.zeros(truth.dimension)
        e[ax] = step
        total += (truth.evaluator(x + e) - 2.0 * fx + truth.evaluator(x - e)) / step**2
    return total


def bias_check(cfg: ExperimentConfig, truth: TruthDensity) -> BiasReport:
    """Estimate E f_hat at the grid center point over R replications and
    compare the empirical bias to the second-order kernel prediction
    (h^2 mu2 / 2) * trace of the truth Hessian."""
    if cfg.replications < 2:
        raise ConfigError(
            f"bias_check needs at least 2 replications for a standard error, "
            f"got {cfg.replications}"
        )
    axes, _ = resolve_grid(cfg, truth)
    point = np.array([float(a[a.size // 2]) for a in axes])
    n_index = len(cfg.n_schedule) - 1
    n = cfg.n_schedule[n_index]
    delta, h, _ = bandwidth_schedule(n, cfg.p, cfg.gamma, cfg.delta_exp, cfg.bandwidth_override)
    point_axes = [np.array([v]) for v in point]
    with _stage("build_table", n, -1):
        table = table_for_axes(cfg.kernel_name, h, point_axes)

    values = np.empty(cfg.replications)
    for rep in range(cfg.replications):
        est = _replicate(cfg, n_index, rep, delta, table, point_axes)[2]
        values[rep] = float(est.values.ravel()[0])

    f_true = truth.evaluator(point)
    emp = float(np.mean(values)) - f_true
    se = float(np.std(values, ddof=1) / np.sqrt(cfg.replications))
    mu2 = kernel_moments(builtin_kernel(cfg.kernel_name))
    predicted = 0.5 * h * h * mu2 * _hessian_trace(truth, point)
    ratio = emp / predicted if predicted != 0.0 else np.inf
    return BiasReport(
        n=int(n),
        h=h,
        point=tuple(float(v) for v in point),
        replications=cfg.replications,
        empirical_bias=emp,
        empirical_se=se,
        predicted_bias=predicted,
        ratio=ratio,
    )


def _fmt(x) -> str:
    """A number as config and CSV text: an integer as one, anything else as
    the shortest repr of its float, so numpy scalars read back as numbers."""
    return str(int(x)) if isinstance(x, numbers.Integral) else repr(float(x))


def csv_text(header: str, rows) -> str:
    """CSV text: the header line(s), then each row of numbers through _fmt."""
    lines = [header] + [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8 with \\n line ends, or to stdout when path
    is None; an OSError names the path."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def grid_csv(axes, values) -> str:
    """A density on a tensor grid as CSV: one row per grid point, the
    coordinates (header x, or x1..xp for p > 1) then f_hat, in C order."""
    p = len(axes)
    names = ["x"] if p == 1 else [f"x{k + 1}" for k in range(p)]
    # each axis value is formatted once, not once per row it appears in
    cells = [list(map(_fmt, np.asarray(a).ravel())) for a in axes]
    f_hat = map(_fmt, np.asarray(values).ravel())
    rows = (",".join((*x, f)) for x, f in zip(itertools.product(*cells), f_hat))
    return "\n".join([",".join(names + ["f_hat"]), *rows]) + "\n"


def emit_report(report: MonteCarloReport, out_dir: str) -> list:
    """Write records.csv, aggregate.csv, grids/*.csv, config.echo and the
    timings.csv sidecar, returning their paths.  Everything except
    timings.csv is deterministic."""
    cfg = report.config
    written = []

    def _write(name, text):
        path = os.path.join(out_dir, name)
        write_text(path, text)
        written.append(path)

    try:
        os.makedirs(os.path.join(out_dir, "grids"), exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create report directory {out_dir}: {exc}") from exc

    _write("records.csv", csv_text("n,rep,mise,bias_center,clamps", (
        (r.n, r.rep, r.mise, r.bias_center, r.clamps) for r in report.records)))
    _write("aggregate.csv", csv_text("n,mise_mean,mise_se", (
        (a.n, a.mise_mean, a.mise_se) for a in report.aggregate)))
    timings = [f"{r.n},{r.rep},{r.seconds:.6f}" for r in report.records]
    _write("timings.csv", "\n".join(["n,rep,seconds"] + timings) + "\n")

    for (n, rep), grid in sorted(report.grids.items()):
        _write(os.path.join("grids", f"n{n}_rep{rep}.csv"), grid_csv(grid.axes, grid.values))

    echo = [f"{k} = {v}" for k, v in cfg.to_mapping().items()]
    echo.append(f"# truncated_truth_mass = {_fmt(report.truncated_mass)}")
    for n in cfg.n_schedule:
        echo.append(f"# bandwidth_n{n} = {_fmt(report.bandwidths[n])}")
    if report.mise_slope is not None:
        echo.append(f"# mise_loglog_slope = {_fmt(report.mise_slope)}")
    for note in report.warnings:
        echo.append(f"# warning: {note}")
    _write("config.echo", "\n".join(echo) + "\n")
    return written
