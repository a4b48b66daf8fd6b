"""Tests for the Monte Carlo harness: configuration parsing, seed mixing,
bookkeeping, error context, report files, and byte-level determinism."""

import functools
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voldeconv import (
    ExperimentConfig,
    ObservationSet,
    OUParams,
    RegimeSwitchParams,
    bias_check,
    compute_mise,
    mix_seed,
    ou_logsq_marginal,
    run_experiment,
    truth_for,
    truth_for_model,
)
from voldeconv import analytic_truth, experiment, vol_sim
from voldeconv.errors import ConfigError, InputError, NotFoundError, NumericalFailure, RangeError
from voldeconv.estimator import DensityGrid, _floor_index, _vector_count
from voldeconv.noise_model import T_MAX
from voldeconv.experiment import (
    _stage,
    csv_text,
    emit_report,
    grid_csv,
    params_from_mapping,
    parse_axis_spec,
    parse_config_text,
    parse_grid_spec,
    resolve_grid,
    write_text,
)

OU = OUParams(a=2.0, mu=0.0, b=2.0)
REGIME = RegimeSwitchParams(
    a0=1.0, a1=1.0, ou0=OUParams(4.0, -2.0, 1.0), ou1=OUParams(4.0, 2.0, 1.0)
)


def _small_config(**overrides):
    base = dict(
        model="ou",
        params=OU,
        n_schedule=(500, 1000),
        delta_exp=0.5,
        gamma=9.0,
        times=(1.0,),
        grid_spec="auto",
        replications=2,
        master_seed=314159,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


CONFIG_TEXT = """\
# minimal experiment description
model = ou
a = 2.0
mu = 0.0
b = 2.0
n_schedule = 500,1000
delta_exp = 0.5
gamma = 9.0
times = 1.0
grid = auto
replications = 2
seed = 314159
"""


def test_parse_config_text():
    mapping = parse_config_text(CONFIG_TEXT)
    assert mapping["model"] == "ou"
    assert mapping["n_schedule"] == "500,1000"
    cfg = ExperimentConfig.from_mapping(mapping)
    assert cfg == _small_config()


def test_parse_config_text_bad_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("model = ou\nthis line has no equals sign\n")


def test_parse_config_text_refuses_a_repeated_key():
    # keeping the last of two seeds would hide the first
    with pytest.raises(ConfigError) as info:
        parse_config_text("seed = 1\n# a comment\nmodel = ou\n seed = 2\n")
    assert str(info.value) == "line 4: key 'seed' repeats line 1"


def test_from_mapping_unknown_key():
    mapping = parse_config_text(CONFIG_TEXT + "flux_capacitor = 88\n")
    with pytest.raises(ConfigError, match="flux_capacitor"):
        ExperimentConfig.from_mapping(mapping)


def test_mapping_malformed_values():
    for key, line in (("a", "a = abc"), ("gamma", "gamma = fast"),
                      ("n_schedule", "n_schedule = 500,1e3x")):
        text = CONFIG_TEXT.replace(
            next(ln for ln in CONFIG_TEXT.splitlines() if ln.startswith(key + " ")),
            line,
        )
        with pytest.raises(ConfigError, match=f"'{key}'"):
            ExperimentConfig.from_mapping(parse_config_text(text))
    regime = {"a": "4", "b": "1", "mu0": "-2", "mu1": "two", "a0": "1", "a1": "1"}
    with pytest.raises(ConfigError, match="'mu1'.*'two'"):
        params_from_mapping("regime", regime)
    # keys are read in config.echo order, mu1 before a0: a well-formed mu1
    # lets the missing a0 be the first fault
    regime["mu1"] = "2"
    with pytest.raises(ConfigError, match="missing key 'a0'"):
        params_from_mapping("regime", {k: v for k, v in regime.items() if k != "a0"})


def test_params_from_mapping_refuses_an_unknown_model():
    with pytest.raises(ConfigError, match="unknown model 'garch'; expected 'ou' or 'regime'"):
        params_from_mapping("garch", {"a": "1"})


def test_mapping_round_trip():
    cfg = _small_config(bandwidth_override=0.8, replications=3)
    assert ExperimentConfig.from_mapping(cfg.to_mapping()) == cfg
    rcfg = ExperimentConfig(
        model="regime",
        params=REGIME,
        n_schedule=(1000,),
        delta_exp=0.75,
        gamma=17.0,
        times=(1.0, 1.05),
        grid_spec="auto",
        replications=1,
        master_seed=7,
    )
    assert ExperimentConfig.from_mapping(rcfg.to_mapping()) == rcfg


def test_numpy_scalar_config_round_trips(tmp_path):
    # numpy scalars are written as plain numbers, so the echo reads back
    cfg = _small_config(
        params=OUParams(a=np.float64(2.0), mu=np.float64(0.0), b=np.float64(2.0)),
        n_schedule=(np.int64(500),),
        gamma=np.float64(9.0),
        times=(np.float64(1.0),),
        replications=1,
    )
    mapping = cfg.to_mapping()
    assert (mapping["a"], mapping["n_schedule"], mapping["times"]) == ("2.0", "500", "1.0")
    assert ExperimentConfig.from_mapping(mapping) == cfg
    emit_report(run_experiment(cfg), str(tmp_path))
    echo = (tmp_path / "config.echo").read_text(encoding="utf-8")
    assert ExperimentConfig.from_mapping(parse_config_text(echo)) == cfg


def test_from_mapping_refuses_the_other_models_keys():
    with pytest.raises(ConfigError, match=re.escape("for model 'ou': ['a1', 'mu0']")):
        ExperimentConfig.from_mapping(parse_config_text(CONFIG_TEXT + "mu0 = 7\na1 = 3\n"))
    regime = CONFIG_TEXT.replace("model = ou", "model = regime")
    regime += "mu0 = -2.0\nmu1 = 2.0\na0 = 1.0\na1 = 1.0\n"
    with pytest.raises(ConfigError, match=re.escape("for model 'regime': ['mu']")):
        ExperimentConfig.from_mapping(parse_config_text(regime))
    ExperimentConfig.from_mapping(parse_config_text(regime.replace("mu = 0.0\n", "")))


_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
_REAL = st.floats(min_value=-1e3, max_value=1e3)


@st.composite
def _config_fields(draw):
    """ExperimentConfig keyword arguments; regimes mostly share a and b."""
    if draw(st.booleans()):
        model, p = "ou", draw(st.integers(1, 3))
        params = OUParams(a=draw(_POSITIVE), mu=draw(_REAL), b=draw(_POSITIVE))
    else:
        model, p = "regime", draw(st.integers(1, 2))
        a, b = draw(_POSITIVE), draw(_POSITIVE)
        params = RegimeSwitchParams(
            a0=draw(_POSITIVE), a1=draw(_POSITIVE),
            ou0=OUParams(a=a, mu=draw(_REAL), b=b),
            ou1=OUParams(
                a=draw(st.just(a) | _POSITIVE), mu=draw(_REAL), b=draw(st.just(b) | _POSITIVE)
            ),
        )
    sched = draw(st.lists(st.integers(2, 10**7), min_size=1, max_size=4, unique=True))
    return dict(
        model=model,
        params=params,
        n_schedule=tuple(sorted(sched)),
        delta_exp=draw(st.floats(min_value=1e-3, max_value=0.999)),
        gamma=draw(_POSITIVE),
        times=tuple(draw(st.lists(_REAL, min_size=p, max_size=p))),
        grid_spec=draw(st.sampled_from(["auto", "-5:5:41", "-8:8:9,-7:7:8"])),
        replications=draw(st.integers(1, 1000)),
        master_seed=draw(st.integers(0, 2**63)),
        bandwidth_override=draw(st.none() | _POSITIVE),
        subgrid_ratio=draw(st.integers(1, 200)),
    )


@settings(max_examples=200, deadline=None)
@given(_config_fields())
def test_mapping_round_trip_property(fields):
    # every config that is accepted reads back equal from its flat mapping
    try:
        cfg = ExperimentConfig(**fields)
    except (ConfigError, RangeError):
        t, params = fields["times"], fields["params"]
        bad_times = min(t) <= 0.0 or any(b <= a for a, b in zip(t, t[1:]))
        bad_regimes = fields["model"] == "regime" and (
            (params.ou0.a, params.ou0.b) != (params.ou1.a, params.ou1.b)
        )
        bad_ratio = fields["subgrid_ratio"] < vol_sim.MIN_SUBGRID_RATIO
        bad_grid = fields["grid_spec"].count(",") + 1 not in (1, len(t))
        bandwidths = [fields["bandwidth_override"] or fields["gamma"] * np.pi / np.log(n)
                      for n in fields["n_schedule"]]
        bad_bandwidth = any(1.0 / h > T_MAX for h in bandwidths)
        bad_p = len(t) > 2  # no closed-form truth
        bad_span = any(  # an n whose time span leaves no observation vector
            _vector_count(n, [_floor_index(x, float(n) ** -fields["delta_exp"]) for x in t]) < 1
            for n in fields["n_schedule"])
        assert (bad_times or bad_regimes or bad_ratio or bad_grid or bad_bandwidth or bad_p
                or bad_span)
        return
    assert ExperimentConfig.from_mapping(cfg.to_mapping()) == cfg


def test_regime_params_must_share_a_and_b():
    # the flat format has one a and one b; other regimes would not round-trip
    with pytest.raises(ConfigError, match=r"share a and b, got ou0 = OUParams\(a=4.0, mu=-2.0, b=1.0\), ou1 = OUParams\(a=3.0,"):
        _small_config(
            model="regime", times=(1.0, 1.05),
            params=RegimeSwitchParams(1.0, 1.0, OUParams(4.0, -2.0, 1.0), OUParams(3.0, 2.0, 1.5)),
        )
    with pytest.raises(ConfigError, match=r"ou1 = OUParams\(a=4.0, mu=2.0, b=1.5\)"):
        _small_config(
            model="regime", times=(1.0, 1.05),
            params=RegimeSwitchParams(1.0, 1.0, OUParams(4.0, -2.0, 1.0), OUParams(4.0, 2.0, 1.5)),
        )


def test_config_validation():
    with pytest.raises(ConfigError):
        _small_config(n_schedule=(1000, 500))
    with pytest.raises(ConfigError):
        _small_config(replications=0)
    with pytest.raises(ConfigError):
        _small_config(model="garch")
    with pytest.raises(ConfigError, match="'ou' needs OUParams.*RegimeSwitchParams"):
        _small_config(params=REGIME)
    with pytest.raises(ConfigError, match="'regime' needs RegimeSwitchParams.*OUParams"):
        _small_config(model="regime", times=(1.0, 1.05))


@pytest.mark.parametrize(
    "entry, message",
    [
        (1, "n_schedule entry must be at least 2, got 1"),
        (1000.5, "n_schedule entry must be an integer, got 1000.5"),
        (np.float64(1000.0), "n_schedule entry must be an integer, got np.float64(1000.0)"),
    ],
)
def test_config_refuses_a_bad_n_schedule_entry(entry, message):
    # refused at construction, before any truth, grid or simulation is built
    with pytest.raises(ConfigError, match=re.escape(message)):
        _small_config(n_schedule=(entry,))


def test_target_times_must_be_positive_and_increasing():
    # refused at construction, before any truth, grid or simulation is built
    for times, message in [((0.0,), "positive, got [0.0]"), ((-1.0, 1.0), "positive, got [-1.0]"),
                           ((1.0, 1.0), "distinct and increasing, got [1.0, 1.0]"),
                           ((1.05, 1.0), "distinct and increasing, got [1.05, 1.0]")]:
        with pytest.raises(ConfigError, match=re.escape(f"target times must be {message}")):
            _small_config(times=times)


def test_target_times_must_be_finite():
    # refused at construction, not after replication 0 has been simulated
    for times, shown in [((np.inf,), "[inf]"), ((1.0, np.inf), "[1.0, inf]")]:
        with pytest.raises(ConfigError, match=re.escape(f"target times must be finite, got {shown}")):
            _small_config(times=times)


def test_config_refuses_times_that_leave_no_observation_vector():
    # refused at construction, not in replication 0 after the truth, grid,
    # table and one bundle were built: at n = 1000, delta = 1000^-0.5 the
    # offsets of t = 1 and t = 40 are 31 and 1264
    message = ("n = 1000 increments at delta = 0.0316228 leave no observation vector: "
               "the index offsets of times (1.0, 40.0) span 1233")
    with pytest.raises(ConfigError, match=re.escape(message)):
        _small_config(times=(1.0, 40.0), n_schedule=(1000, 100000), delta_exp=0.5)
    # the span grows like sqrt(n) here: n = 1600 leaves m = 1600 - 1560 = 40
    assert _small_config(times=(1.0, 40.0), n_schedule=(1600,), delta_exp=0.5).p == 2
    obs = ObservationSet(delta=1600 ** -0.5, log_sq=np.zeros(1600), times=(1.0, 40.0))
    assert obs.m == 40


def test_config_stores_checked_tuples():
    # a numpy array of times is taken, and lists are stored as tuples, so
    # the config hashes and equals its mapping's round trip
    cfg = _small_config(times=np.array([1.0, 1.05]))
    assert cfg.times == (1.0, 1.05) and type(cfg.times) is tuple
    cfg = _small_config(n_schedule=[500, 1000], times=[1.0])
    assert (cfg.n_schedule, cfg.times) == ((500, 1000), (1.0,))
    again = ExperimentConfig.from_mapping(cfg.to_mapping())
    assert again == cfg and hash(again) == hash(cfg)


def test_truth_for_model_scales():
    t_ou = truth_for_model("ou", OU, (1.0,))
    assert t_ou.dimension == 1
    assert float(t_ou.evaluator(np.array([0.0]))) == pytest.approx(
        1.0 / np.sqrt(2.0 * np.pi), rel=1e-12
    )
    # regime truth lives on the log sigma^2 = 2 xi scale: modes at +-4
    t_reg = truth_for_model("regime", REGIME, (1.0,))
    x = np.linspace(-8.0, 8.0, 1601)
    vals = t_reg.vector_eval(x[:, None])
    assert abs(abs(x[np.argmax(vals)]) - 4.0) < 0.05
    with pytest.raises(ConfigError):
        truth_for_model("ou", OU, (1.0, 1.05, 1.1))


def test_truth_for_model_checks_the_model():
    with pytest.raises(ConfigError, match="model 'ou' needs OUParams params, got RegimeSwitchParams"):
        truth_for_model("ou", REGIME, (1.0,))
    with pytest.raises(ConfigError, match="unknown model 'garch'; expected 'ou' or 'regime'"):
        truth_for_model("garch", OU, (1.0,))


def test_parse_axis_spec():
    np.testing.assert_allclose(parse_axis_spec("-8:8:5"), [-8.0, -4.0, 0.0, 4.0, 8.0])
    with pytest.raises(ConfigError):
        parse_axis_spec("1:2")
    with pytest.raises(ConfigError):
        parse_axis_spec("2:1:5")
    with pytest.raises(ConfigError):
        parse_axis_spec("1:2:1")
    for spec in ("a:1:5", "1:2:5.5", "-inf:1:5", "0:inf:5", "nan:1:5"):
        with pytest.raises(ConfigError, match=spec):
            parse_axis_spec(spec)
    message = "'2:1:5': need finite lo < hi and count >= 2, got lo = 2.0, hi = 1.0, count = 5"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_axis_spec("2:1:5")


def test_parse_grid_spec():
    axes = parse_grid_spec("-1:1:3", 2)
    assert len(axes) == 2 and axes[0] is not axes[1]
    np.testing.assert_array_equal(axes[1], [-1.0, 0.0, 1.0])
    axes = parse_grid_spec("-1:1:3,0:4:5", 2)
    assert [a.size for a in axes] == [3, 5]
    with pytest.raises(ConfigError, match="got 2 grid specs for p = 3"):
        parse_grid_spec("-1:1:3,0:4:5", 3)


def test_resolve_grid_auto_bounds():
    cfg = _small_config()
    truth = truth_for(cfg)
    axes, truncated = resolve_grid(cfg, truth)
    assert len(axes) == 1 and axes[0].size == 201
    # OU log-variance is N(0,1): auto grid is mean +- 5 sd
    assert axes[0][0] == pytest.approx(-5.0, abs=1e-9)
    assert axes[0][-1] == pytest.approx(5.0, abs=1e-9)
    # mass outside +-5 sd of a Gaussian
    assert truncated == pytest.approx(5.733e-7, rel=1e-3)


def test_resolve_grid_explicit():
    cfg = _small_config(grid_spec="-2:2:41")
    truth = truth_for(cfg)
    axes, truncated = resolve_grid(cfg, truth)
    assert axes[0].size == 41
    assert truncated == pytest.approx(0.0455, abs=0.001)  # 2-sided Gaussian tail


# K: most block-sized float arrays (8 * _GRID_BLOCK bytes each) that
# resolve_grid may hold beside two full quadrature grids: the truth values
# and one of their products with a coordinate.  The regime mixture makes
# about a dozen block temporaries while it fills the values; the measured
# peak of the criterion-07 config was 2.65 MB, 0.09 MB above the two grids,
# against 17.9 MB when the whole grid was evaluated in one call.
PEAK_BLOCK_ARRAYS = 16


def test_auto_grid_quadrature_memory_stays_within_two_grids():
    cfg = _small_config(model="regime", params=REGIME, times=(1.0, 1.05), n_schedule=(100_000,),
                        replications=1, delta_exp=0.75, gamma=17.0)  # the criterion-07 config
    truth = truth_for(cfg)
    resolve_grid(cfg, truth)  # the Gauss-Legendre rule's first read, untraced
    tracemalloc.start()
    try:
        resolve_grid(cfg, truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid_bytes = 8 * experiment._box_nodes(truth) ** 2
    block_bytes = 8 * analytic_truth._GRID_BLOCK
    bound = 2 * grid_bytes + PEAK_BLOCK_ARRAYS * block_bytes  # 3.6 MB
    assert peak <= bound, (peak, bound)


def _grid_csv_by_rows(axes, values):
    """grid_csv's text formatted row by row: every row's coordinates taken
    from the meshgrid and formatted anew."""
    names = ["x"] if len(axes) == 1 else [f"x{k + 1}" for k in range(len(axes))]
    mesh = np.meshgrid(*axes, indexing="ij")
    cols = [m.ravel() for m in mesh] + [np.asarray(values).ravel()]
    return csv_text(",".join(names + ["f_hat"]), zip(*cols))


_AXES = [
    np.array([-0.0, 1e-300, 0.1, 2.5]),
    np.arange(-1, 2),  # an int axis: its values are written as integers
    [np.float64(-3.25), np.float64(0.0), np.float64(1e-300), np.float64(7.0)],
]


@pytest.mark.parametrize("p", [1, 2, 3])
def test_grid_csv_matches_row_by_row_formatting(p):
    axes = _AXES[:p]
    shape = tuple(len(a) for a in axes)
    rng = np.random.default_rng(p)
    values = rng.standard_normal(shape)
    values.flat[:3] = [-0.0, 1e-300, 5e-324]
    for vals in (values, values.astype(np.float32), np.arange(values.size).reshape(shape),
                 [np.float64(v) for v in values.ravel()]):
        assert grid_csv(axes, vals) == _grid_csv_by_rows(axes, vals)
    text = grid_csv(axes, values)
    assert text.count("\n") == values.size + 1
    assert "-0.0," in text and ",1e-300" in text


def test_mix_seed_frozen_values():
    assert mix_seed(1, 0, 0) == 6651666526363356749
    assert mix_seed(1, 0, 1) == 10679137941945874026
    assert mix_seed(1, 2, 3) == 10928566898365450891
    seen = {mix_seed(99, i, r) for i in range(4) for r in range(50)}
    assert len(seen) == 200


@pytest.mark.parametrize("args, message", [
    ((True, 0, 0), "master_seed must be an integer, got True"),
    ((-1, 0, 0), "master_seed must be at least 0, got -1"),
    ((np.inf, 0, 0), "master_seed must be an integer, got inf"),
    ((1, np.nan, 0), "n_index must be an integer, got nan"),
    ((1, -1, 0), "n_index must be at least 0, got -1"),
    ((1, 0, 2.5), "rep_index must be an integer, got 2.5"),
    ((1, 0, -1), "rep_index must be at least 0, got -1"),
])
def test_mix_seed_refuses_a_bad_argument(args, message):
    with pytest.raises(ConfigError) as info:
        mix_seed(*args)
    assert str(info.value) == message


def test_compute_mise_exact_cases():
    truth = ou_logsq_marginal(OU)
    x = np.linspace(-5.0, 5.0, 401)
    exact = truth.grid_values((x,))
    assert compute_mise(DensityGrid(axes=(x,), values=exact), truth) == 0.0
    shifted = DensityGrid(axes=(x,), values=exact + 0.01)
    assert compute_mise(shifted, truth) == pytest.approx(1e-4 * 10.0, rel=1e-12)
    with pytest.raises(InputError):
        compute_mise(DensityGrid(axes=(x, x), values=np.zeros((401, 401))), truth)


def test_run_experiment_bookkeeping():
    cfg = _small_config()
    report = run_experiment(cfg)
    assert [(r.n, r.rep) for r in report.records] == [(500, 0), (500, 1), (1000, 0), (1000, 1)]
    assert [r.seed for r in report.records] == [
        mix_seed(314159, 0, 0),
        mix_seed(314159, 0, 1),
        mix_seed(314159, 1, 0),
        mix_seed(314159, 1, 1),
    ]
    assert all(r.seconds >= 0.0 for r in report.records)
    assert all(np.isfinite(r.mise) and r.mise >= 0.0 for r in report.records)
    assert sorted(report.grids) == [(500, 0), (500, 1), (1000, 0), (1000, 1)]
    assert set(report.bandwidths) == {500, 1000}
    for row in report.aggregate:
        sample = [r.mise for r in report.records if r.n == row.n]
        assert row.mise_mean == pytest.approx(np.mean(sample), abs=1e-12)
        assert row.mise_se == pytest.approx(np.std(sample, ddof=1) / np.sqrt(2), rel=1e-12)
    assert report.mise_slope is not None


def test_run_experiment_single_replication():
    report = run_experiment(_small_config(n_schedule=(500,), replications=1))
    assert len(report.records) == 1
    assert len(report.aggregate) == 1
    assert report.aggregate[0].mise_se == 0.0
    assert report.mise_slope is None


def test_run_experiment_warning_recorded():
    # gamma = 2 < 4p/delta = 8: the schedule warning is captured per n
    report = run_experiment(_small_config(gamma=2.0, n_schedule=(500,), replications=1))
    assert any("gamma" in w for w in report.warnings)


def _simulate_at_ratio_5(*args, **kwargs):
    # ExperimentConfig refuses a ratio below 10, so the bad one is put in here
    return vol_sim.simulate_bundle(*args, **{**kwargs, "subgrid_ratio": 5})


def test_run_experiment_error_context(monkeypatch):
    monkeypatch.setattr(experiment, "simulate_bundle", _simulate_at_ratio_5)
    cfg = _small_config(n_schedule=(500,), replications=1)
    with pytest.raises(ConfigError, match="stage 'simulate'.*n=500.*rep=0"):
        run_experiment(cfg)


def test_experiments_never_derive_sigma2(monkeypatch):
    # a bundle keeps no sigma^2 path, and the Monte Carlo loop never asks
    # for one: deriving it would re-simulate the whole path
    bundle = vol_sim.simulate_bundle("ou", OU, 100, 0.05, seed=1)
    assert "sigma2" not in vars(bundle)

    def refuse(self):
        raise AssertionError("sigma2 derived")

    monkeypatch.setattr(vol_sim.PathBundle, "sigma2", property(refuse))
    with pytest.raises(AssertionError, match="sigma2 derived"):
        bundle.sigma2
    cfg = _small_config(n_schedule=(500,), replications=2)
    assert len(run_experiment(cfg).records) == 2
    assert np.isfinite(bias_check(cfg, truth_for(cfg)).empirical_bias)
    joint = _small_config(model="regime", params=REGIME, times=(1.0, 1.05), n_schedule=(500,),
                          replications=1, delta_exp=0.75, gamma=17.0)
    assert len(run_experiment(joint).records) == 1


def test_bias_check_error_context(monkeypatch):
    # bias_check runs the same replication step as run_experiment
    monkeypatch.setattr(experiment, "simulate_bundle", _simulate_at_ratio_5)
    cfg = _small_config(n_schedule=(500,), replications=2)
    with pytest.raises(ConfigError, match="stage 'simulate'.*n=500.*rep=0"):
        bias_check(cfg, truth_for(cfg))


@pytest.mark.parametrize(
    "ratio, message",
    [(5, "subgrid_ratio must be at least 10, got 5"),
     (9, "subgrid_ratio must be at least 10, got 9"),
     (50.0, "subgrid_ratio must be an integer, got 50.0")],
)
def test_config_refuses_a_bad_subgrid_ratio(ratio, message):
    # refused at construction, before any truth, grid or table is built
    with pytest.raises(ConfigError) as info:
        _small_config(subgrid_ratio=ratio)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "seed, message",
    [(-1, "master_seed must be at least 0, got -1"),
     (1.5, "master_seed must be an integer, got 1.5"),
     (True, "master_seed must be an integer, got True")],
)
def test_config_refuses_a_bad_master_seed(seed, message):
    # refused at construction, not by mix_seed after the truth and grid are built
    with pytest.raises(ConfigError) as info:
        _small_config(master_seed=seed)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "spec, message",
    [("garbage", "grid spec 'garbage' is not of the form lo:hi:count"),
     ("0:1:3,0:1:3", "got 2 grid specs for p = 1 target times")],
)
def test_config_refuses_a_bad_grid_spec(spec, message):
    # refused at construction and by from_mapping, not after the truth is built
    with pytest.raises(ConfigError, match=re.escape(message)):
        _small_config(grid_spec=spec)
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.from_mapping(
            parse_config_text(CONFIG_TEXT.replace("grid = auto", f"grid = {spec}"))
        )


@pytest.mark.parametrize(
    "overrides, h",
    [({"gamma": 1e-4}, 1e-4 * np.pi / np.log(500)), ({"bandwidth_override": 0.001}, 0.001)],
)
def test_config_refuses_a_bandwidth_below_the_noise_window(overrides, h):
    # refused at construction, not by build_table after the truth and grid
    message = f"bandwidth {h} puts quadrature nodes at |t| = {1.0 / h:.1f}"
    with pytest.raises(RangeError, match=re.escape(message)):
        _small_config(**overrides)


def test_config_keeps_the_schedule_warning_captured():
    # gamma = 2 < 4p/delta = 8: construction checks each h without warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _small_config(gamma=2.0)


def test_bias_check_table_error_context(monkeypatch):
    def fail(*args, **kwargs):
        raise NumericalFailure("table broke", residual=0.25)

    monkeypatch.setattr(experiment, "build_table", fail)
    cfg = _small_config(n_schedule=(500,), replications=2)
    with pytest.raises(NumericalFailure, match="stage 'build_table' failed at n=500, rep=-1: table broke") as info:
        bias_check(cfg, truth_for(cfg))
    assert info.value.residual == 0.25


def test_stage_falls_back_to_runtime_error():
    class TwoArgError(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a} and {b}")

    with pytest.raises(RuntimeError, match="stage 'compare' failed at n=7, rep=3: x and y") as info:
        with _stage("compare", 7, 3):
            raise TwoArgError("x", "y")
    assert isinstance(info.value.__cause__, TwoArgError)


def test_emit_report_names_a_directory_it_cannot_create(tmp_path):
    report = run_experiment(_small_config(n_schedule=(500,), replications=1))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "report"  # its parent is a regular file
    with pytest.raises(OSError, match=re.escape(f"cannot create report directory {out}")):
        emit_report(report, str(out))


def test_write_text_names_the_path(tmp_path, capsys):
    write_text(None, "a,b\n")
    assert capsys.readouterr().out == "a,b\n"
    path = tmp_path / "missing" / "out.csv"
    with pytest.raises(OSError, match=re.escape(f"cannot write {path}")):
        write_text(str(path), "a,b\n")


def test_config_refuses_an_unknown_kernel():
    # refused at construction, not by build_table after the truth and grid
    with pytest.raises(NotFoundError, match="unknown kernel 'tricube'; available: poly3"):
        _small_config(kernel_name="tricube")


@pytest.mark.parametrize("field, bad, message", [
    ("n_schedule", 500, "n_schedule must be a sequence, got 500"),
    ("delta_exp", "0.5", "delta_exp must be in (0, 1), got '0.5'"),
    ("times", ("a",), "times must be a sequence of numbers, got ('a',)"),
    ("grid_spec", 5, "grid_spec must be a string, got 5"),
])
def test_config_names_a_malformed_field(field, bad, message):
    # each raised a TypeError, numpy's ValueError or an AttributeError
    with pytest.raises(ConfigError, match=re.escape(message)):
        _small_config(**{field: bad})


def test_config_and_truth_errors_name_the_value():
    with pytest.raises(ConfigError, match=r"times must be a non-empty 1-D sequence, got \[\]"):
        _small_config(times=())
    for model, params, name in (("ou", OU, "OU"), ("regime", REGIME, "regime")):
        with pytest.raises(ConfigError, match=f"closed-form {name} truth .* p <= 2 only, got p = 3"):
            truth_for_model(model, params, (1.0, 1.5, 2.0))
    # refused at construction, not by run_experiment after the simulation
    message = "closed-form OU truth is shipped for p <= 2 only, got p = 3"
    with pytest.raises(ConfigError) as info:
        _small_config(times=(1.0, 1.5, 2.0))
    assert str(info.value) == message
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_mapping(parse_config_text(
            CONFIG_TEXT.replace("times = 1.0", "times = 1.0,1.5,2.0")))
    assert str(info.value) == message
    for times, message in [(1.0, "times must be a sequence of numbers, got 1.0"),
                           ((np.nan,), r"target times must be positive, got \[nan\]"),
                           ((1.5, 1.0), r"distinct and increasing, got \[1.5, 1.0\]")]:
        with pytest.raises(ConfigError, match=message):
            truth_for_model("ou", OU, times)


def test_drift_failure_mid_stream_surfaces_as_simulate_stage(monkeypatch):
    # the drift is read chunk by chunk while worker threads draw ahead; its
    # failure on the third chunk must name the stage and leave no thread
    def drift(t):
        if len(seen) == 2:
            raise ArithmeticError("drift broke")
        seen.append(t[0])
        return 0.0

    seen = []
    monkeypatch.setattr(vol_sim, "_CHUNK", 64)
    monkeypatch.setattr(
        experiment, "simulate_bundle", functools.partial(vol_sim.simulate_bundle, drift=drift)
    )
    cfg = _small_config(n_schedule=(500,), replications=2)
    threads = threading.active_count()
    with pytest.raises(ArithmeticError, match="stage 'simulate' failed at n=500, rep=0: drift broke"):
        bias_check(cfg, truth_for(cfg))
    assert len(seen) == 2
    assert threading.active_count() == threads


def test_error_context_keeps_residual(monkeypatch):
    def fail(*args, **kwargs):
        raise NumericalFailure("quadrature residual too large", residual=0.5)

    monkeypatch.setattr(experiment, "estimate_density", fail)
    with pytest.raises(NumericalFailure, match="stage 'estimate'.*n=500") as info:
        run_experiment(_small_config(n_schedule=(500,), replications=1))
    assert info.value.residual == 0.5
    assert info.value.__cause__.residual == 0.5


def test_degenerate_volatility_peak_location():
    # b tiny: log sigma^2 concentrates at mu, the estimate peaks within h
    cfg = _small_config(
        params=OUParams(a=2.0, mu=0.0, b=1e-8),
        n_schedule=(2000,),
        replications=1,
        grid_spec="-6:6:241",
        bandwidth_override=1.0,
    )
    report = run_experiment(cfg)
    grid = report.grids[(2000, 0)]
    peak = grid.axes[0][np.argmax(grid.values)]
    assert abs(peak - 0.0) <= 1.0


def test_bias_check_report():
    cfg = _small_config(
        params=OUParams(a=2.0, mu=0.0, b=4.0),
        n_schedule=(20_000,),
        replications=50,
        delta_exp=0.4,
        gamma=11.0,
        bandwidth_override=0.5,
    )
    truth = truth_for(cfg)
    rep = bias_check(cfg, truth)
    assert rep.n == 20_000 and rep.h == 0.5 and rep.replications == 50
    assert rep.point == pytest.approx((0.0,), abs=1e-9)  # grid center = mode
    # N(0,4): predicted = (h^2 mu2 / 2) f''(0) = 0.75 * (-f(0)/4)
    f0 = 1.0 / np.sqrt(2.0 * np.pi * 4.0)
    assert rep.predicted_bias == pytest.approx(0.75 * (-f0 / 4.0), rel=1e-4)
    assert rep.empirical_se > 0.0
    assert rep.ratio == pytest.approx(rep.empirical_bias / rep.predicted_bias, rel=1e-12)


def test_bias_check_needs_two_replications():
    cfg = _small_config(n_schedule=(500,), replications=1)
    with pytest.raises(ConfigError, match="got 1"):
        bias_check(cfg, truth_for(cfg))


def test_emit_report_files_and_determinism(tmp_path):
    out1 = tmp_path / "run1"
    cfg = _small_config(grid_spec="-5:5:101")
    report = run_experiment(cfg)
    emit_report(report, str(out1))
    names = sorted(os.listdir(out1))
    assert names == ["aggregate.csv", "config.echo", "grids", "records.csv", "timings.csv"]
    records = (out1 / "records.csv").read_text()
    assert records.splitlines()[0] == "n,rep,mise,bias_center,clamps"
    assert (out1 / "aggregate.csv").read_text().splitlines()[0] == "n,mise_mean,mise_se"
    assert (out1 / "timings.csv").read_text().splitlines()[0] == "n,rep,seconds"
    grid_files = sorted(os.listdir(out1 / "grids"))
    assert grid_files == [
        "n1000_rep0.csv",
        "n1000_rep1.csv",
        "n500_rep0.csv",
        "n500_rep1.csv",
    ]
    assert (out1 / "grids" / "n500_rep0.csv").read_text().splitlines()[0] == "x,f_hat"

    # re-run from the echoed config: every deterministic file is identical
    echoed = parse_config_text((out1 / "config.echo").read_text())
    cfg2 = ExperimentConfig.from_mapping(echoed)
    assert cfg2 == cfg
    out2 = tmp_path / "run2"
    emit_report(run_experiment(cfg2), str(out2))
    for name in ["records.csv", "aggregate.csv"]:
        assert (out2 / name).read_bytes() == (out1 / name).read_bytes()
    for name in grid_files:
        assert (out2 / "grids" / name).read_bytes() == (out1 / "grids" / name).read_bytes()
    echo1 = (out1 / "config.echo").read_text()
    echo2 = (out2 / "config.echo").read_text()
    assert echo1 == echo2


def test_emit_report_bivariate_grid_format(tmp_path):
    cfg = ExperimentConfig(
        model="regime",
        params=REGIME,
        n_schedule=(500,),
        delta_exp=0.75,
        gamma=17.0,
        times=(1.0, 1.05),
        grid_spec="-8:8:9,-8:8:9",
        replications=1,
        master_seed=5,
    )
    report = run_experiment(cfg)
    emit_report(report, str(tmp_path / "biv"))
    lines = (tmp_path / "biv" / "grids" / "n500_rep0.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,f_hat"
    assert len(lines) == 1 + 81


def test_regime_bimodality_detected_at_small_bandwidth():
    # capability demonstration: with enough smoothing resolution the joint
    # estimate shows both on-diagonal concentration points
    cfg = ExperimentConfig(
        model="regime",
        params=RegimeSwitchParams(
            a0=1.0, a1=1.0, ou0=OUParams(4.0, -2.0, 1.0), ou1=OUParams(4.0, 2.0, 1.0)
        ),
        n_schedule=(100_000,),
        delta_exp=0.75,
        gamma=17.0,
        times=(1.0, 1.05),
        grid_spec="auto",
        replications=1,
        master_seed=424242,
        bandwidth_override=1.2,
    )
    report = run_experiment(cfg)
    grid = report.grids[(100_000, 0)]
    vals = grid.values
    peaks = []
    for i in range(1, vals.shape[0] - 1):
        for j in range(1, vals.shape[1] - 1):
            patch = vals[i - 1 : i + 2, j - 1 : j + 2].copy()
            center = patch[1, 1]
            patch[1, 1] = -np.inf
            if center > patch.max() and center > 0.05 * vals.max():
                peaks.append((grid.axes[0][i], grid.axes[1][j]))
    assert len(peaks) == 2
    found = sorted(peaks)
    h = 1.2
    assert abs(found[0][0] + 4.0) < h and abs(found[0][1] + 4.0) < h
    assert abs(found[1][0] - 4.0) < h and abs(found[1][1] - 4.0) < h


@pytest.mark.parametrize(
    "replications, message",
    [
        (2.0, "replications must be an integer, got 2.0"),
        (True, "replications must be an integer, got True"),
        (0, "replications must be at least 1, got 0"),
    ],
)
def test_replications_must_be_a_positive_integer(replications, message):
    with pytest.raises(ConfigError) as info:
        _small_config(replications=replications)
    assert str(info.value) == message
