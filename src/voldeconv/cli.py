"""Command-line front end.

Subcommands: kernel-table (dump smoothing or deconvolution kernel values),
simulate (write increments for a volatility model), estimate (run the
deconvolution estimator on an increment file), truth (dump a closed-form
target density), experiment (full Monte Carlo run into a report directory).

Note: `kernel-table` uses -h for the bandwidth, so its help is --help only.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

from .deconv_kernel import build_table
from .errors import ConfigError, InputError
from .estimator import ObservationSet, bandwidth_schedule, estimate_density
from .experiment import (
    ExperimentConfig,
    _fmt,
    csv_text,
    emit_report,
    grid_csv,
    params_from_mapping,
    params_to_mapping,
    parse_axis_spec,
    parse_config_text,
    parse_grid_spec,
    run_experiment,
    table_for_axes,
    truth_for_model,
    write_text,
)
from .smoothing_kernel import builtin_kernel, eval_w
from .vol_sim import MODELS, simulate_bundle

_TABLE_GRID_DEFAULT = "-40.0:40.0:4096"


def _read_mapping(path: str) -> dict:
    return parse_config_text(pathlib.Path(path).read_text(encoding="utf-8"))


def _numbers(pairs, where: str) -> list:
    """float of each text in (position, text) pairs, naming a malformed one."""
    out = []
    for pos, text in pairs:
        try:
            out.append(float(text))
        except ValueError:
            raise InputError(f"{where} {pos}: not a number: {text.strip()!r}") from None
    return out


def _cmd_kernel_table(args) -> int:
    spec = builtin_kernel(args.kernel)
    grid = parse_axis_spec(args.grid)
    if args.deconv:
        if args.bandwidth is None:
            raise ConfigError("kernel-table --deconv requires -h <bandwidth>")
        table = build_table(spec, args.bandwidth, grid[0], grid[-1], grid.size)
        text = csv_text(
            f"# kernel = {spec.name}, h = {_fmt(table.bandwidth)}, "
            f"sup_bound = {_fmt(table.sup_bound)}\nx,v_h",
            zip(table.grid_x, table.values),
        )
    else:
        text = csv_text(f"# kernel = {spec.name}\nx,w,phi_w",
                        zip(grid, eval_w(spec, grid), spec.phi_w(grid)))
    write_text(args.out, text)
    return 0


def _cmd_simulate(args) -> int:
    params = params_from_mapping(args.model, _read_mapping(args.params))
    bundle = simulate_bundle(
        args.model, params, args.n, args.delta, args.seed,
        subgrid_ratio=args.subgrid_ratio,
    )
    write_text(args.out, "".join(_fmt(v) + "\n" for v in bundle.increments))
    sigma2 = np.asarray(bundle.sigma2)
    meta = {
        "model": args.model,
        "n": int(args.n),
        "delta": float(args.delta),
        "fine_dt": float(bundle.fine_dt),
        "seed": int(args.seed),
        "subgrid_ratio": int(bundle.subgrid_ratio),
        "params": params_to_mapping(params),
        "sigma2_summary": {
            "mean": float(np.mean(sigma2)),
            "var": float(np.var(sigma2)),
            "min": float(np.min(sigma2)),
            "max": float(np.max(sigma2)),
            "n_fine": int(sigma2.size),
        },
    }
    write_text(args.out + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_estimate(args) -> int:
    text = pathlib.Path(args.input).read_text(encoding="utf-8")
    lines = [(i, line) for i, line in enumerate(text.split("\n"), start=1) if line.strip()]
    increments = np.array(_numbers(lines, f"{args.input}, line"), dtype=float)
    times = _numbers(enumerate(args.times.split(","), start=1), "--times field")
    obs = ObservationSet.from_increments(increments, args.delta, times)
    n, p = obs.n, obs.p
    # the implied schedule exponent: delta = n^{-delta_exp} (bandwidth_schedule refuses n < 2)
    delta_exp = min(max(-np.log(args.delta) / np.log(max(n, 2)), 1e-6), 1.0 - 1e-6)
    _, h, warning = bandwidth_schedule(n, p, args.gamma, delta_exp, args.bandwidth)
    if warning is not None:
        print(f"warning: {warning}", file=sys.stderr)
    axes = parse_grid_spec(args.grid, p)
    table = table_for_axes(args.kernel, h, axes)
    grid = estimate_density(obs, table, axes)
    write_text(args.out, grid_csv(grid.axes, grid.values))
    return 0


def _cmd_truth(args) -> int:
    params = params_from_mapping(args.model, _read_mapping(args.params))
    times = _numbers(enumerate(args.times.split(","), start=1), "--times field")
    truth = truth_for_model(args.model, params, times)
    axes = parse_grid_spec(args.grid, len(times))
    write_text(args.out, grid_csv(axes, truth.grid_values(axes)))
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_mapping(_read_mapping(args.config))
    report = run_experiment(cfg)
    emit_report(report, args.out)
    for row in report.aggregate:
        print(f"n={row.n}: mise_mean={row.mise_mean:.6g} mise_se={row.mise_se:.6g}")
    if report.mise_slope is not None:
        print(f"log-log MISE slope: {report.mise_slope:.4f}")
    for note in report.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voldeconv",
        description="Deconvolution density estimation for stochastic volatility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # -h is the bandwidth here, so automatic help is disabled
    kt = sub.add_parser(
        "kernel-table",
        add_help=False,
        help="dump smoothing-kernel or deconvolution-kernel values as CSV",
    )
    kt.add_argument("--help", action="help", help="show this help message")
    kt.add_argument("--deconv", action="store_true", help="dump v_h instead of w")
    kt.add_argument("-h", "--bandwidth", type=float, default=None, metavar="H")
    kt.add_argument("--kernel", default=ExperimentConfig.kernel_name)
    kt.add_argument("--grid", default=_TABLE_GRID_DEFAULT, metavar="LO:HI:N")
    kt.add_argument("--out", default=None)
    kt.set_defaults(func=_cmd_kernel_table)

    sim = sub.add_parser("simulate", help="simulate increments for a model")
    sim.add_argument("--model", required=True, choices=list(MODELS))
    sim.add_argument("--params", required=True, help="flat key = value file")
    sim.add_argument("--n", required=True, type=int)
    sim.add_argument("--delta", required=True, type=float)
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--out", required=True)
    sim.add_argument("--subgrid-ratio", type=int, default=ExperimentConfig.subgrid_ratio)
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="estimate the log sigma^2 density")
    est.add_argument("--input", required=True, help="one increment per line")
    est.add_argument("--delta", required=True, type=float)
    est.add_argument("--times", required=True, help="t1[,t2[,t3]]")
    est.add_argument("--gamma", required=True, type=float)
    est.add_argument("--grid", required=True, metavar="LO:HI:N[,LO:HI:N...]")
    est.add_argument("--bandwidth", type=float, default=None)
    est.add_argument("--kernel", default=ExperimentConfig.kernel_name)
    est.add_argument("--out", default=None)
    est.set_defaults(func=_cmd_estimate)

    tr = sub.add_parser("truth", help="dump a closed-form target density")
    tr.add_argument("--model", required=True, choices=list(MODELS))
    tr.add_argument("--params", required=True)
    tr.add_argument("--times", required=True)
    tr.add_argument("--grid", required=True, metavar="LO:HI:N[,LO:HI:N...]")
    tr.add_argument("--out", default=None)
    tr.set_defaults(func=_cmd_truth)

    ex = sub.add_parser("experiment", help="run a full Monte Carlo experiment")
    ex.add_argument("--config", required=True)
    ex.add_argument("--out", required=True)
    ex.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, LookupError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
