"""The benchmark's four workloads and the checks behind fail_frac.

Each workload is a sequence of calls to the library's public entry points.
Call i of a run is a pure function of (seed, i), so an untraced and a traced
pass over the same calls must agree bit for bit.  A call returns the number
of operations it completed and a flat dict of its outputs (plain floats),
which `check` compares against seed-independent invariants and, where this
file records them, against references taken at the seed commit.

Library functions are looked up through their defining modules at call time
(`experiment.run_experiment`, `deconv_kernel.build_table`, ...) so that the
traced run's wrappers see the benchmark's own calls too.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import tempfile

import numpy as np

from voldeconv import deconv_kernel, experiment
from voldeconv import noise_model, smoothing_kernel
from voldeconv.vol_sim import OUParams, RegimeSwitchParams

# References must agree to this tolerance, relative to max(1, |ref|); it is
# the acceptance gate's tightest tolerance and may not be loosened.
REF_TOL = 1e-6
IDENTITY_TOL = 1e-6  # criterion 02
MASS_TOL = 1e-6  # criterion 03, on the unit mass of v_h
SUP_SLACK = 1e-12  # criterion 03's slack on |v_h| <= sup_bound

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# "full" is what the benchmark measures; "small" runs the same code paths in
# seconds, for the benchmark's own tests.  Criterion 05 makes 200 bias
# replications; 16 per bandwidth keep bias-point simulation-bound (about
# 5 s of replications against 3 s of resolve_grid, kernel_moments and
# build_table per bias_check) while a call of both stays near 17 s.
SIZES = {
    "full": {"n": 100_000, "bias_reps": 16, "table_points": 29001,
             "z_points": 8801, "ys_per_call": 4},
    "small": {"n": 2_000, "bias_reps": 2, "table_points": 2901,
              "z_points": 881, "ys_per_call": 2},
}

KERNEL_HS = (0.4, 0.6, 1.0, 2.46)
BIAS_HS = (0.5, 0.25)
SPEC = smoothing_kernel.builtin_kernel("poly3")


def marginal_config(n, seed):
    # criterion 06, at its largest n only
    return experiment.ExperimentConfig(
        model="ou", params=OUParams(a=2.0, mu=0.0, b=2.0), n_schedule=(n,),
        delta_exp=0.5, gamma=9.0, times=(1.0,), grid_spec="auto",
        replications=1, master_seed=seed,
    )


def joint_config(n, seed):
    # criterion 07
    params = RegimeSwitchParams(
        a0=1.0, a1=1.0, ou0=OUParams(4.0, -2.0, 1.0), ou1=OUParams(4.0, 2.0, 1.0)
    )
    return experiment.ExperimentConfig(
        model="regime", params=params, n_schedule=(n,), delta_exp=0.75,
        gamma=17.0, times=(1.0, 1.05), grid_spec="auto", replications=1,
        master_seed=seed,
    )


def bias_config(n, reps, seed, bandwidth):
    # criterion 05
    return experiment.ExperimentConfig(
        model="ou", params=OUParams(a=2.0, mu=0.0, b=4.0), n_schedule=(n,),
        delta_exp=0.4, gamma=11.0, times=(1.0,), grid_spec="auto",
        replications=reps, master_seed=seed, bandwidth_override=bandwidth,
    )


def _integrate(values, axes):
    for ax in reversed(range(len(axes))):
        values = np.trapezoid(values, x=axes[ax], axis=ax)
    return float(values)


def _mc_outputs(report, cfg):
    n = cfg.n_schedule[0]
    rec = report.records[0]
    grid = report.grids[(n, 0)]
    truth = experiment.truth_for(cfg)
    return {
        "h": report.bandwidths[n],
        "mise": rec.mise,
        "bias_center": rec.bias_center,
        "clamps": float(rec.clamps),
        "truncated_mass": report.truncated_mass,
        "grid_finite": float(np.all(np.isfinite(grid.values))),
        # ISE of the zero function: any useful estimate must beat it
        "zero_ise": _integrate(truth.grid_values(grid.axes) ** 2, grid.axes),
    }


def call_mc_marginal(seed, i, size, scratch):
    cfg = marginal_config(size["n"], seed + i)
    report = experiment.run_experiment(cfg)
    return 1, _mc_outputs(report, cfg)


def call_mc_joint(seed, i, size, scratch):
    cfg = joint_config(size["n"], seed + i)
    report = experiment.run_experiment(cfg)
    out = _mc_outputs(report, cfg)
    out_dir = tempfile.mkdtemp(dir=scratch)
    try:
        experiment.emit_report(report, out_dir)
        with open(os.path.join(out_dir, "records.csv"), encoding="utf-8") as fh:
            row = fh.read().splitlines()[1].split(",")
        out["emitted_mise"] = float(row[2])
        out["emitted_grids"] = float(len(os.listdir(os.path.join(out_dir, "grids"))))
    finally:
        shutil.rmtree(out_dir)
    return 1, out


def call_bias_point(seed, i, size, scratch):
    # both bandwidths on the same bundles, as criterion 05 does; output keys
    # end in the bandwidth's index in BIAS_HS
    out = {}
    for k, bandwidth in enumerate(BIAS_HS):
        cfg = bias_config(size["n"], size["bias_reps"], seed + i, bandwidth)
        rep = experiment.bias_check(cfg, experiment.truth_for(cfg))
        fields = {
            "n": float(rep.n), "h": rep.h, "replications": float(rep.replications),
            "empirical_bias": rep.empirical_bias, "empirical_se": rep.empirical_se,
            "predicted_bias": rep.predicted_bias, "ratio": rep.ratio,
        }
        fields.update({f"point{j}": v for j, v in enumerate(rep.point)})
        out.update({f"{key}_{k}": v for key, v in fields.items()})
    return len(BIAS_HS) * size["bias_reps"], out


def call_kernel_identity(seed, i, size, scratch):
    h = KERNEL_HS[i % len(KERNEL_HS)]
    table = deconv_kernel.build_table(SPEC, h, -290.0, 290.0, size["table_points"])
    z = np.linspace(-80.0, 8.0, size["z_points"])
    kz = noise_model.noise_density(z)
    ys = np.random.default_rng([seed, i]).uniform(-10.0, 10.0, size["ys_per_call"])
    out = {
        "h": h,
        "sup_bound": table.sup_bound,
        "table_max_abs": float(np.max(np.abs(table.values))),
        "table_mass": float(np.trapezoid(table.values, table.grid_x)),
    }
    for k, y in enumerate(ys):
        lhs = np.trapezoid(deconv_kernel.vh_quadrature(SPEC, h, (y - z) / h) * kz, z)
        out[f"residual{k}"] = abs(float(lhs) - float(smoothing_kernel.eval_w(SPEC, y / h)))
    return len(ys), out


# name -> call(seed, i, size, scratch) -> (ops completed, outputs)
WORKLOADS = {
    "mc-marginal": call_mc_marginal,
    "mc-joint": call_mc_joint,
    "bias-point": call_bias_point,
    "kernel-identity": call_kernel_identity,
}


# name -> calls per cycle, default 1.  kernel-identity's calls cycle through
# KERNEL_HS, whose tables differ in cost, so its rate is taken over whole
# cycles and does not depend on where a run happens to stop.
CYCLES = {"kernel-identity": len(KERNEL_HS)}


def load_references():
    with open(REFERENCES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, ref):
    return abs(value - ref) <= REF_TOL * max(1.0, abs(ref))


def _finite(out):
    return all(math.isfinite(v) for v in out.values())


def check(workload, out, default_seed, i, size_name, refs):
    """(label, passed) pairs for one call's outputs.

    Invariants hold for every seed.  References apply at full size: the
    seed-independent ones (bias predictions, v_h tables) for every seed, the
    rest only when `default_seed` is true (the run uses the workload's
    default seed) and for calls that were recorded.
    """
    checks = [("finite", _finite(out))]
    if workload in ("mc-marginal", "mc-joint"):
        checks += [
            ("grid_finite", out["grid_finite"] == 1.0),
            ("mise_beats_zero", 0.0 <= out["mise"] < out["zero_ise"]),
            ("grid_holds_truth_mass", out["truncated_mass"] < 1e-3),
        ]
        if workload == "mc-joint":
            checks += [
                ("emitted_mise_round_trip", out["emitted_mise"] == out["mise"]),
                ("emitted_one_grid", out["emitted_grids"] == 1.0),
            ]
    elif workload == "bias-point":
        for k, bandwidth in enumerate(BIAS_HS):
            checks += [
                (f"bandwidth_is_override_{k}", out[f"h_{k}"] == bandwidth),
                (f"se_positive_{k}", out[f"empirical_se_{k}"] > 0.0),
            ]
    elif workload == "kernel-identity":
        checks += [(k, v < IDENTITY_TOL) for k, v in out.items() if k.startswith("residual")]
        checks += [
            ("sup_bound", out["table_max_abs"] <= out["sup_bound"] * (1.0 + SUP_SLACK)),
            ("unit_mass", abs(out["table_mass"] - 1.0) < MASS_TOL),
        ]

    if size_name != "full" or refs is None:
        return checks
    wref = refs.get(workload, {})
    shared = wref.get("any_seed", {}).get(str(i % wref.get("any_seed_period", 1)), {})
    checks += [(f"ref_{k}", _close(out[k], v)) for k, v in shared.items()]
    if default_seed:
        own = wref.get("default_seed", [])
        if i < len(own):
            checks += [(f"ref_{k}", _close(out[k], v)) for k, v in own[i].items()]
    return checks


# Outputs that do not depend on the seed, so their references apply to
# every seed; keyed by i modulo the period of the workload's call cycle.
SEED_FREE = {
    "bias-point": (1, tuple(f"{key}_{k}" for k in range(len(BIAS_HS))
                            for key in ("h", "predicted_bias", "point0"))),
    "kernel-identity": (len(KERNEL_HS), ("h", "sup_bound", "table_max_abs", "table_mass")),
}
