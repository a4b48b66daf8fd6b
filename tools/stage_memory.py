"""tracemalloc peak of each pipeline stage, for the criterion-06 and
criterion-07 configs at one n, and each config's peak RSS in a fresh process.

    PYTHONPATH=src python3 tools/stage_memory.py [--n 100000]

Each config (tools/output_digests.py's, with n_schedule (n,) and one
replication) is run once through run_experiment and emit_report untraced,
so that first-use imports, the quadrature rules and the caches are left out.
Then each stage of one replication runs again alone under tracemalloc:
resolve_grid, table_for_axes, simulate_bundle, observe (the log-square
transform, ObservationSet.from_increments), estimate_density, compute_mise
and emit_report (into a temporary directory).  A stage's peak counts what it
allocated and still held at its highest, its result included.  One line per
stage,

    <config> <stage> <peak> MB

then `<config> run_experiment ru_maxrss <peak> MB wall <s> s scipy.signal
<yes|no>`: the most resident memory and the wall seconds (interpreter start
and imports included) of a fresh interpreter that imports the package and
runs the config's run_experiment, untraced, as a user's run would, and
whether that run imported scipy.signal (about 0.6 s and 50 MB).  A last line
`process ru_maxrss <peak> MB` gives this process's, tracemalloc's own
bookkeeping included.  MB is 10**6 bytes.  The p = 2 sweep and the v_h sums
are BLAS products, so set OPENBLAS_NUM_THREADS as the run to compare with
does.
"""
from __future__ import annotations

import argparse
import dataclasses
import pathlib
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

from output_digests import criterion_06, criterion_07  # this directory, sys.path[0]

from voldeconv import (
    ObservationSet, bandwidth_schedule, compute_mise, emit_report, estimate_density, mix_seed,
    run_experiment, simulate_bundle, truth_for,
)
from voldeconv.experiment import resolve_grid, table_for_axes


def traced(fn, *args, **kwargs):
    """(fn(*args, **kwargs), its tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def stage_peaks(cfg, tmp: str) -> dict:
    """Peak bytes per stage of cfg's first replication at its one n, in
    pipeline order."""
    report = run_experiment(cfg)
    emit_report(report, tmp)
    truth = truth_for(cfg)
    n = cfg.n_schedule[0]
    delta, h, _ = bandwidth_schedule(n, cfg.p, cfg.gamma, cfg.delta_exp, cfg.bandwidth_override)
    peaks = {}
    (axes, _), peaks["resolve_grid"] = traced(resolve_grid, cfg, truth)
    table, peaks["table_for_axes"] = traced(table_for_axes, cfg.kernel_name, h, axes)
    bundle, peaks["simulate_bundle"] = traced(
        simulate_bundle, cfg.model, cfg.params, n, delta, mix_seed(cfg.master_seed, 0, 0),
        subgrid_ratio=cfg.subgrid_ratio)
    obs, peaks["observe"] = traced(ObservationSet.from_increments, bundle.increments, delta,
                                   cfg.times)
    del bundle  # as run_experiment does before it estimates
    est, peaks["estimate_density"] = traced(estimate_density, obs, table, axes)
    _, peaks["compute_mise"] = traced(compute_mise, est, truth)
    _, peaks["emit_report"] = traced(emit_report, report, tmp)
    return peaks


def configs(n: int) -> dict:
    """The criterion-06 and criterion-07 configs by name, at n with one
    replication."""
    return {name: dataclasses.replace(cfg, n_schedule=(n,), replications=1)
            for name, cfg in (("crit06", criterion_06()), ("crit07", criterion_07(424242)))}


def print_run_rss(name: str, n: int) -> None:
    """Run config name's run_experiment at n, then print this process's
    ru_maxrss (KiB on Linux) and whether scipy.signal was imported."""
    run_experiment(configs(n)[name])
    signal = "yes" if "scipy.signal" in sys.modules else "no"
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, signal)


def fresh_run(name: str, n: int) -> str:
    """`ru_maxrss <MB> MB wall <s> s scipy.signal <yes|no>` of a fresh
    interpreter running print_run_rss."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import stage_memory; "
            "stage_memory.print_run_rss(sys.argv[2], int(sys.argv[3]))")
    tools = str(pathlib.Path(__file__).resolve().parent)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, tools, name, str(n)],
                          stdout=subprocess.PIPE, text=True, check=True)
    wall = time.perf_counter() - t0
    rss_kib, signal = proc.stdout.split()[-2:]
    return f"ru_maxrss {int(rss_kib) * 1024 / 1e6:.1f} MB wall {wall:.2f} s scipy.signal {signal}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000, help="increments (default 1e5)")
    args = parser.parse_args(argv)
    # the fresh runs first: on Linux a child's ru_maxrss starts from its
    # parent's peak, which must stay below the run's own
    runs = {name: fresh_run(name, args.n) for name in configs(args.n)}
    for name, cfg in configs(args.n).items():
        with tempfile.TemporaryDirectory() as tmp:
            peaks = stage_peaks(cfg, tmp)
        for stage, peak in peaks.items():
            print(f"{name} {stage} {peak / 1e6:.2f} MB")
        print(f"{name} run_experiment {runs[name]}", flush=True)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(f"process ru_maxrss {rss_kib * 1024 / 1e6:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
