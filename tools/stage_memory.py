"""tracemalloc peak of each pipeline stage, for the criterion-06 and
criterion-07 configs at one n, then the process's peak RSS.

    PYTHONPATH=src python3 tools/stage_memory.py [--n 100000]

Each config (tools/output_digests.py's, with n_schedule (n,) and one
replication) is run once through run_experiment and emit_report untraced,
so that first-use imports, the quadrature rules and the caches are left out.
Then each stage of one replication runs again alone under tracemalloc:
resolve_grid, table_for_axes, simulate_bundle, estimate_density,
compute_mise and emit_report (into a temporary directory).  A stage's peak
counts what it allocated and still held at its highest, its result
included.  One line per stage,

    <config> <stage> <peak> MB

and a last line `process ru_maxrss <peak> MB`: the most resident memory the
process had, tracemalloc's own bookkeeping included.  MB is 10**6 bytes.
The p = 2 sweep and the v_h sums are BLAS products, so set
OPENBLAS_NUM_THREADS as the run to compare with does.
"""
from __future__ import annotations

import argparse
import dataclasses
import resource
import sys
import tempfile
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
    obs = ObservationSet.from_increments(bundle.increments, delta, cfg.times)
    est, peaks["estimate_density"] = traced(estimate_density, obs, table, axes)
    _, peaks["compute_mise"] = traced(compute_mise, est, truth)
    _, peaks["emit_report"] = traced(emit_report, report, tmp)
    return peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000, help="increments (default 1e5)")
    args = parser.parse_args(argv)
    configs = {"crit06": criterion_06(), "crit07": criterion_07(424242)}
    for name, cfg in configs.items():
        cfg = dataclasses.replace(cfg, n_schedule=(args.n,), replications=1)
        with tempfile.TemporaryDirectory() as tmp:
            peaks = stage_peaks(cfg, tmp)
        for stage, peak in peaks.items():
            print(f"{name} {stage} {peak / 1e6:.2f} MB")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(f"process ru_maxrss {rss_kib * 1024 / 1e6:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
