"""One measurement in a fresh interpreter; started by perfbench/run.py.

Modes:
  import  time `import voldeconv` (split into its third-party imports and
          the package itself) and exit;
  run     run one workload, untraced for --seconds (trace 0) or a fixed
          number of calls untraced then traced (trace 1);
  sweep   time simulate_bundle, from_increments, build_table and
          estimate_density once at one (n, p).
The last line of standard output is one JSON object.
"""
import time

_T0 = time.perf_counter()
import numpy as np  # noqa: E402  the library's third-party imports
import scipy.integrate  # noqa: E402,F401
import scipy.signal  # noqa: E402,F401
_T1 = time.perf_counter()
import voldeconv  # noqa: E402,F401
_T2 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from voldeconv import estimator, experiment, vol_sim  # noqa: E402

import workloads  # noqa: E402
from run import DEFAULT_SEEDS  # noqa: E402
from tracing import LAYER_UNITS, Tracer  # noqa: E402

IMPORT_S = {"deps_s": _T1 - _T0, "voldeconv_s": _T2 - _T1}

# Calls per pass in a traced run: fixed, so computed counts repeat exactly.
TRACE_CALLS = {"mc-marginal": 1, "mc-joint": 1, "bias-point": 1, "kernel-identity": 4}

# Size sweep: p = 1 is the mc-marginal model, p = 2 the mc-joint model, on
# fixed small grids so that n = 1e6 stays within the run's time limit.
SWEEP_AXES = {1: [(-5.0, 5.0, 51)], 2: [(-20.0, 20.0, 15)] * 2}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _versions():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _run_calls(call, seed, calls, size, scratch, deadline=None, cycle=1):
    """Make calls 0, 1, ... until `calls` are done or, at the end of a cycle
    of `cycle` calls, the deadline has passed.

    Returns one (call index, ops, seconds, outputs or None, error text) per
    call.  A call
    that raises is recorded and the run goes on.
    """
    results = []
    i = 0
    while True:
        t = time.perf_counter()
        try:
            ops, out = call(seed, i, size, scratch)
            err = None
        except Exception as exc:  # a failed op is counted, not fatal
            ops, out, err = 1, None, f"{type(exc).__name__}: {exc}"
        results.append((i, ops, time.perf_counter() - t, out, err))
        i += 1
        if calls is not None and i >= calls:
            return results
        if deadline is not None and i % cycle == 0 and time.perf_counter() >= deadline:
            return results


def _score(wl_name, seed, results, refs, extra=None):
    """Attempted and failed ops, and checks made and failed, over calls.

    `extra` maps a call's index in `results` to further (label, passed)
    checks on it.
    """
    default_seed = seed == DEFAULT_SEEDS[wl_name]
    attempted = failed_ops = n_checks = failed_checks = 0
    failures = []
    for pos, (i, ops, _, out, err) in enumerate(results):
        attempted += ops
        if out is None:
            checks = [("raised", False)]
            failures.append(f"call {i}: {err}")
        else:
            checks = workloads.check(wl_name, out, default_seed, i, "full", refs)
        checks += (extra or {}).get(pos, [])
        bad = [label for label, ok in checks if not ok]
        n_checks += len(checks)
        failed_checks += len(bad)
        if bad:
            failed_ops += ops
            failures.extend(f"call {i}: {label}" for label in bad if out is not None)
    return {"attempted": attempted, "failed": failed_ops, "checks": n_checks,
            "failed_checks": failed_checks, "failures": failures[:20]}


def run_workload(args):
    call = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES["full"]
    refs = workloads.load_references()
    result = {"import": IMPORT_S, "versions": _versions()}
    if not args.trace:
        start = time.perf_counter()
        cycle = workloads.CYCLES.get(args.workload, 1)
        results = _run_calls(call, args.seed, None, size, args.scratch,
                             deadline=start + args.seconds, cycle=cycle)
        score = _score(args.workload, args.seed, results, refs)
        rates = []
        for c in range(0, len(results), cycle):
            chunk = results[c:c + cycle]
            if all(r[3] is not None for r in chunk):
                rates.append(sum(r[1] for r in chunk) / sum(r[2] for r in chunk))
        result.update(score)
        result["calls"] = len(results)
        result["cycles"] = len(rates)
        result["call_s"] = [r[2] for r in results]
        result["wall_s"] = sum(result["call_s"])
        result["ops_per_s"] = statistics.median(rates) if rates else 0.0
    else:
        calls = TRACE_CALLS[args.workload]
        # warm-up, not scored: keeps first-call costs out of trace.overhead_s
        _run_calls(call, args.seed, 1, size, args.scratch)
        plain = _run_calls(call, args.seed, calls, size, args.scratch)
        tracer = Tracer()
        with tracer:
            traced = _run_calls(call, args.seed, calls, size, args.scratch)
        # tracing must not change a single output bit
        identical = {
            calls + i: [("traced_output_identical",
                         a[3] is not None and json.dumps(a[3]) == json.dumps(b[3]))]
            for i, (a, b) in enumerate(zip(plain, traced))
        }
        result.update(_score(args.workload, args.seed, plain + traced, refs, identical))
        result["calls"] = calls
        layers = {k: [v, LAYER_UNITS[k]] for k, v in tracer.layer_metrics().items()}
        layers["trace.overhead_s"] = [sum(r[2] for r in traced) - sum(r[2] for r in plain), "s"]
        result["layers"] = layers
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


def run_sweep(args):
    n, p = args.n, args.p
    if p == 1:
        cfg = workloads.marginal_config(n, args.seed)
    else:
        cfg = workloads.joint_config(n, args.seed)
    axes = [np.linspace(*spec) for spec in SWEEP_AXES[p]]
    delta = float(n) ** (-cfg.delta_exp)
    h = cfg.gamma * np.pi / np.log(n)
    times = {}
    t = time.perf_counter()
    bundle = vol_sim.simulate_bundle(cfg.model, cfg.params, n, delta, args.seed)
    times["vol_sim.simulate_bundle.s"] = time.perf_counter() - t
    t = time.perf_counter()
    obs = estimator.ObservationSet.from_increments(bundle.increments, delta, cfg.times)
    times["estimator.from_increments.s"] = time.perf_counter() - t
    del bundle
    t = time.perf_counter()
    table = experiment.table_for_axes(cfg.kernel_name, h, axes)
    times["deconv_kernel.build_table.s"] = time.perf_counter() - t
    t = time.perf_counter()
    est = estimator.estimate_density(obs, table, axes)
    times["estimator.estimate_density.s"] = time.perf_counter() - t
    ok = bool(np.all(np.isfinite(est.values)))
    return {"times": times, "peak_rss_mb": _peak_rss_mb(), "finite": ok}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("import", "run", "sweep"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch")
    ap.add_argument("--n", type=int)
    ap.add_argument("--p", type=int, choices=(1, 2))
    args = ap.parse_args(argv)
    if args.mode == "import":
        out = {"import": IMPORT_S}
    elif args.mode == "sweep":
        out = run_sweep(args)
    else:
        out = run_workload(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
