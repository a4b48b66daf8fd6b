"""voldeconv benchmark: one command prints every metric and checks outputs.

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload mc-marginal --seed 3 --seconds 12 --trace 0

Each workload runs in a fresh single-process interpreter with one BLAS
thread.  Untraced (--trace 0) runs print the end-to-end metrics setup_s,
ops_per_s and peak_rss_mb, plus fail_frac; traced runs (--trace 1) print the
per-layer metrics of README.md, including the size sweep.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Run from anywhere; the library is read from src/ next to this
directory, and scratch files go to .perfbench_tmp/ there.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

# workload -> default seed: the acceptance gate's seed for the criterion the
# workload's config comes from (criterion 02 has none)
DEFAULT_SEEDS = {"mc-marginal": 20260816, "mc-joint": 424242, "bias-point": 5150,
                 "kernel-identity": 0}
WORKLOAD_NAMES = tuple(DEFAULT_SEEDS)

IMPORT_SAMPLES = 5  # setup_s is the median of this many fresh imports
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0  # every run ends within this, or fails
SWEEP = [(n, p) for n in (10_000, 100_000, 1_000_000) for p in (1, 2)]
SWEEP_LAYERS = ("vol_sim.simulate_bundle.s", "estimator.from_increments.s",
                "deconv_kernel.build_table.s", "estimator.estimate_density.s")
SWEEP_MEMORY_CAP = 5 << 30  # address-space cap per sweep process, bytes


class BenchError(RuntimeError):
    pass


def sweep_tag(n: int, p: int) -> str:
    return f"n1e{len(str(n)) - 1}-p{p}"


def per_layer_names() -> list:
    """Every per-layer metric a traced run prints, as (name, unit)."""
    from tracing import LAYER_UNITS

    names = [("import.deps_s", "s"), ("import.voldeconv_s", "s")]
    names += list(LAYER_UNITS.items())
    names.append(("trace.overhead_s", "s"))
    for n, p in SWEEP:
        tag = sweep_tag(n, p)
        names += [(f"{layer}.{tag}", "s") for layer in SWEEP_LAYERS]
        names.append((f"sweep.peak_rss_mb.{tag}", "MB"))
    return names


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (SWEEP_MEMORY_CAP, SWEEP_MEMORY_CAP))


def worker(args, deadline, cap_memory=False) -> dict:
    """Run perfbench/worker.py to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER] + [str(a) for a in args], cwd=ROOT,
            env=child_env(), capture_output=True, text=True, timeout=remaining,
            preexec_fn=_cap_memory if cap_memory else None,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded the run time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:  # no git program
            pass
    lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "voldeconv", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_voldeconv_lines": lines,
    }


def run_workload(name, seed, seconds, trace, scratch, deadline):
    """One workload run: (metrics {name: (value, unit)}, result summary)."""
    common = ["--mode", "run", "--workload", name, "--seed", seed,
              "--seconds", seconds, "--scratch", scratch]
    if not trace:
        setups = [sum(worker(["--mode", "import"], deadline)["import"].values())
                  for _ in range(IMPORT_SAMPLES - 1)]
        res = worker(common + ["--trace", 0], deadline)
        setups.append(sum(res["import"].values()))
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (res["ops_per_s"], "ops/s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        res["setup_samples"] = setups
        return metrics, res

    res = worker(common + ["--trace", 1], deadline)
    metrics = {
        "import.deps_s": (res["import"]["deps_s"], "s"),
        "import.voldeconv_s": (res["import"]["voldeconv_s"], "s"),
    }
    metrics.update({k: tuple(v) for k, v in res["layers"].items()})
    return metrics, res


def run_sweep(seed, deadline):
    """The size sweep: not gated, one fresh process per (n, p) for a clean
    peak RSS.  Returns (metrics, failed (n, p) tags)."""
    metrics, failures = {}, []
    for n, p in SWEEP:
        tag = sweep_tag(n, p)
        try:
            sw = worker(["--mode", "sweep", "--seed", seed, "--n", n, "--p", p],
                        deadline, cap_memory=True)
            times, rss, ok = sw["times"], sw["peak_rss_mb"], sw["finite"]
        except BenchError as exc:
            print(f"sweep {tag} failed: {exc}", file=sys.stderr)
            times, rss, ok = {}, 0.0, False
        if not ok:
            failures.append(tag)
        for layer in SWEEP_LAYERS:
            metrics[f"{layer}.{tag}"] = (times.get(layer, 0.0), "s")
        metrics[f"sweep.peak_rss_mb.{tag}"] = (rss, "MB")
    return metrics, failures


DIRECTION = {"setup_s": "lower", "ops_per_s": "higher", "peak_rss_mb": "lower"}


def report(name, seed, metrics, res, env) -> None:
    print(f"# {name} seed {seed} environment: {json.dumps(env)}")
    for key, (value, unit) in metrics.items():
        note = ""
        if key == "setup_s":
            note = f"median of {len(res['setup_samples'])} fresh `import voldeconv`"
        elif key == "ops_per_s":
            note = (f"median over {res['cycles']} cycles ({res['calls']} entry-point "
                    f"calls) of ops/cycle wall; "
                    f"{res['attempted']} ops in {res['wall_s']:.3f} s")
        elif key == "peak_rss_mb":
            note = "ru_maxrss of the workload process"
        direction = f"{DIRECTION[key]} is better; " if key in DIRECTION else ""
        print(f"{name:16s} {key:44s} {value:14.6g} {unit:6s} {direction}{note}")
    frac = res["failed_checks"] / res["checks"] if res["checks"] else 1.0
    print(f"{name:16s} {'fail_frac':44s} {frac:14.6g} {'ratio':6s} lower is better; "
          f"{res['failed_checks']} failed of {res['checks']} output checks "
          f"over {res['attempted']} ops")
    for line in res["failures"]:
        print(f"{name:16s} failed check: {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, help="default: each workload's gate seed")
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "voldeconv", "__init__.py")):
        print(f"no library source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    env = environment()
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=tmp_root)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
            # a traced run of one workload shares this limit with the sweep
            deadline = time.monotonic() + RUN_LIMIT_S
            run_env = dict(env, load_before=os.getloadavg())
            metrics, res = run_workload(name, seed, args.seconds, args.trace, scratch,
                                        deadline)
            run_env.update(load_after=os.getloadavg(), versions=res["versions"])
            report(name, seed, metrics, res, run_env)
            total["correct"] &= res["failed_checks"] == 0
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for key, (value, unit) in metrics.items():
                total["metrics"][prefix + key] = {"value": value, "unit": unit}
        if args.trace:
            # once per invocation: the sweep does not depend on the workload
            metrics, failures = run_sweep(seed, deadline)
            for key, (value, unit) in metrics.items():
                print(f"{'sweep':16s} {key:44s} {value:14.6g} {unit}")
                total["metrics"][key] = {"value": value, "unit": unit}
            for tag in failures:
                print(f"{'sweep':16s} failed check: {tag} not finite or not finished")
            total["correct"] &= not failures
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not os.listdir(tmp_root):
            os.rmdir(tmp_root)
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
