"""Paired benchmark runs of two checkouts, written to one BENCH_*.json file.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \
        --out BENCH_tag.json

Runs `python3 perfbench/run.py --workload all` alternately in the parent
checkout and the change checkout, the parent first in even pairs and the
change first in odd ones, so each side benchmarks its own src/ and slow drift
of the machine favours neither.  The file keeps, for every run, the last-line JSON
and the `# <workload> seed <s> environment:` lines (nproc, load average,
versions, commit), plus the machine's load average around the run.  For
every metric it gives each side's median and quartiles, and, per pair, the
change's ratio to the parent and how many pairs the change wins, "better"
being the direction BENCHMARK.json gives for the metric.  Two flags give the
verdict on each end-to-end metric:

  gain_resolved  the change wins at least 9 of 10 pairs and its median is
                 better than the parent's by more than the parent's q3 - q1;
  within_bound   the change's median is worse than the parent's by no more
                 than the metric's relative bound in BENCHMARK.json.

The summary's "ops" entry gives, for each side, how many runs were made and
how many failed (a non-zero exit, no result line, or RUN_TIMEOUT_S reached),
and the attempted and failed ops over the runs that gave a result, since a
failed run gives no metric values and so drops out of the per-metric
entries.  The "src_lines" entry gives each side's src/voldeconv line count,
as perfbench/run.py reports it on every environment line, or null for a
side with no finished run or whose runs report different counts.  A run
that reaches RUN_TIMEOUT_S is killed with every process it started, and
the pairs go on.  --seed s runs every workload at seed s
(`run.py --seed s`), to check a claim at a seed other than each workload's
gate seed.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ENV_MARK = " environment: "
RUN_TIMEOUT_S = 1800
COMMAND = [sys.executable, "perfbench/run.py", "--workload", "all"]


def src_digest(checkout: str) -> str:
    """sha256 over the relative paths and bytes of every .py and .npz file in
    src/ (the code and its package data)."""
    digest = hashlib.sha256()
    src = os.path.join(checkout, "src")
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith((".py", ".npz"))):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def checkout_info(checkout: str) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--", "src", "perfbench")
    return {"commit": git("rev-parse", "HEAD"),
            "src_or_perfbench_modified": bool(status),
            "src_sha256": src_digest(checkout)}


def run_once(checkout: str, args=()) -> dict:
    """Run COMMAND plus args in the checkout; a run that reaches RUN_TIMEOUT_S
    is killed and kept with returncode None, timed_out true and no result."""
    load_before = os.getloadavg()
    start = time.monotonic()
    # a session of its own, so that a timeout kills the workers run.py started too
    proc = subprocess.Popen([*COMMAND, *args], cwd=checkout, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        timed_out = True
    wall = time.monotonic() - start
    lines = stdout.strip().splitlines()
    environment = {}
    for line in lines:
        if line.startswith("# ") and ENV_MARK in line:
            head, env = line[2:].split(ENV_MARK, 1)
            environment[head.split()[0]] = json.loads(env)
    try:
        result = None if timed_out else json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return {"returncode": None if timed_out else proc.returncode, "timed_out": timed_out,
            "wall_s": wall, "load_before": load_before, "load_after": os.getloadavg(),
            "environment": environment, "result": result,
            "stderr_tail": stderr.strip().splitlines()[-5:]}


def failed(run: dict) -> bool:
    """Whether a run exited non-zero, timed out (returncode None) or printed
    no result line."""
    return run["returncode"] != 0 or run["result"] is None


def tally(runs: list, side: str) -> dict:
    """One side's runs made and failed, and its attempted and failed ops."""
    mine = [run for run in runs if run["side"] == side]
    results = [run["result"] for run in mine if run["result"]]
    return {"runs": len(mine), "failed_runs": sum(map(failed, mine)),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}


def end_to_end(checkout: str) -> dict:
    """BENCHMARK.json's end-to-end metrics by name, each with its "better"
    direction and relative "bound"."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values: list) -> dict:
    if len(values) < 2:
        v = values[0] if values else None
        return {"q1": v, "median": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def src_lines(runs: list, side: str):
    """The src/voldeconv line count every finished run of the side reports,
    or None if there is no such run or they disagree."""
    counts = {env.get("src_voldeconv_lines")
              for run in runs if run["side"] == side and run["result"]
              for env in run["environment"].values()}
    return counts.pop() if len(counts) == 1 else None


def summarize(runs: list, metrics: dict) -> dict:
    def values(side):
        out = {}  # metric -> {pair: value}, from the runs that finished
        for run in runs:
            if run["side"] == side and run["result"]:
                for key, metric in run["result"]["metrics"].items():
                    out.setdefault(key, {})[run["pair"]] = metric["value"]
        return out

    parent, change = values("parent"), values("change")
    summary = {}
    for key in sorted(set(parent) & set(change)):
        entry = {"parent": quartiles(list(parent[key].values())),
                 "change": quartiles(list(change[key].values()))}
        spec = metrics.get(key.rsplit(".", 1)[-1])
        pairs = [(parent[key][i], change[key][i]) for i in sorted(parent[key]) if i in change[key]]
        if spec and pairs:
            sign = 1 if spec["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in pairs)
            base = entry["parent"]
            gain = sign * (entry["change"]["median"] - base["median"])
            entry.update(better=spec["better"], pairs=len(pairs), change_wins=wins,
                         ratio_change_to_parent=[c / p if p else None for p, c in pairs],
                         gain_resolved=wins >= 0.9 * len(pairs) and gain > base["q3"] - base["q1"],
                         within_bound=-gain <= spec["bound"] * abs(base["median"]))
        summary[key] = entry
    summary["ops"] = {side: tally(runs, side) for side in ("parent", "change")}
    summary["src_lines"] = {side: src_lines(runs, side) for side in ("parent", "change")}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, help="every workload's seed (default: each one's gate seed)")
    args = ap.parse_args(argv)
    extra = [] if args.seed is None else ["--seed", str(args.seed)]

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    record = {
        "command": " ".join(["python3 perfbench/run.py --workload all", *extra]),
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "nproc": os.cpu_count(),
        "checkouts": {side: checkout_info(path) for side, path in sides.items()},
        "runs": [],
    }
    metrics = end_to_end(sides["change"])
    for pair in range(args.pairs):
        for side in ("parent", "change")[:: 1 if pair % 2 == 0 else -1]:
            run = run_once(sides[side], extra)
            run.update(side=side, pair=pair)
            record["runs"].append(run)
            status = "TIMED OUT" if run["timed_out"] else "FAILED" if failed(run) else "ok"
            print(f"pair {pair} {side}: {status} in {run['wall_s']:.0f} s", flush=True)
            # rewritten after every run, so an interrupted session keeps its pairs
            record["finished_utc"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
            record["summary"] = summarize(record["runs"], metrics)
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
