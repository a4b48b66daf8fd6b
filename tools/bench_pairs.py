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
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ENV_MARK = " environment: "
RUN_TIMEOUT_S = 1800


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


def run_once(checkout: str) -> dict:
    load_before = os.getloadavg()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all"],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    environment = {}
    for line in lines:
        if line.startswith("# ") and ENV_MARK in line:
            head, env = line[2:].split(ENV_MARK, 1)
            environment[head.split()[0]] = json.loads(env)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return {"returncode": proc.returncode, "wall_s": wall,
            "load_before": load_before, "load_after": os.getloadavg(),
            "environment": environment, "result": result,
            "stderr_tail": proc.stderr.strip().splitlines()[-5:]}


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
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    record = {
        "command": "python3 perfbench/run.py --workload all",
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "nproc": os.cpu_count(),
        "checkouts": {side: checkout_info(path) for side, path in sides.items()},
        "runs": [],
    }
    metrics = end_to_end(sides["change"])
    for pair in range(args.pairs):
        for side in ("parent", "change")[:: 1 if pair % 2 == 0 else -1]:
            run = run_once(sides[side])
            run.update(side=side, pair=pair)
            record["runs"].append(run)
            ok = run["returncode"] == 0 and run["result"] is not None
            print(f"pair {pair} {side}: {'ok' if ok else 'FAILED'} in {run['wall_s']:.0f} s",
                  flush=True)
            # rewritten after every run, so an interrupted session keeps its pairs
            record["finished_utc"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
            record["summary"] = summarize(record["runs"], metrics)
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
