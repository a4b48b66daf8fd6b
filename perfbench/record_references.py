"""Record the reference outputs that fail_frac checks against.

    PYTHONPATH=src python3 perfbench/record_references.py

Runs the first calls of every workload at its default seed and full size and
writes perfbench/references.json.  The committed file was recorded at the
commit that added the benchmark; re-record only when a change is meant to
alter these outputs, and say so in CHANGES.md.
"""
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from run import DEFAULT_SEEDS  # noqa: E402

# Calls recorded per workload: more than a run of the default length makes
# at the recording commit.  Later calls are checked by invariants only.
RECORDED_CALLS = {"mc-marginal": 8, "mc-joint": 12, "bias-point": 4, "kernel-identity": 24}

DEFAULT_SEED_KEYS = {
    "mc-marginal": ("h", "mise", "bias_center", "clamps", "truncated_mass"),
    "mc-joint": ("h", "mise", "bias_center", "clamps", "truncated_mass"),
    "bias-point": tuple(f"{key}_{k}" for k in range(len(workloads.BIAS_HS))
                        for key in ("n", "replications", "empirical_bias", "empirical_se",
                                    "ratio")),
}


def record(name, scratch):
    call = workloads.WORKLOADS[name]
    size = workloads.SIZES["full"]
    period, shared_keys = workloads.SEED_FREE.get(name, (1, ()))
    own_keys = DEFAULT_SEED_KEYS.get(name)
    entry = {"any_seed_period": period, "any_seed": {}, "default_seed": []}
    for i in range(RECORDED_CALLS[name]):
        _, out = call(DEFAULT_SEEDS[name], i, size, scratch)
        if i < period and shared_keys:
            entry["any_seed"][str(i)] = {k: out[k] for k in shared_keys}
        keys = own_keys or [k for k in out if k.startswith("residual")]
        entry["default_seed"].append({k: out[k] for k in keys})
        print(f"{name} call {i}: {entry['default_seed'][-1]}", flush=True)
    return entry


def main():
    refs = {}
    tmp_root = os.path.join(os.path.dirname(workloads.REFERENCES_PATH), os.pardir, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as scratch:
        for name in workloads.WORKLOADS:
            refs[name] = record(name, scratch)
    with open(workloads.REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
