"""sha256 digests of the package's deterministic artifacts, one line each.

    PYTHONPATH=src python3 tools/output_digests.py > digests.txt

Prints `<sha256>  <name>` per artifact, after `#` lines that give what the
bits depend on: the BLAS thread-count variables (p >= 2 estimates are BLAS
matrix products, whose last bits depend on the BLAS thread count), the numpy,
scipy and BLAS versions, and numpy's SIMD baseline and the SIMD extensions
it found on this CPU.  Two checkouts give the same bits when their outputs,
run under the same BLAS setting with PYTHONPATH pointing at each checkout's
src/, are the same (`diff`).  tests/data/output_digests.txt pins the output
under OPENBLAS_NUM_THREADS=1.  The artifacts:

  crit07-seed<s>/<file>  emit_report of the criterion-07 config (regime,
                         p = 2, n = 1e5) at master seeds 424242 and 7,
                         timings.csv (wall-clock) left out;
  crit06/<file>          emit_report of the criterion-06 OU config (p = 1,
                         n = 1e3, 1e4, 1e5) with 2 replications each;
  vh-table-h0.4          the values of build_table(poly3, 0.4, -290, 290,
                         29001);
  bundle-increments      the increments of one OU simulate_bundle, n = 1e5.
"""
from __future__ import annotations

import hashlib
import os
import pathlib
import sys
import tempfile

import numpy as np
import scipy

from voldeconv import (
    ExperimentConfig, OUParams, RegimeSwitchParams, build_table, builtin_kernel,
    emit_report, run_experiment, simulate_bundle,
)

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

OU = OUParams(a=2.0, mu=0.0, b=2.0)
REGIME = RegimeSwitchParams(a0=1.0, a1=1.0, ou0=OUParams(4.0, -2.0, 1.0),
                            ou1=OUParams(4.0, 2.0, 1.0))


def criterion_07(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        model="regime", params=REGIME, n_schedule=(100_000,), delta_exp=0.75,
        gamma=17.0, times=(1.0, 1.05), grid_spec="auto", replications=1,
        master_seed=seed,
    )


def criterion_06() -> ExperimentConfig:
    return ExperimentConfig(
        model="ou", params=OU, n_schedule=(1_000, 10_000, 100_000), delta_exp=0.5,
        gamma=9.0, times=(1.0,), grid_spec="auto", replications=2,
        master_seed=20260816,
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def blas_environment() -> list:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    lines = [f"# {var}={os.environ.get(var, 'unset')}" for var in BLAS_VARS]
    lines.append(f"# numpy {np.__version__}")
    lines.append(f"# scipy {scipy.__version__}")
    lines.append(f"# blas {blas.get('name')} {blas.get('version')}")
    lines.append(f"# simd baseline {' '.join(simd.get('baseline', []))} "
                 f"found {' '.join(simd.get('found', []))}")
    lines.append(f"# cpu_count {os.cpu_count()}")
    return lines


def report_digests(prefix: str, cfg: ExperimentConfig, tmp: str) -> list:
    out = pathlib.Path(tmp, prefix)
    emit_report(run_experiment(cfg), str(out))
    return [
        (sha256(path.read_bytes()), f"{prefix}/{path.relative_to(out).as_posix()}")
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "timings.csv"
    ]


def digests() -> list:
    """(sha256, name) per artifact, in a fixed order."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (424242, 7):
            out += report_digests(f"crit07-seed{seed}", criterion_07(seed), tmp)
        out += report_digests("crit06", criterion_06(), tmp)
    table = build_table(builtin_kernel("poly3"), 0.4, -290.0, 290.0, 29001)
    out.append((sha256(table.values.tobytes()), "vh-table-h0.4"))
    bundle = simulate_bundle("ou", OU, 100_000, 100_000**-0.5, seed=20260816)
    out.append((sha256(bundle.increments.tobytes()), "bundle-increments"))
    return out


def main() -> int:
    for line in blas_environment():
        print(line)
    for digest, name in digests():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
