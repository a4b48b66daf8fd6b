"""sha256 digests of the package's deterministic artifacts, one line each.

    PYTHONPATH=src python3 tools/output_digests.py > digests.txt

Prints `<sha256>  <name>` per artifact, after `#` lines that give what the
bits depend on: the BLAS thread-count variables (p >= 2 estimates are BLAS
matrix products, whose last bits depend on the BLAS thread count), the numpy,
scipy and BLAS versions, and numpy's SIMD baseline and the SIMD extensions
it found on this CPU (the numpy, BLAS and SIMD lines are
gauss_legendre_rules.environment()'s, the fingerprint the rules file stores).
Two checkouts give the same bits when their outputs,
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
  bundle-increments      the increments of one OU simulate_bundle, n = 1e5;
  bundle-sigma2          the same bundle's sigma^2 path (.sigma2);
  ou-n500-set/<file>     emit_report of an n = 500 OU config that sets
                         bandwidth, kernel and subgrid_ratio = 10, so that
                         config.echo carries every optional key;
  cli/<file>             the files voldeconv.cli.main writes with --out:
                         kernel-table (w, and v_h at -h 0.8), simulate
                         (n = 2000 OU increments and their .meta.json),
                         estimate on those increments at p = 1, at p = 2
                         and at p = 1 with gamma = 2 under a --bandwidth
                         override (a schedule warning on stderr), OU
                         truth at p = 2, and regime truth at p = 1 and
                         p = 2, the last also on a 201 x 201 grid that
                         grid_values evaluates in several blocks;
  ou-n500-warn/<file>    emit_report of an n = 500 OU config with gamma = 2
                         <= 4p/delta_exp = 8, so that config.echo carries a
                         schedule `# warning:` line.
"""
from __future__ import annotations

import hashlib
import os
import pathlib
import sys
import tempfile

import scipy
from gauss_legendre_rules import environment  # this directory, sys.path[0]

from voldeconv import (
    ExperimentConfig, OUParams, RegimeSwitchParams, build_table, builtin_kernel,
    emit_report, run_experiment, simulate_bundle,
)
from voldeconv.cli import main as cli_main

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


def ou_optional_keys() -> ExperimentConfig:
    return ExperimentConfig(
        model="ou", params=OU, n_schedule=(500,), delta_exp=0.5, gamma=9.0,
        times=(1.0,), grid_spec="auto", replications=2, master_seed=11,
        kernel_name="poly3", bandwidth_override=0.5, subgrid_ratio=10,
    )


def ou_schedule_warning() -> ExperimentConfig:
    return ExperimentConfig(
        model="ou", params=OU, n_schedule=(500,), delta_exp=0.5, gamma=2.0,
        times=(1.0,), grid_spec="auto", replications=2, master_seed=13,
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def blas_environment() -> list:
    env = environment()  # the numpy, BLAS and SIMD lines the rules file stores too
    lines = [f"# {var}={os.environ.get(var, 'unset')}" for var in BLAS_VARS]
    lines.append(f"# numpy {env['numpy']}")
    lines.append(f"# scipy {scipy.__version__}")
    lines.append(f"# blas {env['blas']}")
    lines.append(f"# simd {env['simd']}")
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


def cli_digests(tmp: str) -> list:
    out = pathlib.Path(tmp, "cli")
    out.mkdir()
    params = out / "ou.params"
    params.write_text("a = 2.0\nmu = 0.0\nb = 2.0\n", encoding="utf-8")
    regime = out / "regime.params"  # REGIME in the flat format
    regime.write_text("a = 4.0\nb = 1.0\nmu0 = -2.0\nmu1 = 2.0\na0 = 1.0\na1 = 1.0\n",
                      encoding="utf-8")
    inc = str(out / "simulate-n2000.txt")
    runs = (
        ["kernel-table", "--out", str(out / "kernel-table-w.csv")],
        ["kernel-table", "--deconv", "-h", "0.8", "--out", str(out / "kernel-table-vh-h0.8.csv")],
        ["simulate", "--model", "ou", "--params", str(params), "--n", "2000",
         "--delta", "0.02", "--seed", "7", "--out", inc],
        ["estimate", "--input", inc, "--delta", "0.02", "--times", "1.0", "--gamma", "9.0",
         "--grid=-6:6:25", "--out", str(out / "estimate.csv")],
        ["estimate", "--input", inc, "--delta", "0.02", "--times", "1.0,1.25", "--gamma", "16.0",
         "--grid=-6:6:13,-5:5:11", "--out", str(out / "estimate-p2.csv")],
        ["estimate", "--input", inc, "--delta", "0.02", "--times", "1.0", "--gamma", "2.0",
         "--bandwidth", "1.5", "--grid=-6:6:25", "--out", str(out / "estimate-override.csv")],
        ["truth", "--model", "ou", "--params", str(params), "--times", "1.0,1.5",
         "--grid=-3:3:21", "--out", str(out / "truth-p2.csv")],
        ["truth", "--model", "regime", "--params", str(regime), "--times", "1.0",
         "--grid=-8:8:65", "--out", str(out / "truth-regime-p1.csv")],
        ["truth", "--model", "regime", "--params", str(regime), "--times", "1.0,1.05",
         "--grid=-8:8:33,-7:7:29", "--out", str(out / "truth-regime-p2.csv")],
        ["truth", "--model", "regime", "--params", str(regime), "--times", "1.0,1.05",
         "--grid=-8:8:201", "--out", str(out / "truth-regime-p2-blocks.csv")],
    )
    for argv in runs:
        if cli_main(argv) != 0:
            raise RuntimeError(f"voldeconv {argv[0]} failed")
    params.unlink()
    regime.unlink()
    return [(sha256(path.read_bytes()), f"cli/{path.name}") for path in sorted(out.iterdir())]


def digests() -> list:
    """(sha256, name) per artifact, in a fixed order."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (424242, 7):
            out += report_digests(f"crit07-seed{seed}", criterion_07(seed), tmp)
        out += report_digests("crit06", criterion_06(), tmp)
        later = report_digests("ou-n500-set", ou_optional_keys(), tmp) + cli_digests(tmp)
        later += report_digests("ou-n500-warn", ou_schedule_warning(), tmp)
    table = build_table(builtin_kernel("poly3"), 0.4, -290.0, 290.0, 29001)
    out.append((sha256(table.values.tobytes()), "vh-table-h0.4"))
    bundle = simulate_bundle("ou", OU, 100_000, 100_000**-0.5, seed=20260816)
    out.append((sha256(bundle.increments.tobytes()), "bundle-increments"))
    out.append((sha256(bundle.sigma2.tobytes()), "bundle-sigma2"))
    return out + later


def main() -> int:
    for line in blas_environment():
        print(line)
    for digest, name in digests():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
