"""Write the package's Gauss-Legendre rules file from numpy's leggauss.

    python3 tools/gauss_legendre_rules.py

leggauss(n) builds a rule by a dense n x n eigen-solve, about a second for
the package's five sizes together, so src/voldeconv/gauss_legendre_rules.npz
ships its output instead: arrays nodes<n> and weights<n> for each n in SIZES,
bit for bit what leggauss(n) returned here, plus, as 0-d strings, the
environment they were made under (the fields of environment()).  Every zip
entry carries a fixed date, so re-running the tool under the same numpy and
LAPACK writes the same bytes.  quadrature.gauss_legendre reads a shipped
rule and builds any other size with leggauss; tests/test_quadrature.py holds
each shipped rule to leggauss bit for bit where the running environment is
the stored one.  Run the tool again when the package asks for a new size.
"""
from __future__ import annotations

import io
import pathlib
import sys
import zipfile

import numpy as np

# 256: w (smoothing_kernel); 400 and 2000: truth moments and mass outside the
# grid box for p >= 2 and p = 1 (experiment); 512: v_h (deconv_kernel);
# 800: TruthDensity.mass (analytic_truth)
SIZES = (256, 400, 512, 800, 2000)
PATH = pathlib.Path(__file__).resolve().parents[1] / "src" / "voldeconv" / "gauss_legendre_rules.npz"


def environment() -> dict:
    """What leggauss's bits depend on: the numpy version, the BLAS and LAPACK
    lines (name and version) and numpy's SIMD lists, as tools/output_digests.py
    prints them."""
    config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    simd = config.get("SIMD Extensions", {})
    env = {"numpy": np.__version__}
    for lib in ("blas", "lapack"):
        env[lib] = f"{deps.get(lib, {}).get('name')} {deps.get(lib, {}).get('version')}"
    env["simd"] = (f"baseline {' '.join(simd.get('baseline', []))} "
                   f"found {' '.join(simd.get('found', []))}")
    return env


def rules() -> dict:
    """The arrays the file holds: nodes<n>, weights<n> and the environment."""
    out = {name: np.array(value) for name, value in environment().items()}
    for n in SIZES:
        out[f"nodes{n}"], out[f"weights{n}"] = np.polynomial.legendre.leggauss(n)
    return out


def main() -> int:
    with zipfile.ZipFile(PATH, "w") as archive:
        for name, array in rules().items():
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, array, allow_pickle=False)
            archive.writestr(zipfile.ZipInfo(f"{name}.npy", (1980, 1, 1, 0, 0, 0)),
                             buffer.getvalue())
    print(f"wrote {PATH} ({PATH.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
