"""tools/output_digests.py: its line format and names, and its digests held
to the ones pinned in tests/data/output_digests.txt.  The tool runs once,
under OPENBLAS_NUM_THREADS=1, since the p >= 2 bits depend on the BLAS
thread count; the pin is skipped where the numpy, scipy, BLAS or SIMD
environment differs from the one it was made under."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_PINNED = _ROOT / "tests" / "data" / "output_digests.txt"


@pytest.fixture(scope="module")
def tool_lines():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "output_digests.py")],
        capture_output=True, text=True, env=env, timeout=600, check=True,
    )
    return proc.stdout.splitlines()


def _split(lines):
    """({field: header line}, digest lines) of the tool's output."""
    header = {re.split("[ =]", line[2:])[0]: line for line in lines if line.startswith("# ")}
    return header, [line for line in lines if not line.startswith("#")]


def test_digest_lines_have_the_format_and_unique_names(tool_lines):
    header, body = _split(tool_lines)
    assert tool_lines[: len(header)] == list(header.values())
    assert header["OPENBLAS_NUM_THREADS"] == "# OPENBLAS_NUM_THREADS=1"
    names = []
    for line in body:
        match = re.fullmatch(r"([0-9a-f]{64})  (\S+)", line)
        assert match, line
        names.append(match.group(2))
    assert len(names) == len(set(names))
    for seed in (424242, 7):
        assert {f"crit07-seed{seed}/records.csv", f"crit07-seed{seed}/config.echo",
                f"crit07-seed{seed}/grids/n100000_rep0.csv"} <= set(names)
    assert "crit06/grids/n100000_rep1.csv" in names
    assert {"vh-table-h0.4", "bundle-increments", "bundle-sigma2"} <= set(names)
    assert "ou-n500-set/config.echo" in names
    assert {"ou-n500-warn/config.echo", "ou-n500-warn/records.csv"} <= set(names)
    assert {"cli/kernel-table-w.csv", "cli/kernel-table-vh-h0.8.csv", "cli/simulate-n2000.txt",
            "cli/simulate-n2000.txt.meta.json", "cli/estimate.csv", "cli/estimate-p2.csv",
            "cli/estimate-override.csv", "cli/truth-p2.csv", "cli/truth-regime-p1.csv",
            "cli/truth-regime-p2.csv", "cli/truth-regime-p2-blocks.csv"} <= set(names)
    assert not any(name.endswith("timings.csv") for name in names)


def test_digests_equal_the_pinned_ones(tool_lines):
    header, body = _split(tool_lines)
    pinned_header, pinned_body = _split(_PINNED.read_text().splitlines())
    for field in ("numpy", "scipy", "blas", "simd"):
        if header.get(field) != pinned_header[field]:
            pytest.skip(f"{field} differs from the pinned run: {header.get(field)!r}, "
                        f"pinned {pinned_header[field]!r}")
    changed = [line.split()[-1] for line in pinned_body if line not in body]
    assert body == pinned_body, f"digests differ from {_PINNED.name} at {changed}"
