"""Smoke test of tools/output_digests.py: its line format and names.  No
digest is pinned, since the p >= 2 bits depend on the BLAS thread count."""

import os
import pathlib
import re
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_digest_lines_have_the_format_and_unique_names():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "output_digests.py")],
        capture_output=True, text=True, env=env, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    comments = [line for line in lines if line.startswith("# ")]
    assert "# OPENBLAS_NUM_THREADS=" in "\n".join(comments)
    names = []
    for line in lines[len(comments):]:
        match = re.fullmatch(r"([0-9a-f]{64})  (\S+)", line)
        assert match, line
        names.append(match.group(2))
    assert len(names) == len(set(names))
    for seed in (424242, 7):
        assert {f"crit07-seed{seed}/records.csv", f"crit07-seed{seed}/config.echo",
                f"crit07-seed{seed}/grids/n100000_rep0.csv"} <= set(names)
    assert "crit06/grids/n100000_rep1.csv" in names
    assert {"vh-table-h0.4", "bundle-increments"} <= set(names)
    assert not any(name.endswith("timings.csv") for name in names)
