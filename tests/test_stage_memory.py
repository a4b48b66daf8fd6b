"""tools/stage_memory.py: one line per config and stage, in order, then the
process's peak RSS, at a small n."""

import os
import pathlib
import re
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_STAGES = ("resolve_grid", "table_for_axes", "simulate_bundle", "estimate_density",
           "compute_mise", "emit_report")


def test_stage_lines_have_the_format():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "stage_memory.py"), "--n", "2000"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    expected = [(cfg, stage) for cfg in ("crit06", "crit07") for stage in _STAGES]
    assert len(lines) == len(expected) + 1
    for line, (cfg, stage) in zip(lines, expected):
        match = re.fullmatch(rf"{cfg} {stage} (\d+\.\d\d) MB", line)
        assert match, line
        assert float(match.group(1)) < 100.0  # a stage at n = 2000 holds a few MB
    match = re.fullmatch(r"process ru_maxrss (\d+\.\d) MB", lines[-1])
    assert match and float(match.group(1)) > 0.0, lines[-1]
