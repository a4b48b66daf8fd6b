"""tools/stage_memory.py: one line per config and stage, in order, and each
config's fresh-process peak RSS, wall seconds and scipy.signal import, then
the process's peak RSS, at a small n."""

import os
import pathlib
import re
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_STAGES = ("resolve_grid", "table_for_axes", "simulate_bundle", "observe", "estimate_density",
           "compute_mise", "emit_report")


def test_stage_lines_have_the_format():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "stage_memory.py"), "--n", "2000"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    expected = [(cfg, stage) for cfg in ("crit06", "crit07") for stage in _STAGES + ("run",)]
    assert len(lines) == len(expected) + 1
    for line, (cfg, stage) in zip(lines, expected):
        if stage == "run":
            match = re.fullmatch(
                rf"{cfg} run_experiment ru_maxrss (\d+\.\d) MB wall (\d+\.\d\d) s "
                r"scipy.signal (yes|no)", line)
            assert match and float(match.group(1)) > 0.0 and float(match.group(2)) > 0.0, line
            assert match.group(3) == "no", line  # the OU filter loads its core alone
            continue
        match = re.fullmatch(rf"{cfg} {stage} (\d+\.\d\d) MB", line)
        assert match, line
        assert float(match.group(1)) < 100.0  # a stage at n = 2000 holds a few MB
    match = re.fullmatch(r"process ru_maxrss (\d+\.\d) MB", lines[-1])
    assert match and float(match.group(1)) > 0.0, lines[-1]
