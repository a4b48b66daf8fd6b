"""Tests of the paired-benchmark summary in tools/bench_pairs.py."""

import importlib.util
import pathlib
import time

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {
    "ops_per_s": {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
}


LINES = {"parent": 2585, "change": 2584}


def _runs(metric, parent, change):
    """One finished run per side and pair, the given values in pair order,
    each of 12 attempted ops, none failed, on src/ of LINES[side] lines."""
    runs = []
    for side, values in (("parent", parent), ("change", change)):
        for pair, value in enumerate(values):
            result = {"attempted": 12, "failed": 0,
                      "metrics": {f"mc-joint.{metric}": {"value": value}}}
            environment = {"mc-joint": {"src_voldeconv_lines": LINES[side]}}
            runs.append({"side": side, "pair": pair, "returncode": 0, "result": result,
                         "environment": environment})
    return runs


def _entry(metric, parent, change):
    return bench_pairs.summarize(_runs(metric, parent, change), METRICS)[f"mc-joint.{metric}"]


PARENT = [1.30, 1.35, 1.38, 1.33, 1.36, 1.40, 1.31, 1.37, 1.34, 1.39]


def test_clear_win_is_resolved():
    entry = _entry("ops_per_s", PARENT, [v * 1.2 for v in PARENT])
    assert entry["change_wins"] == 10
    assert entry["gain_resolved"] and entry["within_bound"]


def test_tie_is_not_resolved_but_within_bound():
    # the change wins 5 pairs by a hair, far inside the parent's spread
    change = [v + (1e-3 if i % 2 else -1e-3) for i, v in enumerate(PARENT)]
    entry = _entry("ops_per_s", PARENT, change)
    assert entry["change_wins"] == 5
    assert not entry["gain_resolved"]
    assert entry["within_bound"]


def test_nine_wins_inside_the_spread_are_not_resolved():
    # 9/10 pairs won, but the median moves by less than the parent's q3 - q1
    change = [v + 0.005 for v in PARENT[:9]] + [PARENT[9] - 0.005]
    entry = _entry("ops_per_s", PARENT, change)
    assert entry["change_wins"] == 9
    assert not entry["gain_resolved"]


@pytest.mark.parametrize(
    "metric, factor, within",
    [("ops_per_s", 0.76, True), ("ops_per_s", 0.74, False),
     ("peak_rss_mb", 1.04, True), ("peak_rss_mb", 1.06, False)],
)
def test_regression_against_the_bound(metric, factor, within):
    # ops_per_s may fall by 25 %, peak_rss_mb rise by 5 %
    entry = _entry(metric, PARENT, [v * factor for v in PARENT])
    assert entry["change_wins"] == 0
    assert not entry["gain_resolved"]
    assert entry["within_bound"] is within


def test_lower_is_better_metrics_win_by_falling():
    entry = _entry("peak_rss_mb", PARENT, [v * 0.8 for v in PARENT])
    assert entry["change_wins"] == 10
    assert entry["gain_resolved"] and entry["within_bound"]


def test_failed_runs_and_metrics_without_a_direction_are_left_out():
    runs = _runs("ops_per_s", PARENT, PARENT) + _runs("setup.s", PARENT, PARENT)
    runs[12]["result"] = None  # the change's third run failed
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["mc-joint.ops_per_s"]["pairs"] == 9
    assert "gain_resolved" not in summary["mc-joint.setup.s"]


def test_ops_and_failed_runs_are_totalled_for_each_side():
    runs = _runs("ops_per_s", PARENT, PARENT)
    runs[3]["result"]["failed"] = 2  # the parent's fourth run failed 2 of its ops
    runs[12].update(returncode=1, result=None)  # the change's third run gave no result
    runs[15]["returncode"] = -9  # the change's sixth run was killed after its result line
    ops = bench_pairs.summarize(runs, METRICS)["ops"]
    assert ops == {
        "parent": {"runs": 10, "failed_runs": 0, "attempted": 120, "failed": 2},
        "change": {"runs": 10, "failed_runs": 2, "attempted": 108, "failed": 0},
    }


def test_a_side_with_no_finished_run_is_still_counted():
    runs = _runs("ops_per_s", PARENT[:2], PARENT[:2])
    for run in runs[2:]:
        run.update(returncode=1, result=None)
    summary = bench_pairs.summarize(runs, METRICS)
    assert "mc-joint.ops_per_s" not in summary
    assert summary["ops"]["change"] == {"runs": 2, "failed_runs": 2, "attempted": 0, "failed": 0}


def test_src_lines_are_given_for_each_side_that_agrees_with_itself():
    runs = _runs("ops_per_s", PARENT, PARENT)
    assert bench_pairs.summarize(runs, METRICS)["src_lines"] == LINES
    runs[3]["environment"]["mc-joint"]["src_voldeconv_lines"] = 2600  # a parent run disagrees
    for run in runs[10:]:
        run.update(returncode=1, result=None, environment={})  # no change run finished
    assert bench_pairs.summarize(runs, METRICS)["src_lines"] == {"parent": None, "change": None}
    runs[3].update(returncode=1, result=None)  # a failed run's count is not read
    assert bench_pairs.summarize(runs, METRICS)["src_lines"] == {"parent": 2585, "change": None}


def _running(pid):
    """Whether the process is alive: neither gone nor a zombie."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_a_run_past_the_time_limit_is_killed_and_counted_as_failed(tmp_path, monkeypatch):
    # the run's shell leaves a second sleep behind it, as run.py leaves its
    # worker, then becomes a sleep itself; both go when the run times out
    script = "sleep 30 & echo $! > child.pid; exec sleep 30"
    monkeypatch.setattr(bench_pairs, "COMMAND", ["sh", "-c", script])
    monkeypatch.setattr(bench_pairs, "RUN_TIMEOUT_S", 1.0)
    run = bench_pairs.run_once(str(tmp_path))
    assert (run["returncode"], run["timed_out"], run["result"]) == (None, True, None)
    assert run["wall_s"] < 10
    child = int((tmp_path / "child.pid").read_text())
    deadline = time.monotonic() + 5
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(child)
    run.update(side="change", pair=0)
    ops = bench_pairs.summarize([run], METRICS)["ops"]
    assert ops["change"] == {"runs": 1, "failed_runs": 1, "attempted": 0, "failed": 0}


def test_a_run_passes_its_extra_arguments_to_the_benchmark(tmp_path, monkeypatch):
    # the command's last line is its result: here, the arguments it was given
    monkeypatch.setattr(bench_pairs, "COMMAND", ["sh", "-c", 'printf \'{"args": "%s"}\\n\' "$*"', "sh"])
    run = bench_pairs.run_once(str(tmp_path), ["--seed", "99"])
    assert (run["returncode"], run["result"]) == (0, {"args": "--seed 99"})
