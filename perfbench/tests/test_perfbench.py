"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest perfbench/tests
"""
import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.SIZES["small"]
COMPUTED_COUNTS = ("vol_sim.fine_steps", "estimator.kernel_evals",
                   "deconv_kernel.build_table.points",
                   "deconv_kernel.vh_quadrature.points",
                   "deconv_kernel.fallback_points")


def _calls(name, scratch, calls=2, seed=7):
    return [workloads.WORKLOADS[name](seed, i, SMALL, str(scratch))[1] for i in range(calls)]


def test_every_wrapped_site_exists():
    for owner, attr, _ in tracing.SITES:
        inspect.getattr_static(tracing.resolve_owner(owner), attr)


def _site_values(sites):
    return [inspect.getattr_static(tracing.resolve_owner(o), a) for o, a, _ in sites]


def test_uninstall_restores_every_site():
    before = _site_values(tracing.SITES)
    with tracing.Tracer():
        assert not any(x is y for x, y in zip(before, _site_values(tracing.SITES)))
    assert all(x is y for x, y in zip(before, _site_values(tracing.SITES)))


def test_install_fails_loudly_on_a_missing_site(monkeypatch):
    sites = tracing.SITES
    before = _site_values(sites)
    monkeypatch.setattr(tracing, "SITES", sites + (
        ("voldeconv.experiment", "no_such_function", "experiment.missing"),))
    with pytest.raises(AttributeError, match="no_such_function"):
        tracing.Tracer().install()
    assert all(x is y for x, y in zip(before, _site_values(sites)))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_outputs_bit_identical_and_counts_repeat(name, tmp_path):
    plain = _calls(name, tmp_path)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            traced = _calls(name, tmp_path)
        assert json.dumps(traced) == json.dumps(plain)
        counts.append({k: tracer.counts[k] for k in COMPUTED_COUNTS})
        assert tracer.layer_metrics().keys() == tracing.LAYER_UNITS.keys()
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_invariants_hold_at_small_size(name, tmp_path):
    for i, out in enumerate(_calls(name, tmp_path)):
        failed = [k for k, ok in workloads.check(name, out, False, i, "small", None) if not ok]
        assert not failed


def test_reference_checks_catch_a_changed_output():
    refs = workloads.load_references()
    own = refs["mc-marginal"]["default_seed"][0]
    out = dict(own, grid_finite=1.0, zero_ise=1.0, mise=own["mise"] + 2e-6)
    checks = dict(workloads.check("mc-marginal", out, True, 0, "full", refs))
    assert checks["ref_bias_center"] and not checks["ref_mise"]
    # a non-default seed is held to the invariants only
    assert "ref_mise" not in dict(workloads.check("mc-marginal", out, False, 0, "full", refs))


def test_benchmark_json_names_match_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert {m["name"] for m in spec["end_to_end"]} == set(run.DIRECTION)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()


def test_runner_refuses_without_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-identity",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
