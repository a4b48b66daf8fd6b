"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files only: each site below is a
module attribute that a public entry point calls through, and tracing swaps
it for a timing wrapper and restores it afterwards.  Nothing in the library
is edited.  A site whose attribute no longer exists raises AttributeError on
install, so a rename in the library fails loudly instead of silently
dropping a span.

Every wrapper returns the wrapped function's result unchanged; the traced
run checks that its outputs are bit-identical to an untraced run.
"""
from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

# (owner, attribute, span name).  The owner is a module path, or a module
# path plus a class name for classmethods.  The span name is the layer
# (module) that does the work, dotted with the function name.
SITES = (
    ("voldeconv.experiment", "run_experiment", "experiment.run_experiment"),
    ("voldeconv.experiment", "bias_check", "experiment.bias_check"),
    ("voldeconv.experiment", "emit_report", "experiment.emit_report"),
    ("voldeconv.experiment", "resolve_grid", "experiment.resolve_grid"),
    ("voldeconv.experiment", "kernel_moments", "smoothing_kernel.kernel_moments"),
    ("voldeconv.experiment", "table_for_axes", "experiment.table_for_axes"),
    ("voldeconv.experiment", "compute_mise", "experiment.compute_mise"),
    ("voldeconv.experiment", "simulate_bundle", "vol_sim.simulate_bundle"),
    ("voldeconv.experiment", "estimate_density", "estimator.estimate_density"),
    ("voldeconv.experiment", "build_table", "deconv_kernel.build_table"),
    ("voldeconv.estimator:ObservationSet", "from_increments", "estimator.from_increments"),
    ("voldeconv.estimator", "eval_table", "deconv_kernel.eval_table"),
    ("voldeconv.deconv_kernel", "build_table", "deconv_kernel.build_table"),
    ("voldeconv.deconv_kernel", "vh_quadrature", "deconv_kernel.vh_quadrature"),
    ("voldeconv.deconv_kernel", "phi_k", "noise_model.phi_k"),
    ("voldeconv.vol_sim", "simulate_ou", "vol_sim.simulate_ou"),
    ("voldeconv.vol_sim", "simulate_regime_switch", "vol_sim.simulate_regime_switch"),
    ("voldeconv.vol_sim", "integrate_price", "vol_sim.integrate_price"),
)

# Entry points whose self time (span minus its traced children) is reported
# as experiment.self_s.
_ENTRY_SPANS = ("experiment.run_experiment", "experiment.bias_check")


def resolve_owner(owner: str):
    """The module (or class inside a module) named by a SITES owner."""
    module_path, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_path)
    return getattr(obj, class_name) if class_name else obj


def _count_bundle(tr, args, out):
    # computed from array sizes, not measured
    tr.add("vol_sim.fine_steps", out.sigma2.size)
    tr.add("vol_sim.bundle_bytes", out.sigma2.nbytes + out.increments.nbytes)


def _count_estimate(tr, args, out):
    obs, axes = args["obs"], args["axes"]
    tr.add("estimator.kernel_evals", obs.m * sum(int(np.size(a)) for a in axes))


def _count_obs(tr, args, out):
    tr.add("estimator.clamped", out.n_clamped)


def _count_eval_table(tr, args, out):
    tr.add("deconv_kernel.eval_table.points", int(np.size(args["x"])))


def _count_vh(tr, args, out):
    pts = int(np.size(args["x"]))
    tr.add("deconv_kernel.vh_quadrature.points", pts)
    # the slow path: exact quadrature for arguments off the table lattice
    if tr.active("deconv_kernel.eval_table"):
        tr.add("deconv_kernel.fallback_points", pts)


def _count_build_table(tr, args, out):
    tr.add("deconv_kernel.build_table.points", int(args["n_points"]))


def _count_emit(tr, args, out):
    tr.add("experiment.emit_report.bytes", sum(os.path.getsize(p) for p in out))


_COUNTERS = {
    "vol_sim.simulate_bundle": _count_bundle,
    "estimator.estimate_density": _count_estimate,
    "estimator.from_increments": _count_obs,
    "deconv_kernel.eval_table": _count_eval_table,
    "deconv_kernel.vh_quadrature": _count_vh,
    "deconv_kernel.build_table": _count_build_table,
    "experiment.emit_report": _count_emit,
}


class Tracer:
    """In-memory spans and counts; install() wraps SITES, uninstall() restores."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self._stack = []  # indices into spans of the open spans
        self._saved = []  # (owner, attribute, original raw attribute)

    def add(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def active(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, fn, name):
        counter = _COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments, out)
            return out

        return wrapper

    def install(self) -> None:
        try:
            for owner_name, attr, name in SITES:
                owner = resolve_owner(owner_name)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def total(self, name: str) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def self_time(self, names) -> float:
        child = defaultdict(float)
        for _, s, e, parent in self.spans:
            if parent >= 0:
                child[parent] += e - s
        return sum(
            (e - s) - child[i]
            for i, (n, s, e, _) in enumerate(self.spans)
            if n in names
        )

    def layer_metrics(self) -> dict:
        """Per-layer values, keyed as in LAYER_UNITS."""
        c = self.counts
        t = self.total
        est_s = t("estimator.estimate_density")
        vh_s = t("deconv_kernel.vh_quadrature")
        vh_points = c["deconv_kernel.vh_quadrature.points"]
        evals = c["deconv_kernel.eval_table.points"]
        return {
            "experiment.resolve_grid.s": t("experiment.resolve_grid"),
            "smoothing_kernel.kernel_moments.s": t("smoothing_kernel.kernel_moments"),
            "experiment.table_for_axes.s": t("experiment.table_for_axes"),
            "experiment.compute_mise.s": t("experiment.compute_mise"),
            "experiment.emit_report.s": t("experiment.emit_report"),
            "experiment.emit_report.bytes": c["experiment.emit_report.bytes"],
            "experiment.self_s": self.self_time(_ENTRY_SPANS),
            "vol_sim.simulate_bundle.s": t("vol_sim.simulate_bundle"),
            "vol_sim.simulate_ou.s": t("vol_sim.simulate_ou"),
            "vol_sim.simulate_regime_switch.s": t("vol_sim.simulate_regime_switch"),
            "vol_sim.integrate_price.s": t("vol_sim.integrate_price"),
            "vol_sim.fine_steps": c["vol_sim.fine_steps"],
            "vol_sim.bundle_bytes": c["vol_sim.bundle_bytes"],
            "estimator.from_increments.s": t("estimator.from_increments"),
            "estimator.estimate_density.s": est_s,
            "estimator.kernel_evals": c["estimator.kernel_evals"],
            "estimator.kernel_evals_per_s": c["estimator.kernel_evals"] / est_s if est_s else 0.0,
            "estimator.clamped": c["estimator.clamped"],
            "deconv_kernel.build_table.s": t("deconv_kernel.build_table"),
            "deconv_kernel.build_table.points": c["deconv_kernel.build_table.points"],
            "deconv_kernel.vh_quadrature.s": vh_s,
            "deconv_kernel.vh_quadrature.points": vh_points,
            "deconv_kernel.vh_quadrature.points_per_s": vh_points / vh_s if vh_s else 0.0,
            "deconv_kernel.eval_table.calls": self.calls("deconv_kernel.eval_table"),
            "deconv_kernel.fallback_points": c["deconv_kernel.fallback_points"],
            # share of all points passed to eval_table that fell off the lattice
            "deconv_kernel.fallback_frac": c["deconv_kernel.fallback_points"] / evals if evals else 0.0,
            "noise_model.phi_k.calls": self.calls("noise_model.phi_k"),
            "noise_model.phi_k.s": t("noise_model.phi_k"),
        }


# Unit of each per-layer metric.  Times are inclusive span totals; counts
# marked "computed" in README.md come from array sizes, not measurement.
LAYER_UNITS = {
    "experiment.resolve_grid.s": "s",
    "smoothing_kernel.kernel_moments.s": "s",
    "experiment.table_for_axes.s": "s",
    "experiment.compute_mise.s": "s",
    "experiment.emit_report.s": "s",
    "experiment.emit_report.bytes": "bytes",
    "experiment.self_s": "s",
    "vol_sim.simulate_bundle.s": "s",
    "vol_sim.simulate_ou.s": "s",
    "vol_sim.simulate_regime_switch.s": "s",
    "vol_sim.integrate_price.s": "s",
    "vol_sim.fine_steps": "count",
    "vol_sim.bundle_bytes": "bytes",
    "estimator.from_increments.s": "s",
    "estimator.estimate_density.s": "s",
    "estimator.kernel_evals": "count",
    "estimator.kernel_evals_per_s": "1/s",
    "estimator.clamped": "count",
    "deconv_kernel.build_table.s": "s",
    "deconv_kernel.build_table.points": "count",
    "deconv_kernel.vh_quadrature.s": "s",
    "deconv_kernel.vh_quadrature.points": "count",
    "deconv_kernel.vh_quadrature.points_per_s": "1/s",
    "deconv_kernel.eval_table.calls": "count",
    "deconv_kernel.fallback_points": "count",
    "deconv_kernel.fallback_frac": "ratio",
    "noise_model.phi_k.calls": "count",
    "noise_model.phi_k.s": "s",
}
