"""Span tracer for the benchmark's traced run.

The tracer rebinds, at run time, every public function of a hidden_ar layer
module in the other layer modules that imported it (for example
``hidden_ar.harness.one_step_scalar`` or ``hidden_ar.onestep.filter_derivative``),
plus the two same-module call sites the per-layer metrics need:
``harness.run_replication``, which tags nested spans with the replication's
stream id, and ``likelihood.log_likelihood``, which counts grid evaluations.
Nothing under ``src/`` is edited; ``uninstall`` restores the originals.

Spans are kept in memory as columns (name, parent, replication, start, end
and two per-span counters) and written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "simulator",
    "moments",
    "onestep",
    "kalman",
    "adaptive",
    "likelihood",
    "model_core",
    "harness",
)
SAME_MODULE_CALLS = (("harness", "run_replication"), ("likelihood", "log_likelihood"))


def _filter_points(trace):
    return len(trace.m), 0


def _path_rows(trace):
    return len(trace.path), int(trace.clipped.sum())


# Per-span counters (a, b), read from the traced function's result.
COUNTERS = {
    "simulator.simulate": lambda traj: (2 * traj.horizon + 3, 0),
    "moments.mme": lambda est: (int(bool(est.clip_flags)), int(bool(est.degenerate))),
    "onestep.one_step_scalar": _path_rows,
    "onestep.one_step_pair": _path_rows,
    "kalman.filter_stationary": _filter_points,
    "kalman.filter_derivative": _filter_points,
    "kalman.filter_transient": _filter_points,
}

# Every per-layer metric: (name, unit, better, the end-to-end metric and
# workload it should move). BENCHMARK.json lists the first three fields.
LAYER_METRICS = (
    ("simulator.calls", "count", "lower", "reps_per_s on mc_horizons"),
    ("simulator.busy_s", "s", "lower", "reps_per_s on mc_horizons"),
    ("simulator.samples", "count", "lower", "reps_per_s on mc_horizons"),
    ("moments.calls", "count", "lower", "reps_per_s on mc_horizons"),
    ("moments.busy_s", "s", "lower", "reps_per_s on mc_horizons"),
    ("moments.prelim_clipped", "count", "lower", "reps_per_s on mc_horizons"),
    ("moments.degenerate", "count", "lower", "reps_per_s on mc_horizons"),
    ("onestep.calls", "count", "lower", "reps_per_s on mc_reference"),
    ("onestep.busy_s", "s", "lower", "reps_per_s on mc_reference"),
    ("onestep.self_s", "s", "lower", "reps_per_s on mc_reference"),
    ("onestep.p50_ms", "ms", "lower", "reps_per_s on mc_reference"),
    ("onestep.rows", "count", "lower", "reps_per_s on mc_reference"),
    ("onestep.rows_clipped", "count", "lower", "reps_per_s on mc_reference"),
    ("kalman.calls", "count", "lower", "reps_per_s on mc_likelihood, mc_pair_mle"),
    ("kalman.busy_s", "s", "lower", "reps_per_s on mc_likelihood, mc_pair_mle"),
    ("kalman.points", "count", "lower", "reps_per_s on mc_likelihood, mc_pair_mle"),
    ("kalman.p50_us", "us", "lower", "reps_per_s on mc_likelihood, mc_pair_mle"),
    ("adaptive.calls", "count", "lower", "reps_per_s on mc_reference"),
    ("adaptive.busy_s", "s", "lower", "reps_per_s on mc_reference"),
    ("adaptive.self_s", "s", "lower", "reps_per_s on mc_reference"),
    ("adaptive.p50_ms", "ms", "lower", "reps_per_s on mc_reference"),
    ("likelihood.mle_calls", "count", "lower", "reps_per_s on mc_likelihood, mc_pair_mle"),
    ("likelihood.mle_busy_s", "s", "lower", "reps_per_s on mc_likelihood, mc_pair_mle"),
    ("likelihood.mle_p50_ms", "ms", "lower", "reps_per_s on mc_likelihood, mc_pair_mle"),
    ("likelihood.bayes_calls", "count", "lower", "reps_per_s on mc_likelihood"),
    ("likelihood.bayes_busy_s", "s", "lower", "reps_per_s on mc_likelihood"),
    ("likelihood.bayes_p50_ms", "ms", "lower", "reps_per_s on mc_likelihood"),
    ("likelihood.evals", "count", "lower", "reps_per_s on mc_likelihood, mc_pair_mle"),
    ("likelihood.self_s", "s", "lower", "reps_per_s on mc_likelihood, mc_pair_mle"),
    ("likelihood.flat_warnings", "count", "lower", "reps_per_s on mc_likelihood, mc_pair_mle"),
    ("model_core.stationary_calls", "count", "lower", "reps_per_s on mc_pair_mle"),
    ("model_core.busy_s", "s", "lower", "reps_per_s on mc_pair_mle"),
    ("harness.run_s", "s", "lower", "reps_per_s on mc_reference"),
    ("harness.self_s", "s", "lower", "reps_per_s on mc_reference"),
    ("harness.rows", "count", "higher", "reps_per_s on mc_reference"),
    ("harness.export_s", "s", "lower", "reps_per_s on mc_reference"),
    ("harness.report_bytes", "B", "lower", "peak_rss_mb on mc_horizons"),
    ("trace.overhead_frac", "fraction", "lower", "none: traced against untraced reps_per_s"),
)


class Tracer:
    """Records one span per call into a layer's public function."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.rep = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count_a = array("d")
        self.count_b = array("d")
        self._stack: list[int] = []
        self._current_rep = -1
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, span_name: str, fn):
        """Return fn wrapped so each call records a span named span_name."""
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self._name_ids[span_name]
        counter = COUNTERS.get(span_name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.rep.append(self._current_rep)
            self.end.append(0.0)
            self.count_a.append(0.0)
            self.count_b.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                self.count_a[idx], self.count_b[idx] = counter(result)
            return result

        return traced

    def _wrap_replication(self, fn):
        traced = self.wrap("harness.run_replication", fn)

        def run_replication(config, horizon_index, rep):
            self._current_rep = horizon_index * config.replications + rep
            try:
                return traced(config, horizon_index, rep)
            finally:
                self._current_rep = -1

        return run_replication

    def install(self) -> None:
        """Rebind the layer functions in the modules that call them."""
        modules = {layer: importlib.import_module(f"hidden_ar.{layer}") for layer in LAYERS}
        owners = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__:
                    owners[obj] = (layer, attr)
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj not in owners:
                    continue
                owner_layer, fn_name = owners[obj]
                if owner_layer == layer and (layer, attr) not in SAME_MODULE_CALLS:
                    continue
                if (layer, attr) == ("harness", "run_replication"):
                    wrapper = self._wrap_replication(obj)
                else:
                    wrapper = self.wrap(f"{owner_layer}.{fn_name}", obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def columns(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        hi = len(self) if hi is None else hi
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64)
        return {
            "name": np.asarray(self.name[lo:hi], dtype=np.int64),
            "parent": np.where(parent >= 0, parent - lo, -1),
            "rep": np.asarray(self.rep[lo:hi], dtype=np.int64),
            "start": np.asarray(self.start[lo:hi]),
            "end": np.asarray(self.end[lo:hi]),
            "count_a": np.asarray(self.count_a[lo:hi]),
            "count_b": np.asarray(self.count_b[lo:hi]),
        }

    def save(self, path: str, batch_starts) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            batch_starts=np.asarray(batch_starts, dtype=np.int64),
            **self.columns(),
        )


def layer_metrics(tracer: Tracer, lo: int, hi: int, flat_warnings: int, rows: int, report_bytes: int) -> dict:
    """Per-layer metrics of the spans lo..hi (one traced batch), keyed by
    the names in LAYER_METRICS except trace.overhead_frac."""
    col = tracer.columns(lo, hi)
    span_names = np.array(tracer.names)[col["name"]]
    layer = np.array([name.partition(".")[0] for name in span_names])
    duration = col["end"] - col["start"]
    parent = col["parent"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    self_time = duration - child_time
    parent_layer = np.where(nested, layer[np.maximum(parent, 0)], "")
    outer = parent_layer != layer

    def named(*names):
        return np.isin(span_names, names)

    def in_layer(name):
        return layer == name

    def p50(mask, scale):
        return float(np.median(duration[mask])) * scale if mask.any() else 0.0

    sim = in_layer("simulator") & outer
    mom = in_layer("moments") & outer
    one = in_layer("onestep") & outer
    kal = in_layer("kalman") & outer
    ada = named("adaptive.adaptive_filter")
    mle = named("likelihood.mle")
    bay = named("likelihood.bayes")
    core = in_layer("model_core") & outer
    run = named("harness.run_monte_carlo")
    return {
        "simulator.calls": int(sim.sum()),
        "simulator.busy_s": float(duration[sim].sum()),
        "simulator.samples": int(col["count_a"][sim].sum()),
        "moments.calls": int(mom.sum()),
        "moments.busy_s": float(duration[mom].sum()),
        "moments.prelim_clipped": int(col["count_a"][named("moments.mme")].sum()),
        "moments.degenerate": int(col["count_b"][named("moments.mme")].sum()),
        "onestep.calls": int(one.sum()),
        "onestep.busy_s": float(duration[one].sum()),
        "onestep.self_s": float(self_time[in_layer("onestep")].sum()),
        "onestep.p50_ms": p50(one, 1e3),
        "onestep.rows": int(col["count_a"][one].sum()),
        "onestep.rows_clipped": int(col["count_b"][one].sum()),
        "kalman.calls": int(kal.sum()),
        "kalman.busy_s": float(duration[kal].sum()),
        "kalman.points": int(col["count_a"][kal].sum()),
        "kalman.p50_us": p50(kal, 1e6),
        "adaptive.calls": int(ada.sum()),
        "adaptive.busy_s": float(duration[in_layer("adaptive") & outer].sum()),
        "adaptive.self_s": float(self_time[in_layer("adaptive")].sum()),
        "adaptive.p50_ms": p50(ada, 1e3),
        "likelihood.mle_calls": int(mle.sum()),
        "likelihood.mle_busy_s": float(duration[mle].sum()),
        "likelihood.mle_p50_ms": p50(mle, 1e3),
        "likelihood.bayes_calls": int(bay.sum()),
        "likelihood.bayes_busy_s": float(duration[bay].sum()),
        "likelihood.bayes_p50_ms": p50(bay, 1e3),
        "likelihood.evals": int(named("likelihood.log_likelihood").sum()),
        "likelihood.self_s": float(self_time[in_layer("likelihood")].sum()),
        "likelihood.flat_warnings": int(flat_warnings),
        "model_core.stationary_calls": int(named("model_core.stationary").sum()),
        "model_core.busy_s": float(duration[core].sum()),
        "harness.run_s": float(duration[run].sum()),
        "harness.self_s": float(self_time[named("harness.run_monte_carlo", "harness.run_replication")].sum()),
        "harness.rows": int(rows),
        "harness.export_s": float(duration[named("harness.export")].sum()),
        "harness.report_bytes": int(report_bytes),
    }
