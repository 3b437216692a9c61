"""Monte Carlo throughput benchmark for hidden_ar.

Runs one workload the way ``hidden-ar montecarlo --config`` does: build the
ExperimentConfig from the workload document in perfbench/workloads/, call
``run_monte_carlo(config, threads=1)``, then ``export`` the report to a
temporary directory. The experiment is repeated until --seconds of timed
work have run, always with the same seed, so every repeat must write the
same report.json.

    python3 perfbench/run.py --workload mc_reference --seed 1 --seconds 45 --trace 0

--trace 0 prints the end-to-end metrics, measured with tracing off:

  reps_per_s   replication x horizon jobs per second of the fastest repeat
  setup_s      median over SETUP_PROBES fresh interpreters of the time from
               start to the first run_monte_carlo call (setup_probe.py)
  peak_rss_mb  peak resident memory of this process

reps_per_s takes the fastest repeat, not the median, because other tenants
of a small shared machine slow whole stretches of a run, by up to 1.8x for
20-50 s at a time. Over two series of small identical repeats (8 and 4
minutes), the quartile spread of the per-window minimum was 8% and 1% for
45 s windows, against 20-30% for the per-window median. The workload
documents keep each repeat small (80-120 ms for the two workloads in
BENCHMARK.json) so that a run holds hundreds.
The text output also gives the median and quartiles of the repeat times.

--trace 1 alternates untraced and traced repeats (see spans.py) and prints
the per-layer metrics, including the tracing overhead; the traced
report.json must match the untraced one byte for byte.

Either way the outputs are checked (check_report), failed_frac is printed,
and the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A failed check prints correct=false
and exits 1. The sources are imported from src/ next to this directory only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

from spans import LAYER_METRICS, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_DIR = os.path.join(HERE, "workloads")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("mc_reference", "mc_likelihood", "mc_pair_mle", "mc_horizons")
END_TO_END = (("reps_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

PARAMETER_ESTIMATORS = ("mme", "onestep", "mle", "bayes")
# Efficiency ratios t*var/I^{-1} are checked only where the asymptotics are
# reached: the scalar b problem at T >= 1e4. The band is RATIO_BAND_SE
# standard errors of a variance ratio from n replications, sqrt(2/(n-1)).
# The timed repeats are too small for a useful band, so one extra untimed
# run with CHECK_REPLICATIONS replications is checked as well.
RATIO_ESTIMATORS = ("onestep", "mle", "bayes")
RATIO_COORD = "b"
RATIO_MIN_T = 10_000
RATIO_BAND_SE = 5.0
CHECK_REPLICATIONS = 32


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program being wrong)."""


def import_package():
    """Import hidden_ar from this checkout's src/, never from elsewhere."""
    package_dir = os.path.join(SRC, "hidden_ar")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise BenchError(f"no hidden_ar sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import hidden_ar

    if os.path.dirname(os.path.abspath(hidden_ar.__file__)) != package_dir:
        raise BenchError(f"hidden_ar was imported from {hidden_ar.__file__}, not {package_dir}")
    return hidden_ar


def workload_document(name: str) -> dict:
    with open(os.path.join(WORKLOAD_DIR, f"{name}.json")) as fh:
        return json.load(fh)


def build_config(document: dict, seed: int):
    """The ExperimentConfig of a --config document, with the given seed."""
    hidden_ar = import_package()
    return hidden_ar.ExperimentConfig.from_dict(dict(document, seed=seed))


def rows_per_job(config) -> int:
    per_checkpoint = 0
    for name in config.estimators:
        per_checkpoint += 2 if name == "adaptive" else config.problem.dim
    return per_checkpoint * len(config.checkpoints)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_report(report: dict, config) -> list[str]:
    """Problems found in a parsed report.json; empty when it is correct."""
    problems = []
    rows = report.get("replications", [])
    expected = config.replications * len(config.horizons) * rows_per_job(config)
    if len(rows) != expected:
        problems.append(f"{len(rows)} replication rows, expected {expected}")
    for row in rows:
        label = f"{row.get('estimator')}:{row.get('coord')} T={row.get('T')} rep={row.get('rep')}"
        if row.get("estimator") == "error":
            problems.append(f"error row {label}: {row.get('message')}")
        elif not _finite(row.get("value")):
            problems.append(f"{label} value {row.get('value')!r} is not finite")
        elif row["estimator"] in PARAMETER_ESTIMATORS:
            lo, hi = config.problem.bounds[row["coord"]]
            if not lo <= row["value"] <= hi:
                problems.append(f"{label} value {row['value']!r} outside [{lo}, {hi}]")
    for cell in report.get("cells", []):
        label = f"cell {cell['estimator']}:{cell['coord']} T={cell['T']} v={cell['v']}"
        if cell["failures"]:
            problems.append(f"{label} has {cell['failures']} failures")
        if cell["n"] != config.replications:
            problems.append(f"{label} has n={cell['n']}, expected {config.replications}")
        if (
            cell["estimator"] in RATIO_ESTIMATORS
            and cell["coord"] == RATIO_COORD
            and cell["T"] >= RATIO_MIN_T
            and cell["n"] >= 2
        ):
            band = RATIO_BAND_SE * math.sqrt(2.0 / (cell["n"] - 1))
            if not (_finite(cell["ratio"]) and abs(cell["ratio"] - 1.0) <= band):
                problems.append(f"{label} ratio {cell['ratio']!r} outside 1 +- {band:.3f}")
    return problems


def has_ratio_cells(config) -> bool:
    return (
        config.problem.unknown == (RATIO_COORD,)
        and max(config.horizons) >= RATIO_MIN_T
        and any(name in RATIO_ESTIMATORS for name in config.estimators)
    )


def measure_setup(workload: str, seed: int, probes: int) -> float:
    """Median time from starting a fresh interpreter to the point where it
    would call run_monte_carlo (setup_probe.py prints "ready" there)."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("setup probe timed out") from None
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"setup probe failed with exit code {proc.returncode}")
        times.append(ready - start)
    return statistics.median(times)


class Batch:
    """One run_monte_carlo + export of the workload."""

    def __init__(self, seconds: float, report_bytes: bytes, config):
        self.seconds = seconds
        self.sha256 = hashlib.sha256(report_bytes).hexdigest()
        self.size = len(report_bytes)
        report = json.loads(report_bytes)
        self.rows = len(report["replications"])
        self.errors = sum(1 for row in report["replications"] if row["estimator"] == "error")
        self.problems = check_report(report, config)


def run_batch(config, run_monte_carlo, export) -> Batch:
    out = tempfile.mkdtemp(prefix="batch-", dir=OUT_DIR)
    try:
        start = time.perf_counter()
        report = run_monte_carlo(config, threads=1)
        paths = export(report, out)
        seconds = time.perf_counter() - start
        with open(paths["json"], "rb") as fh:
            data = fh.read()
        if not os.path.isfile(paths["csv"]):
            raise BenchError("export wrote no report.csv")
    finally:
        shutil.rmtree(out)
    return Batch(seconds, data, config)


def run_batches(config, seconds: float, run_monte_carlo, export) -> list[Batch]:
    """Repeat the experiment until `seconds` of timed work have run."""
    batches = []
    while not batches or sum(b.seconds for b in batches) < seconds:
        batches.append(run_batch(config, run_monte_carlo, export))
    return batches


def measure(workload: str, document: dict, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    hidden_ar = import_package()
    os.makedirs(OUT_DIR, exist_ok=True)
    setup_s = None if trace else measure_setup(workload, seed, probes)
    config = build_config(document, seed)
    jobs = len(config.horizons) * config.replications
    lines = [f"workload {workload} seed {seed} horizons {list(config.horizons)} replications {config.replications}"]

    if trace:
        batches, metrics = _traced_run(hidden_ar, workload, config, seconds)
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    else:
        batches = run_batches(config, seconds, hidden_ar.run_monte_carlo, hidden_ar.export)
        metrics = {
            "reps_per_s": jobs / min(b.seconds for b in batches),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    problems = []
    for b in batches:
        problems += [p for p in b.problems if p not in problems]
    digests = sorted({b.sha256 for b in batches})
    if len(digests) != 1:
        problems.append(f"report.json differs between repeats of seed {seed}: {digests}")
    attempted = jobs * len(batches)
    failed = sum(b.errors for b in batches)
    if has_ratio_cells(config):
        check_config = build_config(dict(document, replications=CHECK_REPLICATIONS), seed)
        check = run_batch(check_config, hidden_ar.run_monte_carlo, hidden_ar.export)
        problems += check.problems
        attempted += len(check_config.horizons) * CHECK_REPLICATIONS
        failed += check.errors
    times = [b.seconds for b in batches]
    quartiles = statistics.quantiles(times, n=4) if len(times) >= 2 else [times[0]] * 3
    lines.append(
        f"batches {len(batches)} jobs/batch {jobs} batch_s median {statistics.median(times):.4f} "
        f"q1 {quartiles[0]:.4f} q3 {quartiles[2]:.4f} min {min(times):.4f}"
    )
    lines.append(f"report_sha256 {digests[0]}")
    for name, value in metrics.items():
        lines.append(f"{name} {value} {units[name]}")
    lines.append(f"failed_frac {failed / attempted} fraction")
    lines += [f"check failed: {p}" for p in problems[:20]]
    return {
        "lines": lines,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        },
    }


def _traced_run(hidden_ar, workload: str, config, seconds: float):
    """Alternate untraced and traced repeats until `seconds` of timed work
    have run, so both sides see the same machine load. The per-layer
    metrics come from the fastest traced repeat, for the reason reps_per_s
    uses the fastest repeat; trace.overhead_frac compares the fastest
    traced and untraced repeats."""
    tracer = Tracer()
    run_monte_carlo = tracer.wrap("harness.run_monte_carlo", hidden_ar.run_monte_carlo)
    export = tracer.wrap("harness.export", hidden_ar.export)
    untraced, traced, flat, span_ranges = [], [], [], []
    while not traced or sum(b.seconds for b in untraced + traced) < seconds:
        untraced.append(run_batch(config, hidden_ar.run_monte_carlo, hidden_ar.export))
        first = len(tracer)
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", hidden_ar.FlatLikelihood)
                traced.append(run_batch(config, run_monte_carlo, export))
        finally:
            tracer.uninstall()
        flat.append(sum(issubclass(w.category, hidden_ar.FlatLikelihood) for w in caught))
        span_ranges.append((first, len(tracer)))
    tracer.save(os.path.join(OUT_DIR, f"{workload}.spans.npz"), [lo for lo, _ in span_ranges])
    k = min(range(len(traced)), key=lambda i: traced[i].seconds)
    metrics = layer_metrics(tracer, *span_ranges[k], flat[k], traced[k].rows, traced[k].size)
    metrics["trace.overhead_frac"] = traced[k].seconds / min(b.seconds for b in untraced) - 1.0
    return untraced + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    try:
        outcome = measure(args.workload, workload_document(args.workload), args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
