"""Self-test of the benchmark: tiny runs of every workload, the metric
contract in BENCHMARK.json, and the output checks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def tiny(workload: str) -> dict:
    """The workload document at a size that runs in a few seconds."""
    document = run.workload_document(workload)
    document["horizons"] = [200 * (k + 1) for k in range(len(document["horizons"]))]
    document["replications"] = min(document["replications"], 2)
    return document


def test_benchmark_json_matches_the_benchmark():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        row[:3] for row in LAYER_METRICS
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(workload, trace):
    outcome = run.measure(workload, tiny(workload), seed=3, seconds=0.01, trace=trace, probes=1)
    result = outcome["result"]
    assert result["correct"], outcome["lines"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert any(line.startswith("failed_frac 0.0 ") for line in outcome["lines"])


def test_check_rejects_error_row_and_nan_value():
    hidden_ar = run.import_package()
    config = run.build_config(tiny("mc_reference"), seed=3)
    report = json.loads(hidden_ar.run_monte_carlo(config).to_json())
    assert run.check_report(report, config) == []

    report["replications"][0]["value"] = float("nan")
    report["replications"][1] = {
        "estimator": "error", "coord": "", "T": 200, "v": None, "t": None,
        "rep": 1, "stream": 1, "value": None, "message": "FisherSingular: injected",
    }
    problems = run.check_report(report, config)
    assert any("not finite" in p for p in problems)
    assert any("error row" in p and "injected" in p for p in problems)


def test_check_rejects_out_of_bounds_value_and_missing_rows():
    hidden_ar = run.import_package()
    config = run.build_config(tiny("mc_reference"), seed=3)
    report = json.loads(hidden_ar.run_monte_carlo(config).to_json())
    onestep = next(row for row in report["replications"] if row["estimator"] == "onestep")
    onestep["value"] = 99.0
    report["replications"].pop()
    problems = run.check_report(report, config)
    assert any("outside [0.1, 5.0]" in p for p in problems)
    assert any("replication rows, expected" in p for p in problems)


def test_check_rejects_ratio_far_from_one():
    document = dict(run.workload_document("mc_reference"), replications=run.CHECK_REPLICATIONS)
    config = run.build_config(document, seed=3)
    cell = {
        "estimator": "onestep", "coord": "b", "T": 10000, "v": 1.0, "n": config.replications,
        "ratio": 3.5, "failures": 0,
    }
    report = {"replications": [], "cells": [cell]}
    assert any("ratio 3.5 outside" in p for p in run.check_report(report, config))
    cell["ratio"] = 1.2
    assert not any("ratio" in p for p in run.check_report(report, config))


@pytest.mark.parametrize(
    "workload, checked",
    [("mc_reference", True), ("mc_likelihood", True), ("mc_pair_mle", False), ("mc_horizons", False)],
)
def test_ratio_check_runs_on_the_scalar_b_workloads_only(workload, checked):
    assert run.has_ratio_cells(run.build_config(run.workload_document(workload), seed=3)) is checked
