"""Monte Carlo experiment orchestration and reporting.

A run simulates R independent trajectories per horizon T, applies the
selected estimators and the adaptive filter at the checkpoint times
t = floor(v*T), and aggregates normalized risks against their theoretical
targets: the inverse Fisher information for the estimators and S*^2 for the
adaptive filter, which is additionally scored against the hidden state
itself (rows with coord "y", risk level gamma* + S*^2/t). Replications draw
from counter-based streams keyed (seed, stream) with
stream = horizon_index * R + rep, so any replication can be reproduced in
isolation and the full report is bit-identical for every thread count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy import stats as _scipy_stats

from .adaptive import adaptive_filter, s_star_limit
from .errors import UnsupportedCoordinate, UnsupportedSet
from .likelihood import PosteriorSpec, bayes, mle
from .model_core import ModelParams, ParamProblem, fisher_info, stationary, validate
from .moments import mme
from .onestep import EstimatorTrace, learning_interval, one_step_pair, one_step_scalar
from .simulator import simulate

_ESTIMATORS = ("mme", "onestep", "mle", "bayes", "adaptive")
# Smallest checkpoint time t each estimator can run on: mme needs the four
# observations x_0..x_3, mle and bayes need x_0 and x_1.
_SHORTEST_PREFIX = {"mme": 3, "mle": 1, "bayes": 1}


@dataclass(frozen=True)
class ExperimentConfig:
    """A full Monte Carlo experiment description."""

    params: ModelParams
    problem: ParamProblem
    horizons: tuple[int, ...]
    replications: int
    delta: float = 0.6
    checkpoints: tuple[float, ...] = (0.5, 1.0)
    seed: int = 0
    outputs: str | None = None
    estimators: tuple[str, ...] = ("onestep", "adaptive")

    def __post_init__(self):
        object.__setattr__(self, "problem", validate(self.params, self.problem))
        object.__setattr__(self, "horizons", tuple(int(t) for t in self.horizons))
        object.__setattr__(self, "checkpoints", tuple(float(v) for v in self.checkpoints))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.horizons:
            raise ValueError("need at least one horizon")
        if any(t < 1 for t in self.horizons):
            raise ValueError(f"horizons must be positive, got {self.horizons}")
        if self.replications < 1:
            raise ValueError(f"need replications >= 1, got {self.replications}")
        if not self.checkpoints or not all(0.0 < v <= 1.0 for v in self.checkpoints):
            raise ValueError(f"checkpoints must lie in (0, 1], got {self.checkpoints}")
        for name in self.estimators:
            if name not in _ESTIMATORS:
                raise ValueError(f"unknown estimator {name!r}; choose from {_ESTIMATORS}")
        if "onestep" in self.estimators or "adaptive" in self.estimators:
            # theta_at needs t >= tau; the adaptive track starts at tau + 1.
            first = 1 if "adaptive" in self.estimators else 0
            for horizon in self.horizons:
                tau = learning_interval(horizon, self.delta)
                for v, t in _checkpoint_times(horizon, self.checkpoints):
                    if t < tau + first:
                        raise ValueError(
                            f"checkpoint v={v} gives t={t} at T={horizon}, "
                            f"before the learning interval ends (need t >= {tau + first})"
                        )
        shortest = max(_SHORTEST_PREFIX.get(name, 0) for name in self.estimators)
        for horizon in self.horizons:
            for v, t in _checkpoint_times(horizon, self.checkpoints):
                if t < shortest:
                    raise ValueError(
                        f"checkpoint v={v} gives t={t} at T={horizon}; the selected "
                        f"estimators need t >= {shortest}"
                    )

    def to_dict(self) -> dict[str, Any]:
        return {
            "params": self.params.as_dict(),
            "problem": {
                "unknown": list(self.problem.unknown),
                "bounds": {k: list(v) for k, v in self.problem.bounds.items()},
            },
            "horizons": list(self.horizons),
            "replications": self.replications,
            "delta": self.delta,
            "checkpoints": list(self.checkpoints),
            "seed": self.seed,
            "outputs": self.outputs,
            "estimators": list(self.estimators),
        }

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "ExperimentConfig":
        params = ModelParams(**{k: float(v) for k, v in obj["params"].items()})
        prob = obj["problem"]
        problem = ParamProblem(
            unknown=tuple(prob["unknown"]),
            bounds={k: tuple(v) for k, v in prob["bounds"].items()},
        )
        kwargs: dict[str, Any] = {}
        for name in ("replications", "seed"):
            if name in obj:
                kwargs[name] = int(obj[name])
        for name in ("delta",):
            if name in obj:
                kwargs[name] = float(obj[name])
        for name in ("checkpoints", "estimators"):
            if name in obj:
                kwargs[name] = tuple(obj[name])
        if "outputs" in obj:
            kwargs["outputs"] = obj["outputs"]
        return cls(params=params, problem=problem, horizons=tuple(obj["horizons"]), **kwargs)


@dataclass(frozen=True)
class McReport:
    """Aggregated Monte Carlo results plus raw per-replication rows."""

    config: dict[str, Any]
    cells: list[dict[str, Any]] = field(default_factory=list)
    replications: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return _sanitize(
            {"config": self.config, "cells": self.cells, "replications": self.replications}
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False)


def _sanitize(obj):
    """Convert numpy scalars to Python and non-finite floats to None."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    return obj


def _checkpoint_times(horizon: int, checkpoints) -> list[tuple[float, int]]:
    return [(v, math.floor(v * horizon)) for v in checkpoints]


def _fit_track(x, problem: ParamProblem, delta: float) -> EstimatorTrace:
    if problem.dim == 1:
        return one_step_scalar(x, problem, delta)
    return one_step_pair(x, problem, delta)


def run_replication(config: ExperimentConfig, horizon_index: int, rep: int) -> list[dict[str, Any]]:
    """One replication's rows; a pure function of (config, indices), so any
    row can be regenerated in isolation from its stream id."""
    horizon = config.horizons[horizon_index]
    stream = horizon_index * config.replications + rep
    problem = config.problem
    keep_hidden = "adaptive" in config.estimators
    traj = simulate(config.params, horizon, config.seed, keep_hidden=keep_hidden, stream=stream)
    x = traj.x
    times = _checkpoint_times(horizon, config.checkpoints)
    rows: list[dict[str, Any]] = []

    def emit(estimator: str, coord: str, v: float, t: int, value: float) -> None:
        rows.append(
            {
                "estimator": estimator,
                "coord": coord,
                "T": horizon,
                "v": v,
                "t": t,
                "rep": rep,
                "stream": stream,
                "value": float(value),
            }
        )

    track = None
    if "onestep" in config.estimators or "adaptive" in config.estimators:
        track = _fit_track(x, problem, config.delta)

    for name in config.estimators:
        if name == "mme":
            for v, t in times:
                est = mme(x[: t + 1], problem)
                for j, coord in enumerate(problem.unknown):
                    emit("mme", coord, v, t, est.values[j])
        elif name == "onestep":
            for v, t in times:
                values = track.theta_at(t)
                for j, coord in enumerate(problem.unknown):
                    emit("onestep", coord, v, t, values[j])
        elif name == "mle":
            for v, t in times:
                values = mle(x[: t + 1], problem)
                for j, coord in enumerate(problem.unknown):
                    emit("mle", coord, v, t, values[j])
        elif name == "bayes":
            for v, t in times:
                values = bayes(x[: t + 1], problem, PosteriorSpec())
                for j, coord in enumerate(problem.unknown):
                    emit("bayes", coord, v, t, values[j])
        elif name == "adaptive":
            atrace = adaptive_filter(
                x, problem, config.delta, track=track, truth=config.params
            )
            for v, t in times:
                diff = atrace.m_star_at(t) - float(atrace.oracle_m[t])
                emit("adaptive", "m", v, t, diff)
                emit("adaptive", "y", v, t, atrace.m_star_at(t) - float(traj.y[t]))
    return rows


def _targets(config: ExperimentConfig) -> dict[tuple[str, str], float | None]:
    """Theoretical normalized-risk targets per (estimator, coord) at truth."""
    problem = config.problem
    out: dict[tuple[str, str], float | None] = {}
    info = None
    try:
        info = fisher_info(config.params, problem)
    except (UnsupportedSet, UnsupportedCoordinate):
        info = None
    for name in config.estimators:
        if name == "mme":
            for coord in problem.unknown:
                out[(name, coord)] = None
        elif name in ("onestep", "mle", "bayes"):
            for coord in problem.unknown:
                out[(name, coord)] = None if info is None else info.inverse_diagonal(coord)
        elif name == "adaptive":
            try:
                out[(name, "m")] = s_star_limit(config.params, problem.unknown)
            except UnsupportedSet:
                out[(name, "m")] = None
    return out


def _truth_value(config: ExperimentConfig, coord: str) -> float:
    return getattr(config.params, coord)


def _aggregate(config: ExperimentConfig, rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    targets = _targets(config)
    failures: dict[int, int] = {}
    groups: dict[tuple, list[dict[str, Any]]] = {}
    for row in rows:
        if row["estimator"] == "error":
            failures[row["T"]] = failures.get(row["T"], 0) + 1
            continue
        key = (row["estimator"], row["coord"], row["T"], row["v"])
        groups.setdefault(key, []).append(row)

    cells: list[dict[str, Any]] = []
    for key, members in groups.items():
        estimator, coord, horizon, v = key
        t = members[0]["t"]
        values = np.array([m["value"] for m in members])
        n = len(values)
        mean = float(values.mean())
        var = float(values.var(ddof=1)) if n >= 2 else float("nan")
        target = targets.get((estimator, coord))
        if estimator == "adaptive" and coord == "y":
            # Risk against the hidden state itself, left unnormalized: its
            # level is the stationary conditional variance gamma* plus the
            # adaptive excess S*^2 / t.
            norm_risk = float((values * values).mean())
            centered = values
            excess = targets.get(("adaptive", "m"))
            base = stationary(config.params).gamma_star
            target = None if excess is None else base + excess / t
            ratio = None if target is None else norm_risk / target
        elif estimator == "adaptive":
            norm_risk = t * float((values * values).mean())
            centered = values
            ratio = None if target is None else norm_risk / target
        else:
            truth = _truth_value(config, coord)
            centered = values - truth
            norm_risk = t * float((centered * centered).mean())
            ratio = None if target is None or target == 0.0 else t * var / target
        ks_stat = ks_pvalue = None
        if target is not None and target > 0.0 and n >= 2 and coord != "y":
            normalized = math.sqrt(t) * centered
            result = _scipy_stats.kstest(normalized, "norm", args=(0.0, math.sqrt(target)))
            ks_stat = float(result.statistic)
            ks_pvalue = float(result.pvalue)
        cells.append(
            {
                "estimator": estimator,
                "coord": coord,
                "T": horizon,
                "v": v,
                "t": t,
                "n": n,
                "mean": mean,
                "var": var,
                "norm_risk": norm_risk,
                "target": target,
                "ratio": ratio,
                "ks_stat": ks_stat,
                "ks_pvalue": ks_pvalue,
                "failures": failures.get(horizon, 0),
            }
        )
    return cells


def run_monte_carlo(config: ExperimentConfig, threads: int = 1) -> McReport:
    """Execute the experiment; the report is a deterministic function of the
    config, identical for any thread count."""
    jobs = [
        (hi, rep)
        for hi in range(len(config.horizons))
        for rep in range(config.replications)
    ]
    results: list[list[dict[str, Any]] | None] = [None] * len(jobs)

    def work(idx: int) -> list[dict[str, Any]]:
        hi, rep = jobs[idx]
        try:
            return run_replication(config, hi, rep)
        except Exception as exc:  # recorded, not fatal: partial failure contract
            return [
                {
                    "estimator": "error",
                    "coord": "",
                    "T": config.horizons[hi],
                    "v": None,
                    "t": None,
                    "rep": rep,
                    "stream": hi * config.replications + rep,
                    "value": None,
                    "message": f"{type(exc).__name__}: {exc}",
                }
            ]

    if threads <= 1:
        for idx in range(len(jobs)):
            results[idx] = work(idx)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(work, idx) for idx in range(len(jobs))]
            for idx, future in enumerate(futures):
                results[idx] = future.result()

    rows = [row for chunk in results for row in chunk]
    cells = _aggregate(config, rows)
    return McReport(config=config.to_dict(), cells=cells, replications=_sanitize(rows))


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export(report: McReport, out_dir: str, formats=("csv", "json")) -> dict[str, str]:
    """Write report.csv (aggregate cells, fixed schema) and report.json
    (full document); returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths: dict[str, str] = {}
    if "csv" in formats:
        path = os.path.join(out_dir, "report.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["estimator", "T", "v", "mean", "var", "norm_risk", "target", "ratio", "ks"]
            )
            for cell in report.cells:
                label = f"{cell['estimator']}:{cell['coord']}" if cell["coord"] else cell["estimator"]
                writer.writerow(
                    [
                        label,
                        cell["T"],
                        _csv_value(cell["v"]),
                        _csv_value(cell["mean"]),
                        _csv_value(cell["var"] if math.isfinite(cell["var"]) else None),
                        _csv_value(cell["norm_risk"]),
                        _csv_value(cell["target"]),
                        _csv_value(cell["ratio"]),
                        _csv_value(cell["ks_pvalue"]),
                    ]
                )
        paths["csv"] = path
    if "json" in formats:
        path = os.path.join(out_dir, "report.json")
        with open(path, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        paths["json"] = path
    return paths
