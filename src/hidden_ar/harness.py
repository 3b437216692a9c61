"""Monte Carlo experiment orchestration and reporting.

A run simulates R independent trajectories per horizon T, applies the
selected estimators and the adaptive filter at the checkpoint times
t = floor(v*T), and aggregates normalized risks against their theoretical
targets: the inverse Fisher information for the estimators and S*^2 for the
adaptive filter, which is additionally scored against the hidden state
itself (rows with coord "y", risk level gamma* + S*^2/t). Replications draw
from counter-based streams keyed (seed, stream) with
stream = horizon_index * R + rep, so any replication can be reproduced in
isolation, and the report is bit-identical across runs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np
from scipy import stats as _scipy_stats

from .adaptive import adaptive_filter, s_star_limit
from .errors import FisherSingular, UnsupportedSet, as_whole
from .likelihood import PosteriorSpec, bayes, mle
from .model_core import INFORMATION_SETS, ModelParams, ParamProblem, fisher_info, stationary, validate
from .moments import mme
from .onestep import learning_interval, one_step
from .simulator import simulate


class _Needs(NamedTuple):
    """What an estimator needs from the config."""

    first_t: Callable[[int, float], int]  # smallest checkpoint time t, given (T, delta)
    unknown_sets: tuple[tuple[str, ...], ...] | None  # None: every set ParamProblem accepts


# The one-step process needs the Fisher information, which exists for
# INFORMATION_SETS; the likelihood grid covers one or two unknowns.
_GRID_SETS = INFORMATION_SETS + (("sigma2",),)

# mme reads x_0..x_3, mle and bayes x_0 and x_1. theta_at needs t >= tau and
# the adaptive track starts at tau + 1; learning_interval raises
# HorizonTooShort for a horizon too short for any learning interval.
_ESTIMATORS = {
    "mme": _Needs(lambda T, delta: 3, None),
    "onestep": _Needs(lambda T, delta: learning_interval(T, delta), INFORMATION_SETS),
    "mle": _Needs(lambda T, delta: 1, _GRID_SETS),
    "bayes": _Needs(lambda T, delta: 1, _GRID_SETS),
    "adaptive": _Needs(lambda T, delta: learning_interval(T, delta) + 1, INFORMATION_SETS),
}

# Estimates computed afresh on each prefix x[: t + 1]. The lambdas look the
# functions up when called, so rebinding the module attribute reaches them.
_ON_PREFIX = {
    "mme": lambda prefix, problem: mme(prefix, problem).values,
    "mle": lambda prefix, problem: mle(prefix, problem),
    "bayes": lambda prefix, problem: bayes(prefix, problem, PosteriorSpec()),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A full Monte Carlo experiment description, checked when built.

    ``outputs`` is a directory path (a str or an os.PathLike, stored as a
    str) or None; horizons, checkpoints and estimators hold no repeats.
    """

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
        for name in ("horizons", "checkpoints", "estimators"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        object.__setattr__(self, "problem", validate(self.params, self.problem))
        object.__setattr__(self, "horizons", tuple(as_whole("horizons", t) for t in self.horizons))
        object.__setattr__(self, "replications", as_whole("replications", self.replications))
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "checkpoints", tuple(float(v) for v in self.checkpoints))
        object.__setattr__(self, "seed", as_whole("seed", self.seed))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.outputs is not None:
            outputs = os.fspath(self.outputs) if isinstance(self.outputs, os.PathLike) else self.outputs
            if not isinstance(outputs, str):
                raise ValueError(f"outputs must be a directory path or None, got {self.outputs!r}")
            object.__setattr__(self, "outputs", outputs)
        for name in ("horizons", "checkpoints", "estimators"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat an entry, got {values}")
        if not self.horizons:
            raise ValueError("need at least one horizon")
        if any(t < 1 for t in self.horizons):
            raise ValueError(f"horizons must be positive, got {self.horizons}")
        if self.replications < 1:
            raise ValueError(f"need replications >= 1, got {self.replications}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not self.checkpoints or not all(0.0 < v <= 1.0 for v in self.checkpoints):
            raise ValueError(f"checkpoints must lie in (0, 1], got {self.checkpoints}")
        if not self.estimators:
            raise ValueError("need at least one estimator")
        needs = []
        for name in self.estimators:
            if name not in _ESTIMATORS:
                raise ValueError(f"unknown estimator {name!r}; choose from {tuple(_ESTIMATORS)}")
            need = _ESTIMATORS[name]
            if need.unknown_sets is not None and self.problem.unknown not in need.unknown_sets:
                raise UnsupportedSet(
                    f"{name} supports the unknown sets {need.unknown_sets}, got {self.problem.unknown}"
                )
            needs.append(need)
        for horizon in self.horizons:
            first = max(need.first_t(horizon, self.delta) for need in needs)
            for v, t in _checkpoint_times(horizon, self.checkpoints):
                if t < first:
                    raise ValueError(
                        f"checkpoint v={v} gives t={t} at T={horizon}; the selected "
                        f"estimators need t >= {first}"
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
        """Build from a JSON-style document; a missing, unknown or
        wrongly typed field raises ValueError naming it."""
        fields = dataclasses.fields(cls)
        unknown = set(obj) - {f.name for f in fields}
        if unknown:
            raise ValueError(f"unknown config fields {sorted(unknown)}")
        missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in obj]
        if missing:
            raise ValueError(f"missing config fields {missing}")
        built = {}
        for name, kind in (("params", ModelParams), ("problem", ParamProblem)):
            if not isinstance(obj[name], dict):
                raise ValueError(f"{name} must be an object, got {obj[name]!r}")
            try:
                built[name] = kind(**obj[name])
            except TypeError as exc:
                raise ValueError(f"{name}: {exc}") from None
        return cls(**dict(obj, **built))


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
        track = one_step(x, problem, config.delta)

    for name in config.estimators:
        if name == "adaptive":
            atrace = adaptive_filter(
                x, problem, config.delta, track=track, truth=config.params
            )
            for v, t in times:
                m_star = atrace.m_star_at(t)
                emit("adaptive", "m", v, t, m_star - float(atrace.oracle_m[t]))
                emit("adaptive", "y", v, t, m_star - float(traj.y[t]))
            continue
        for v, t in times:
            if name == "onestep":
                values = track.theta_at(t)
            else:
                values = _ON_PREFIX[name](x[: t + 1], problem)
            for coord, value in zip(problem.unknown, values):
                emit(name, coord, v, t, value)
    return rows


def _targets(config: ExperimentConfig) -> dict[tuple[str, str], float | None]:
    """Theoretical normalized-risk targets per (estimator, coord) at truth."""
    problem = config.problem
    out: dict[tuple[str, str], float | None] = {}
    try:
        inv_diagonal = np.linalg.inv(fisher_info(config.params, problem.unknown)).diagonal().tolist()
    except (UnsupportedSet, FisherSingular):
        inv_diagonal = [None] * problem.dim
    for name in config.estimators:
        if name == "adaptive":
            try:
                out[(name, "m")] = s_star_limit(config.params, problem.unknown)
            except (UnsupportedSet, FisherSingular):
                out[(name, "m")] = None
            continue
        # mme is consistent but not efficient: it has no target.
        for coord, target in zip(problem.unknown, inv_diagonal):
            out[(name, coord)] = None if name == "mme" else target
    return out


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
            centered = values - getattr(config.params, coord)
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
    """Execute the experiment, one replication after another; the report is
    a deterministic function of the config.

    ``threads`` must be 1. The estimators run Python loops that hold the
    interpreter lock, so a thread pool measured slower than this loop and
    was removed; the keyword stays for callers that still pass it.
    """
    if threads != 1:
        raise ValueError(f"run_monte_carlo runs serially; threads must be 1, got {threads}")
    rows: list[dict[str, Any]] = []
    for hi, horizon in enumerate(config.horizons):
        for rep in range(config.replications):
            try:
                rows.extend(run_replication(config, hi, rep))
            except Exception as exc:  # recorded, not fatal: partial failure contract
                rows.append(
                    {
                        "estimator": "error",
                        "coord": "",
                        "T": horizon,
                        "v": None,
                        "t": None,
                        "rep": rep,
                        "stream": hi * config.replications + rep,
                        "value": None,
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                )
    cells = _aggregate(config, rows)
    return McReport(config=config.to_dict(), cells=cells, replications=_sanitize(rows))


def write_columns(path: str, columns: dict[str, list]) -> None:
    """Write a CSV whose header is the keys of ``columns`` and whose rows
    zip its equal-length value lists; a length mismatch raises ValueError.

    Cells: None is written empty, a float by ``repr`` (so it reads back
    bit-exact) and anything else by ``str``. Columns must hold Python
    values: under numpy 2 the repr of a numpy scalar is not a number.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in zip(*columns.values(), strict=True):
            writer.writerow(
                ["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in row]
            )


def export(report: McReport, out_dir: str) -> dict[str, str]:
    """Write report.csv (aggregate cells, fixed schema) and report.json
    (full document); returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "csv": os.path.join(out_dir, "report.csv"),
        "json": os.path.join(out_dir, "report.json"),
    }
    cells = report.cells
    write_columns(
        paths["csv"],
        {
            "estimator": [
                f"{c['estimator']}:{c['coord']}" if c["coord"] else c["estimator"] for c in cells
            ],
            "T": [c["T"] for c in cells],
            "v": [c["v"] for c in cells],
            "mean": [c["mean"] for c in cells],
            "var": [c["var"] if math.isfinite(c["var"]) else None for c in cells],
            "norm_risk": [c["norm_risk"] for c in cells],
            "target": [c["target"] for c in cells],
            "ratio": [c["ratio"] for c in cells],
            "ks": [c["ks_pvalue"] for c in cells],
        },
    )
    with open(paths["json"], "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    return paths
