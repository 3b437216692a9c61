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

A replication fits the one-step process once, for onestep and adaptive
alike; its rows are formed only where a checkpoint reads them. The adaptive
rows read m*_t and the oracle m_t(theta_0) of every checkpoint from one
solve over the filter's memory (adaptive._checkpoint_means, whose module
gives the window rule and the bound on what it cuts), so they agree with
adaptive_filter's whole tracks to rounding.

The report is JSON-ready as it is built. A non-finite row value (an
estimate, or an adaptive filter error) fails its replication, which becomes
an error row with the message. A replication runs its estimators checkpoint
by checkpoint, so it records the first error in (checkpoint, estimator)
order. The window solve raises nothing: an adaptive m*_t that is not
finite fails its row at its own checkpoint, in its place in that order.
A statistic that is undefined is None where it is computed: a cell's var
for n < 2, its ratio without a risk or a positive target, and its KS test
without a positive target, for n < 2 or on a "y" cell.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy import special, stats

from .adaptive import _checkpoint_means, _checkpoint_time
from .errors import FisherSingular, UnsupportedSet, as_real, as_whole
from .likelihood import MAX_DIM, _Surface, bayes, mle
from .model_core import (
    ModelParams,
    ParamProblem,
    _excess_and_information,
    fisher_info,
    stationary,
    validate,
)
from .moments import mme
from .onestep import learning_interval, one_step
from .simulator import simulate


# The smallest checkpoint time t each estimator takes, given (T, delta): mme
# reads x_0..x_3, mle and bayes x_0 and x_1. theta_at needs t >= tau and the
# adaptive track starts at tau + 1; learning_interval raises HorizonTooShort
# for a horizon too short for any learning interval.
_FIRST_T: dict[str, Callable[[int, float], int]] = {
    "mme": lambda T, delta: 3,
    "onestep": lambda T, delta: learning_interval(T, delta),
    "mle": lambda T, delta: 1,
    "bayes": lambda T, delta: 1,
    "adaptive": lambda T, delta: learning_interval(T, delta) + 1,
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
        for name, kind in (("params", ModelParams), ("problem", ParamProblem)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        for name in ("horizons", "checkpoints", "estimators"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        object.__setattr__(self, "problem", validate(self.params, self.problem))
        object.__setattr__(self, "horizons", tuple(as_whole("horizons", t) for t in self.horizons))
        object.__setattr__(self, "replications", as_whole("replications", self.replications))
        object.__setattr__(self, "delta", as_real("delta", self.delta))
        object.__setattr__(self, "checkpoints", tuple(as_real("checkpoints", v) for v in self.checkpoints))
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
        if not 0.5 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0.5, 1), got {self.delta}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not self.checkpoints or not all(0.0 < v <= 1.0 for v in self.checkpoints):
            raise ValueError(f"checkpoints must lie in (0, 1], got {self.checkpoints}")
        if not self.estimators:
            raise ValueError("need at least one estimator")
        for name in self.estimators:
            if name not in _FIRST_T:
                raise ValueError(f"unknown estimator {name!r}; choose from {tuple(_FIRST_T)}")
            if name in ("mle", "bayes") and self.problem.dim > MAX_DIM:
                raise UnsupportedSet(f"{name} takes at most {MAX_DIM} unknowns, got {self.problem.unknown}")
        for horizon in self.horizons:
            first = max(_FIRST_T[name](horizon, self.delta) for name in self.estimators)
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
        return {"config": self.config, "cells": self.cells, "replications": self.replications}

    def to_json(self) -> str:
        """The document without indentation, so json's C encoder writes it."""
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


def _checkpoint_times(horizon: int, checkpoints) -> list[tuple[float, int]]:
    return [(v, _checkpoint_time(v, horizon)) for v in checkpoints]


def run_replication(config: ExperimentConfig, horizon_index: int, rep: int) -> list[dict[str, Any]]:
    """One replication's rows; a pure function of (config, indices), so any
    row can be regenerated in isolation from its stream id. Indices that
    are not whole numbers or lie outside the config raise ValueError.

    The whole-series one-step fit runs first, when onestep or adaptive is
    selected; with adaptive, one solve then gives m*_t and the oracle
    m_t(theta_0) of every checkpoint (adaptive._checkpoint_means). Then each
    checkpoint prefix x[: t + 1] runs the selected estimators in config
    order: onestep forms its one row at t, mle and bayes read one likelihood
    surface of that prefix, built when the first of them runs, and adaptive
    reads its pair. Rows come back estimator by estimator. Each estimator
    gives the value, or raises the error, it gives alone, up to the window
    bound for adaptive; a replication raises the first error in
    (checkpoint, estimator) order, so an adaptive m*_t that is not finite
    fails its row at its own checkpoint, not at the solve.
    """
    horizon_index, rep = as_whole("horizon_index", horizon_index), as_whole("rep", rep)
    if not (0 <= horizon_index < len(config.horizons) and 0 <= rep < config.replications):
        raise ValueError(f"indices ({horizon_index}, {rep}) lie outside the config's horizons or replications")
    horizon = config.horizons[horizon_index]
    stream = horizon_index * config.replications + rep
    problem = config.problem
    adaptive = "adaptive" in config.estimators
    traj = simulate(config.params, horizon, config.seed, keep_hidden=adaptive, stream=stream)
    x = traj.x
    times = _checkpoint_times(horizon, config.checkpoints)
    rows: dict[str, list[dict[str, Any]]] = {name: [] for name in config.estimators}

    def emit(estimator: str, coord: str, v: float, t: int, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ArithmeticError(f"{estimator}:{coord} at t={t} is not finite: {value}")
        rows[estimator].append(
            {
                "estimator": estimator,
                "coord": coord,
                "T": horizon,
                "v": v,
                "t": t,
                "rep": rep,
                "stream": stream,
                "value": value,
            }
        )

    track = None
    if "onestep" in config.estimators or adaptive:
        track = one_step(x, problem, config.delta)
    if adaptive:
        means = _checkpoint_means(x, problem, track, config.params, [t for _, t in times])
    grid_names = [name for name in config.estimators if name in ("mle", "bayes")]

    for k, (v, t) in enumerate(times):
        prefix = x[: t + 1]
        surface = None  # the last prefix's, released before this one's is built
        for name in config.estimators:
            if name == "adaptive":
                m_star, oracle = means[k]
                emit("adaptive", "m", v, t, m_star - oracle)
                emit("adaptive", "y", v, t, m_star - float(traj.y[t]))
                continue
            # mme, mle and bayes are looked up at call time, so rebinding
            # harness.mme, harness.mle or harness.bayes reaches these calls.
            if name == "onestep":
                values = track.theta_at(t)
            elif name == "mme":
                values = mme(prefix, problem).values
            else:
                # Built here, not per prefix: an earlier estimator's error
                # comes first, and a run without mle or bayes builds none.
                if surface is None:
                    surface = _Surface.for_estimators(prefix, problem, grid_names)
                estimator = mle if name == "mle" else bayes
                values = estimator(prefix, problem, _surface=surface)
            for coord, value in zip(problem.unknown, values):
                emit(name, coord, v, t, value)
    return [row for name in config.estimators for row in rows[name]]


def _targets(config: ExperimentConfig) -> dict[tuple[str, str], float | None]:
    """Theoretical normalized-risk targets per (estimator, coord) at truth."""
    problem = config.problem
    out: dict[tuple[str, str], float | None] = {}
    try:
        if "adaptive" in config.estimators:
            s_star, information = _excess_and_information(config.params, problem.unknown)
        else:
            s_star, information = None, fisher_info(config.params, problem.unknown)
        inv_diagonal = np.linalg.inv(information).diagonal().tolist()
    except FisherSingular:
        inv_diagonal, s_star = [None] * problem.dim, None
    for name in config.estimators:
        if name == "adaptive":
            out[(name, "m")] = s_star
            continue
        # mme is consistent but not efficient: it has no target.
        for coord, target in zip(problem.unknown, inv_diagonal):
            out[(name, coord)] = None if name == "mme" else target
    return out


def _ks_statistic(values: np.ndarray, scale: float) -> float:
    """The two-sided Kolmogorov-Smirnov statistic of values against
    N(0, scale^2): the arithmetic of scipy.stats.kstest(values, "norm",
    args=(0, scale)), without its wrapper."""
    n = len(values)
    cdf = special.ndtr(np.sort(values) / scale)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)


def _ks_pvalues(statistics: list[float], sizes: list[int]) -> list[float]:
    """kstest's exact p-values of statistics from samples of the given sizes,
    from one vectorized kstwo.sf call (each element is the scalar call's)."""
    return np.clip(stats.kstwo.sf(statistics, sizes), 0.0, 1.0).tolist()


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
    for (estimator, coord, horizon, v), members in groups.items():
        t = members[0]["t"]
        values = np.array([m["value"] for m in members])
        n = len(values)
        mean = float(values.mean())
        var = float(values.var(ddof=1)) if n >= 2 else None
        target = targets.get((estimator, coord))
        # Adaptive rows are already errors; an estimate is centred at the truth.
        centered = values if estimator == "adaptive" else values - getattr(config.params, coord)
        norm_risk = float((centered * centered).mean())
        if coord == "y":
            # Risk against the hidden state itself, left unnormalized: its
            # level is the stationary conditional variance gamma* plus the
            # adaptive excess S*^2 / t.
            excess = targets.get(("adaptive", "m"))
            target = None if excess is None else stationary(config.params).gamma_star + excess / t
        else:
            norm_risk = t * norm_risk
        # An adaptive cell scores its risk, an estimator cell its variance.
        risk = norm_risk if estimator == "adaptive" else None if var is None else t * var
        scored = target is not None and target > 0.0
        ratio = risk / target if scored and risk is not None else None
        ks_stat = None
        if scored and n >= 2 and coord != "y":
            ks_stat = _ks_statistic(math.sqrt(t) * centered, math.sqrt(target))
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
                "ks_pvalue": None,
                "failures": failures.get(horizon, 0),
            }
        )
    # Every p-value of the report comes from one call: scipy's distribution
    # wrapper costs more per call than the exact tail itself.
    tested = [cell for cell in cells if cell["ks_stat"] is not None]
    if tested:
        pvalues = _ks_pvalues([cell["ks_stat"] for cell in tested], [cell["n"] for cell in tested])
        for cell, pvalue in zip(tested, pvalues):
            cell["ks_pvalue"] = pvalue
    return cells


def run_monte_carlo(config: ExperimentConfig, threads: int = 1) -> McReport:
    """Execute the experiment, one replication after another; the report is
    a deterministic function of the config.

    ``threads`` must be 1: a thread pool measured slower than this loop and
    was removed; the keyword stays because the benchmark script
    perfbench/run.py passes threads=1.
    """
    if as_whole("threads", threads) != 1:
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
    return McReport(config=config.to_dict(), cells=cells, replications=rows)


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
    (full document, compact: McReport.to_json); returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "csv": os.path.join(out_dir, "report.csv"),
        "json": os.path.join(out_dir, "report.json"),
    }
    cells = report.cells
    write_columns(
        paths["csv"],
        {
            "estimator": [f"{c['estimator']}:{c['coord']}" for c in cells],
            "T": [c["T"] for c in cells],
            "v": [c["v"] for c in cells],
            "mean": [c["mean"] for c in cells],
            "var": [c["var"] for c in cells],
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
