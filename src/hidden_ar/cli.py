"""Command-line interface.

Subcommands: simulate, filter, mme, onestep, mle, bayes, adaptive,
montecarlo. Every estimation subcommand either reads observations from a
CSV (--data, header with an x column) or simulates its own trajectory from
the inline parameter flags, which then also serve as the known coordinate
values of the estimation problem. Each flag is declared once, in _FLAGS;
each subcommand names its help, handler and flags in _COMMANDS. Inline
montecarlo flags build the same document a --config file holds.

Exit codes: 0 success, 2 validation error (bad arguments, inadmissible
parameters, unsupported sets, including one a Monte Carlo estimator
cannot run on, a negative seed), 1 runtime failure, including a Monte
Carlo run in which every replication failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .adaptive import adaptive_filter, error_report
from .errors import HiddenArError, as_series
from .harness import ExperimentConfig, export, run_monte_carlo, write_columns
from .kalman import filter_derivative, filter_stationary
from .likelihood import bayes, log_likelihood, mle
from .model_core import ModelParams, ParamProblem, s_star_limit, validate
from .moments import mme
from .onestep import one_step
from .simulator import simulate

_DEFAULT_BOUNDS = {
    "a": (-0.9, 0.9),
    "b": (0.05, 5.0),
    "f": (0.05, 5.0),
    "sigma2": (0.05, 5.0),
}

# Every flag, declared once: its name without the dashes and the settings
# argparse receives. A subcommand picks its flags by name in _COMMANDS.
_FLAGS = {
    "a": dict(type=float, default=0.5, help="AR coefficient (default 0.5)"),
    "b": dict(type=float, default=1.0, help="state noise scale (default 1)"),
    "f": dict(type=float, default=1.0, help="observation gain (default 1)"),
    "sigma2": dict(type=float, default=1.0, help="observation noise variance (default 1)"),
    "T": dict(type=int, default=10000, help="horizon for simulated data (default 10000)"),
    "seed": dict(type=int, default=0, help="RNG seed (default 0)"),
    "data": dict(default=None, help="CSV file with an x column; overrides simulation"),
    "unknown": dict(default="b", help="comma-separated unknown coordinates (default b)"),
    "bounds": dict(
        default=None,
        help="per-coordinate bounds as name=lo:hi[,name=lo:hi...]; defaults: "
        "a=-0.9:0.9, b/f/sigma2=0.05:5",
    ),
    "wrt": dict(default=None, help="add a derivative track in this coordinate"),
    "no-hidden": dict(action="store_true", help="drop the hidden state column"),
    "delta": dict(type=float, default=0.6),
    "grid-size": dict(type=int, default=512),
    "replications": dict(type=int, default=100),
    "checkpoints": dict(default="0.5,1.0"),
    "estimators": dict(default="onestep,adaptive"),
    "config": dict(
        default=None,
        help="JSON file mirroring ExperimentConfig; --seed and --out override its seed and outputs",
    ),
    "out": dict(default=".", help="output directory (default .)"),
}

_MODEL = ("a", "b", "f", "sigma2")
_INPUT = _MODEL + ("T", "seed", "data")
_PROBLEM = ("unknown", "bounds")
# The flags that describe a Monte Carlo experiment, which --config replaces.
_EXPERIMENT = _MODEL + ("T",) + _PROBLEM + ("delta", "replications", "checkpoints", "estimators")


def _params_from(args) -> ModelParams:
    return ModelParams(a=args.a, b=args.b, f=args.f, sigma2=args.sigma2)


def _problem_doc(args) -> dict:
    unknown = [name.strip() for name in args.unknown.split(",") if name.strip()]
    bounds = {name: _DEFAULT_BOUNDS[name] for name in unknown if name in _DEFAULT_BOUNDS}
    if args.bounds:
        bounds.update(_bounds_item(item) for item in args.bounds.split(","))
    return {"unknown": unknown, "bounds": bounds}


def _bounds_item(item: str) -> tuple[str, tuple[float, float]]:
    """One --bounds item name=lo:hi as (name, (lo, hi)); ValueError naming
    the item when it has another form."""
    name, _, span = item.partition("=")
    lo, _, hi = span.partition(":")
    try:
        if name.strip():
            return name.strip(), (float(lo), float(hi))
    except ValueError:
        pass
    raise ValueError(f"--bounds item {item!r} is not of the form name=lo:hi")


def _inputs(args) -> tuple[ModelParams, ParamProblem | None, np.ndarray]:
    """(params, problem, x) from the model, problem and input flags; problem
    is None for a subcommand without --unknown. x is read from --data, or
    simulated for --T steps from --seed."""
    params = _params_from(args)
    problem = None
    if "unknown" in vars(args):
        problem = validate(params, ParamProblem(**_problem_doc(args)))
    if not args.data:
        return params, problem, simulate(params, args.T, args.seed, keep_hidden=False).x
    with open(args.data, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "x" not in reader.fieldnames:
            raise ValueError(f"{args.data} has no x column")
        return params, problem, as_series([float(row["x"]) for row in reader], 2)


def _named(problem: ParamProblem, values) -> dict[str, float]:
    return {name: float(v) for name, v in zip(problem.unknown, values)}


def _print(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _write(out_dir: str, name: str, columns: dict[str, list]) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    write_columns(path, columns)
    return path


def _cmd_simulate(args) -> int:
    params = _params_from(args)
    traj = simulate(params, args.T, args.seed, keep_hidden=not args.no_hidden)
    n = len(traj.x)
    columns = {
        "t": list(range(n)),
        "x": traj.x.tolist(),
        "y": [None] * n if traj.y is None else traj.y.tolist(),
    }
    path = _write(args.out, "trajectory.csv", columns)
    _print({"written": path, "T": traj.horizon, "seed": traj.seed})
    return 0


def _cmd_filter(args) -> int:
    params, _, x = _inputs(args)
    if args.wrt:
        trace = filter_derivative(params, x, args.wrt)
    else:
        trace = filter_stationary(params, x)
    zeta = trace.innovations
    n = len(trace.m)
    columns = {
        "t": list(range(n)),
        "x": x.tolist(),
        "m": trace.m.tolist(),
        "gamma": [float(trace.gamma)] * n,
        "innovation": [None] + zeta.tolist(),
        **{f"dm_{name}": trace.dm[name].tolist() for name in sorted(trace.dm or {})},
    }
    path = _write(args.out, "filter.csv", columns)
    _print(
        {
            "written": path,
            "innovation_mean": float(zeta.mean()),
            "innovation_var": float(zeta.var()),
        }
    )
    return 0


def _cmd_mme(args) -> int:
    _, problem, x = _inputs(args)
    est = mme(x, problem)
    _print(
        {
            "estimate": _named(problem, est.values),
            "clipped": est.clip_flags,
            "degenerate": list(est.degenerate),
            "s_statistics": [est.stats.s1, est.stats.s2, est.stats.s3],
        }
    )
    return 0


def _cmd_onestep(args) -> int:
    _, problem, x = _inputs(args)
    trace = one_step(x, problem, args.delta)
    columns = {
        "t": trace.t_grid.tolist(),
        **{f"theta_{j + 1}": col for j, col in enumerate(trace.path.T.tolist())},
        "clipped": trace.clipped.astype(int).tolist(),
    }
    path = _write(args.out, "estimator.csv", columns)
    _print(
        {
            "written": path,
            "tau": trace.tau,
            "prelim": _named(problem, trace.prelim),
            "final": _named(problem, trace.path[-1]),
        }
    )
    return 0


def _cmd_mle(args) -> int:
    _, problem, x = _inputs(args)
    values = mle(x, problem)
    _print({"estimate": _named(problem, values), "loglik": log_likelihood(x, problem.point(values))})
    return 0


def _cmd_bayes(args) -> int:
    _, problem, x = _inputs(args)
    values = bayes(x, problem, grid_size=args.grid_size)
    _print({"estimate": _named(problem, values)})
    return 0


def _cmd_adaptive(args) -> int:
    params, problem, x = _inputs(args)
    truth = None if args.data else params
    trace = adaptive_filter(x, problem, args.delta, truth=truth)
    start = trace.tau + 1
    blank = [None] * len(trace.m_star)
    columns = {
        "t": list(range(start, len(x))),
        "x": x[start:].tolist(),
        "m_star": trace.m_star.tolist(),
        **{f"theta_star_{j + 1}": col for j, col in enumerate(trace.theta_plug.T.tolist())},
        "oracle_m": blank,
        "sq_error": blank,
    }
    summary = {"tau": trace.tau}
    if truth is not None:
        summary["s_star_limit"] = s_star_limit(params, problem.unknown)
        diff = trace.m_star - trace.oracle_m[start:]
        columns["oracle_m"] = trace.oracle_m[start:].tolist()
        columns["sq_error"] = (diff * diff).tolist()
        (row,) = error_report(trace, [1.0])
        summary["normalized_filter_error"] = row["filter_error"]
        summary["normalized_estimator_error"] = row["estimator_error"]
    summary["written"] = _write(args.out, "adaptive.csv", columns)
    _print(summary)
    return 0


def _cmd_montecarlo(args) -> int:
    given = [name for name in _EXPERIMENT if getattr(args, name) is not None]
    if args.config:
        if given:
            raise ValueError(f"--{given[0]} cannot be combined with --config; set it in the config file")
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config} must hold a JSON object, got {doc!r}")
    else:
        unset = [name for name in _EXPERIMENT + ("seed", "out") if getattr(args, name) is None]
        vars(args).update({name: _FLAGS[name]["default"] for name in unset})
        doc = {
            "params": _params_from(args).as_dict(),
            "problem": _problem_doc(args),
            "horizons": [args.T],
            "replications": args.replications,
            "delta": args.delta,
            "checkpoints": [float(v) for v in args.checkpoints.split(",")],
            "estimators": args.estimators.split(","),
        }
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out is not None:
        doc["outputs"] = args.out
    config = ExperimentConfig.from_dict(doc)
    report = run_monte_carlo(config)
    paths = export(report, config.outputs or ".")
    for cell in report.cells:
        line = {
            "estimator": f"{cell['estimator']}:{cell['coord']}",
            "T": cell["T"],
            "v": cell["v"],
            "norm_risk": cell["norm_risk"],
            "target": cell["target"],
            "ratio": cell["ratio"],
        }
        _print(line)
    _print({"written": sorted(paths.values())})
    if not report.cells:
        print("error: every replication failed; the report has no cells", file=sys.stderr)
        return 1
    return 0


# name: (help, handler, flags). A subcommand that takes --config defaults
# its other flags to None, so that one given alongside the file is detected.
_COMMANDS = {
    "simulate": ("generate a trajectory CSV", _cmd_simulate, _MODEL + ("T", "seed", "no-hidden", "out")),
    "filter": ("run the stationary (or derivative) filter", _cmd_filter, _INPUT + ("wrt", "out")),
    "mme": ("method-of-moments estimate", _cmd_mme, _INPUT + _PROBLEM),
    "onestep": ("one-step MLE process", _cmd_onestep, _INPUT + _PROBLEM + ("delta", "out")),
    "mle": ("maximum-likelihood estimate", _cmd_mle, _INPUT + _PROBLEM),
    "bayes": ("posterior-mean estimate", _cmd_bayes, _INPUT + _PROBLEM + ("grid-size",)),
    "adaptive": ("adaptive Kalman filter", _cmd_adaptive, _INPUT + _PROBLEM + ("delta", "out")),
    "montecarlo": (
        "Monte Carlo verification experiment",
        _cmd_montecarlo,
        ("config",) + _EXPERIMENT + ("seed", "out"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hidden-ar",
        description="Simulation, filtering, estimation, and adaptive filtering "
        "for a partially observed AR(1) process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=handler)
        if "config" in flags:
            p.set_defaults(**dict.fromkeys(flag.replace("-", "_") for flag in flags))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HiddenArError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
