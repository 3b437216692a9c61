"""Command-line interface.

Subcommands: simulate, filter, mme, onestep, mle, bayes, adaptive,
montecarlo. Every estimation subcommand either reads observations from a
CSV (--data, header with an x column) or simulates its own trajectory from
the inline parameter flags, which then also serve as the known coordinate
values of the estimation problem.

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

from .adaptive import _fit_track, adaptive_filter, error_report, s_star_limit
from .errors import HiddenArError, as_series
from .harness import ExperimentConfig, export, run_monte_carlo, write_columns
from .kalman import filter_derivative, filter_stationary
from .likelihood import PosteriorSpec, bayes, log_likelihood, mle
from .model_core import ModelParams, ParamProblem, validate
from .moments import mme
from .simulator import simulate

_DEFAULT_BOUNDS = {
    "a": (-0.9, 0.9),
    "b": (0.05, 5.0),
    "f": (0.05, 5.0),
    "sigma2": (0.05, 5.0),
}


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=float, default=0.5, help="AR coefficient (default 0.5)")
    parser.add_argument("--b", type=float, default=1.0, help="state noise scale (default 1)")
    parser.add_argument("--f", type=float, default=1.0, help="observation gain (default 1)")
    parser.add_argument("--sigma2", type=float, default=1.0, help="observation noise variance (default 1)")


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--T", type=int, default=10000, help="horizon for simulated data (default 10000)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--data", default=None, help="CSV file with an x column; overrides simulation")


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--unknown", default="b", help="comma-separated unknown coordinates (default b)")
    parser.add_argument(
        "--bounds",
        default=None,
        help="per-coordinate bounds as name=lo:hi[,name=lo:hi...]; defaults: "
        "a=-0.9:0.9, b/f/sigma2=0.05:5",
    )


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory (default .)")


def _params_from(args) -> ModelParams:
    return ModelParams(a=args.a, b=args.b, f=args.f, sigma2=args.sigma2)


def _problem_from(args, params: ModelParams) -> ParamProblem:
    unknown = tuple(name.strip() for name in args.unknown.split(",") if name.strip())
    bounds = {name: _DEFAULT_BOUNDS[name] for name in unknown if name in _DEFAULT_BOUNDS}
    if args.bounds:
        for item in args.bounds.split(","):
            name, _, span = item.partition("=")
            lo, _, hi = span.partition(":")
            bounds[name.strip()] = (float(lo), float(hi))
    problem = ParamProblem(unknown=unknown, bounds=bounds)
    return validate(params, problem)


def _load_or_simulate(args, params: ModelParams) -> np.ndarray:
    if args.data:
        with open(args.data, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "x" not in reader.fieldnames:
                raise ValueError(f"{args.data} has no x column")
            return as_series([float(row["x"]) for row in reader], 2)
    return simulate(params, args.T, args.seed, keep_hidden=False).x


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
    params = _params_from(args)
    x = _load_or_simulate(args, params)
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
    params = _params_from(args)
    problem = _problem_from(args, params)
    x = _load_or_simulate(args, params)
    est = mme(x, problem)
    _print(
        {
            "estimate": dict(zip(problem.unknown, [float(v) for v in est.values])),
            "clipped": est.clip_flags,
            "degenerate": list(est.degenerate),
            "s_statistics": [est.stats.s1, est.stats.s2, est.stats.s3],
        }
    )
    return 0


def _cmd_onestep(args) -> int:
    params = _params_from(args)
    problem = _problem_from(args, params)
    x = _load_or_simulate(args, params)
    trace = _fit_track(x, problem, args.delta)
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
            "prelim": dict(zip(problem.unknown, [float(v) for v in trace.prelim])),
            "final": dict(zip(problem.unknown, [float(v) for v in trace.path[-1]])),
        }
    )
    return 0


def _cmd_mle(args) -> int:
    params = _params_from(args)
    problem = _problem_from(args, params)
    x = _load_or_simulate(args, params)
    values = mle(x, problem)
    point = problem.point(values)
    _print(
        {
            "estimate": dict(zip(problem.unknown, [float(v) for v in values])),
            "loglik": log_likelihood(x, point),
        }
    )
    return 0


def _cmd_bayes(args) -> int:
    params = _params_from(args)
    problem = _problem_from(args, params)
    x = _load_or_simulate(args, params)
    values = bayes(x, problem, PosteriorSpec(grid_size=args.grid_size))
    _print({"estimate": dict(zip(problem.unknown, [float(v) for v in values]))})
    return 0


def _cmd_adaptive(args) -> int:
    params = _params_from(args)
    problem = _problem_from(args, params)
    x = _load_or_simulate(args, params)
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
    summary = {"tau": trace.tau, "s_star_limit": None}
    if truth is not None:
        diff = trace.m_star - trace.oracle_m[start:]
        columns["oracle_m"] = trace.oracle_m[start:].tolist()
        columns["sq_error"] = (diff * diff).tolist()
        (row,) = error_report(trace, [1.0])
        summary["normalized_filter_error"] = row["filter_error"]
        summary["normalized_estimator_error"] = row["estimator_error"]
    summary["written"] = _write(args.out, "adaptive.csv", columns)
    if problem.dim == 1:
        summary["s_star_limit"] = s_star_limit(params, problem.unknown)
    _print(summary)
    return 0


def _cmd_montecarlo(args) -> int:
    given = [name for name in args.inline_defaults if getattr(args, name) is not None]
    if args.config:
        if given:
            raise ValueError(f"--{given[0]} cannot be combined with --config; set it in the config file")
        with open(args.config) as fh:
            obj = json.load(fh)
        if args.seed is not None:
            obj["seed"] = args.seed
        if args.out is not None:
            obj["outputs"] = args.out
        config = ExperimentConfig.from_dict(obj)
    else:
        vars(args).update({name: v for name, v in args.inline_defaults.items() if name not in given})
        params = _params_from(args)
        problem = _problem_from(args, params)
        config = ExperimentConfig(
            params=params,
            problem=problem,
            horizons=(args.T,),
            replications=args.replications,
            delta=args.delta,
            checkpoints=tuple(float(v) for v in args.checkpoints.split(",")),
            seed=args.seed if args.seed is not None else 0,
            outputs=args.out if args.out is not None else ".",
            estimators=tuple(args.estimators.split(",")),
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hidden-ar",
        description="Simulation, filtering, estimation, and adaptive filtering "
        "for a partially observed AR(1) process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a trajectory CSV")
    _add_param_flags(p)
    p.add_argument("--T", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-hidden", action="store_true", help="drop the hidden state column")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("filter", help="run the stationary (or derivative) filter")
    _add_param_flags(p)
    _add_data_flags(p)
    p.add_argument("--wrt", default=None, choices=["f", "b", "a"], help="add a derivative track")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("mme", help="method-of-moments estimate")
    _add_param_flags(p)
    _add_data_flags(p)
    _add_problem_flags(p)
    p.set_defaults(func=_cmd_mme)

    p = sub.add_parser("onestep", help="one-step MLE process")
    _add_param_flags(p)
    _add_data_flags(p)
    _add_problem_flags(p)
    p.add_argument("--delta", type=float, default=0.6)
    _add_out_flag(p)
    p.set_defaults(func=_cmd_onestep)

    p = sub.add_parser("mle", help="maximum-likelihood estimate")
    _add_param_flags(p)
    _add_data_flags(p)
    _add_problem_flags(p)
    p.set_defaults(func=_cmd_mle)

    p = sub.add_parser("bayes", help="posterior-mean estimate")
    _add_param_flags(p)
    _add_data_flags(p)
    _add_problem_flags(p)
    p.add_argument("--grid-size", type=int, default=512)
    p.set_defaults(func=_cmd_bayes)

    p = sub.add_parser("adaptive", help="adaptive Kalman filter")
    _add_param_flags(p)
    _add_data_flags(p)
    _add_problem_flags(p)
    p.add_argument("--delta", type=float, default=0.6)
    _add_out_flag(p)
    p.set_defaults(func=_cmd_adaptive)

    p = sub.add_parser("montecarlo", help="Monte Carlo verification experiment")
    p.add_argument("--config", default=None, help="JSON file mirroring ExperimentConfig")
    _add_param_flags(p)
    p.add_argument("--T", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    _add_problem_flags(p)
    p.add_argument("--delta", type=float, default=0.6)
    p.add_argument("--replications", type=int, default=100)
    p.add_argument("--checkpoints", default="0.5,1.0")
    p.add_argument("--estimators", default="onestep,adaptive")
    p.add_argument("--out", default=None, help="output directory (default: the config's outputs, else .)")
    # The experiment flags describe the experiment only in an inline run:
    # they default to None so that one given with --config is detected.
    inline = "a b f sigma2 T unknown bounds delta replications checkpoints estimators".split()
    p.set_defaults(func=_cmd_montecarlo, inline_defaults={name: p.get_default(name) for name in inline})
    p.set_defaults(**dict.fromkeys(inline))

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
