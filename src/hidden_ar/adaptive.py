"""Adaptive Kalman filter: the stationary filter recursion with the unknown
coordinates replaced at every step by the One-step MLE process value.

The pipeline on observations X_0..X_T is: moment preliminary -> one-step
estimator path theta*_{t,T} -> plug-in filter

    m*_t = A(theta_hat_{t-1}) m*_{t-1} + e(theta_hat_{t-1}) x_t,
    t = tau+1 .. T,   m*_tau = 0,

where theta_hat_{t-1} is theta*_{t-1,T} once the path exists (t-1 >= tau+2)
and the preliminary estimate before that. The scoring corrections feeding
step t use observations up to x_{t-1} only; the moment preliminary is fit
on the whole series (batch setting, see the onestep module). adaptive_filter
runs all three steps and returns the one-step path it fitted.

The recursion runs on kalman's per-step kernel _solve, one bidiagonal
solve that equals the step-by-step loop bit for bit (see the kalman module).

The filter forgets its start geometrically: the plug-in values lie in the
bounds box, so |A(theta_hat_{s-1})| = |a_s| sigma2_s / P_s < |a_s| <= a_max,
the box's largest |a| (or the known |a|). Run from m = 0 at step t - J
instead of from m*_tau, the recursion gives m*_t up to at most
a_max^J max|drive| / (1 - a_max), drive_s = e(theta_hat_{s-1}) x_s; with
J = model_core._memory(a_max) that is at most eps/4 * max|drive|, and the
window is the whole track where it reaches back to tau + 1. One plug-in
solve (_plug_in) runs any set of such windows: adaptive_filter's single
window [tau+1, T], and the Monte Carlo checkpoints' windows of the last J
steps before each t, with the oracle m_t(theta_0) as the plug-in recursion
frozen at the truth (_checkpoint_means). The truth's |a| bounds the
oracle's |A(theta_0)| but may lie outside the box, so those windows take
a_max as the larger of the two. _plug_in reads only the one-step rows a
window consumes.

For every unknown set t * E(m*_t - m_t(theta_0))^2 converges to
S*^2 = tr(I^{-1} D), which s_star_limit gives (derivation in model_core).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import as_real, as_series, as_whole
from .kalman import _finite_end, _solve, filter_stationary
from .model_core import ModelParams, ParamProblem, _largest_a, _memory, s_star_limit, stationary_from, validate
from .onestep import EstimatorTrace, _guarded_floor, learning_interval, one_step


@dataclass(frozen=True)
class AdaptiveTrace:
    """Adaptive filter output.

    tau         : learning interval end; m_star covers t = tau+1 .. T
    m_star      : the adaptive conditional-mean track
    theta_track : the one-step process fitted on the series and plugged in
                  (None when the filter was run with a frozen parameter point)
    oracle_m    : stationary-filter track at the true point, full length
                  T+1, when the truth was supplied
    truth       : the true parameter point the run is scored against, or
                  None
    theta_plug  : per-step parameter values used at t = tau+1 .. T
                  (canonical coordinate order of the problem)
    problem     : the estimation problem
    """

    tau: int
    m_star: np.ndarray
    theta_track: EstimatorTrace | None
    oracle_m: np.ndarray | None
    truth: ModelParams | None
    theta_plug: np.ndarray
    problem: ParamProblem

    @property
    def horizon(self) -> int:
        return self.tau + len(self.m_star)

    def m_star_at(self, t: int) -> float:
        """m*_t for a whole t in [tau+1, T]."""
        t = as_whole("t", t)
        if not self.tau + 1 <= t <= self.horizon:
            raise ValueError(f"adaptive track covers [{self.tau + 1}, {self.horizon}], got t={t}")
        return float(self.m_star[t - self.tau - 1])


def adaptive_filter(
    x,
    problem: ParamProblem,
    delta: float = 0.6,
    truth: ModelParams | None = None,
    frozen_at: ModelParams | None = None,
) -> AdaptiveTrace:
    """Run the adaptive filter on X_0..X_T.

    It fits ``one_step(x, problem, delta)`` and returns it as ``theta_track``.
    ``frozen_at`` bypasses estimation entirely and plugs a fixed parameter
    point into every step after tau = learning_interval(T, delta), which
    reduces the recursion to the stationary filter; its known coordinates
    must equal the problem's (else ValueError). ``truth`` records the true
    point and its oracle track m_t(truth), which :func:`error_report` scores
    the run against; its known coordinates must equal the problem's too
    (else ValueError).
    """
    problem.require_complete()
    x = as_series(x, 2)
    horizon = len(x) - 1

    if frozen_at is not None:
        validate(frozen_at, problem)
        tau = learning_interval(horizon, delta)
        track, plug = None, problem.values_of(frozen_at)
    else:
        track = plug = one_step(x, problem, delta)
        tau = track.tau
    theta_plug, m_star, _ = _plug_in(x, problem, [(plug, tau + 1, horizon)])
    _finite_end(m_star[-1])

    oracle_m = None
    if truth is not None:
        validate(truth, problem)
        oracle_m = filter_stationary(truth, x, m0=0.0).m
    return AdaptiveTrace(
        tau=tau,
        m_star=m_star,
        theta_track=track,
        oracle_m=oracle_m,
        truth=truth,
        theta_plug=theta_plug,
        problem=problem,
    )


def _plug_in(x: np.ndarray, problem: ParamProblem, windows) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The plug-in steps s = start..stop of every window (plug, start, stop),
    tau + 1 <= start <= stop <= T, each from m*_{start-1} = 0, from one
    solve: (theta_plug, m, bounds), step s of window k in row
    bounds[k] + s - start of each. ``plug`` is the fitted one-step process,
    whose step s reads the estimate in force at s - 1 (EstimatorTrace.rows),
    or the values of a frozen point, tiled. A track that is not finite is
    returned, not raised.

    The windows are joined end to end with the coefficient A set to 0 at
    each window's first step, where the solve's m = drive - (-0) m_prev
    rounds to the drive, so each starts from 0. A non-finite value spreads
    NaN into every window through 0 * inf (in the solve's forward and back
    passes), so then each window is solved alone."""
    rows = [
        plug.rows(start - 1, stop - 1)[0] if isinstance(plug, EstimatorTrace) else np.tile(plug, (stop - start + 1, 1))
        for plug, start, stop in windows
    ]
    theta_plug = np.vstack(rows)
    sq = stationary_from(**problem.coordinates(theta_plug.T))
    drive = sq.gain * np.concatenate([x[start : stop + 1] for _, start, stop in windows])
    bounds = [0, *itertools.accumulate(stop - start + 1 for _, start, stop in windows)]
    a_coef = sq.a_coef
    a_coef[bounds[:-1]] = 0.0
    m = _solve(a_coef, drive)
    if not np.isfinite(m[[i - 1 for i in bounds[1:]]]).all():
        m = np.concatenate([_solve(a_coef[i:j], drive[i:j]) for i, j in itertools.pairwise(bounds)])
    return theta_plug, m, bounds


def _checkpoint_means(
    x: np.ndarray, problem: ParamProblem, track: EstimatorTrace, truth: ModelParams, times
) -> list[tuple[float, float]]:
    """(m*_t, m_t(truth)) at each checkpoint time t in times, from one
    _plug_in solve over the last J steps before every t: the fitted track's
    plug-in steps max(tau+1, t-J+1)..t, and the oracle as the plug-in frozen
    at the truth over steps max(1, t-J+1)..t, which equals filter_stationary
    over x[max(0, t-J) .. t] bit for bit. J = model_core._memory(a_max) with
    a_max the larger of the box's largest |a|, which bounds every plug-in
    |a|, and the truth's |a|, which the box need not hold (module
    docstring). A window that ends non-finite is returned, not raised."""
    memory = _memory(max(_largest_a(problem), abs(truth.a)))
    values = problem.values_of(truth)
    windows = []
    for t in times:
        windows += [(track, max(track.tau + 1, t - memory + 1), t), (values, max(1, t - memory + 1), t)]
    _, m, bounds = _plug_in(x, problem, windows)
    ends = m[[i - 1 for i in bounds[1:]]].tolist()
    return list(zip(ends[::2], ends[1::2]))


def _checkpoint_time(v: float, horizon: int) -> int:
    """The time t = floor(v*T) of checkpoint v, guarded as learning_interval
    is against a product just below a whole number (0.57 * 10000 gives
    5700, not 5699)."""
    return _guarded_floor(v * horizon)


def error_report(trace: AdaptiveTrace, checkpoints) -> list[dict[str, float]]:
    """Normalized errors at t = floor(v*T) (_checkpoint_time) for each
    checkpoint v, against the truth the trace was run with (ValueError for
    a trace run without).

    filter_error    : t * (m*_t - m_t(theta_0))^2
    estimator_error : t * |theta_hat_t - theta_0|^2 (None for frozen runs)
    """
    if trace.truth is None:
        raise ValueError("the adaptive run has no truth to score against; pass truth= to adaptive_filter")
    if np.ndim(checkpoints) != 1:
        raise ValueError(f"checkpoints must be a list of numbers, got {checkpoints!r}")
    horizon = trace.horizon
    truth_values = trace.problem.values_of(trace.truth)
    rows: list[dict[str, float]] = []
    for v in checkpoints:
        v = as_real("checkpoints", v)
        if not 0.0 < v <= 1.0:
            raise ValueError(f"checkpoints must lie in (0, 1], got {v}")
        t = _checkpoint_time(v, horizon)
        if t < trace.tau + 1:
            raise ValueError(
                f"checkpoint v={v} gives t={t} inside the learning interval (tau={trace.tau})"
            )
        diff = trace.m_star_at(t) - float(trace.oracle_m[t])
        row = {"v": v, "t": float(t), "filter_error": t * diff * diff}
        if trace.theta_track is not None:
            dev = trace.theta_track.theta_at(t) - truth_values
            row["estimator_error"] = t * float(dev @ dev)
        else:
            row["estimator_error"] = None
        rows.append(row)
    return rows
