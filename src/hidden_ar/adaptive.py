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

The recursion runs on kalman's per-step kernel _recursion, one bidiagonal
solve that equals the step-by-step loop bit for bit (see the kalman module).

For every unknown set t * E(m*_t - m_t(theta_0))^2 converges to
S*^2 = tr(I^{-1} D), which s_star_limit gives (derivation in model_core).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import as_real, as_series, as_whole
from .kalman import _recursion, filter_stationary
from .model_core import ModelParams, ParamProblem, s_star_limit, stationary_from, validate
from .onestep import EstimatorTrace, learning_interval, one_step


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
        theta_plug = np.tile(problem.values_of(frozen_at), (horizon - tau, 1))
        track = None
    else:
        track = one_step(x, problem, delta)
        tau = track.tau
        # Step t consumes theta_hat_{t-1}: the preliminary for t-1 <= tau+1,
        # the path value afterwards.
        theta_plug = np.vstack([track.prelim, track.prelim, track.path[: horizon - tau - 2]])

    sq = stationary_from(**problem.coordinates(theta_plug.T))

    m_star = _recursion(sq.a_coef, sq.gain * x[tau + 1 :])

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


def error_report(trace: AdaptiveTrace, checkpoints) -> list[dict[str, float]]:
    """Normalized errors at t = floor(v*T) for each checkpoint v, against
    the truth the trace was run with (ValueError for a trace run without).

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
        t = math.floor(v * horizon)
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
