"""One-step maximum-likelihood estimator process.

one_step fits it for every unknown set ParamProblem accepts, with the one
Fisher information formula of model_core.fisher_info. The pipeline is a
preliminary method-of-moments estimate, then a single Fisher scoring
correction applied as a process in the upper time index,

    theta*_{t,T} = prelim + [I(prelim) (t - tau)]^{-1}
                   * sum_{s=tau+1..t} g_s(prelim),       t in [tau+2, T],

with tau = floor(T^delta), delta in (1/2, 1), and g_s the score increment
of the Gaussian innovation likelihood (formula in the kalman module), all
tracks run once at the frozen preliminary point with m = dm = 0 at s = tau.
The preliminary is computed from the whole series: a preliminary restricted
to the short prefix [0, tau] is too noisy for the scoring step to be
effectively linear at practical horizons (its error enters the corrected
estimate quadratically). The full-series moment estimate shrinks that
residual, but not equally for every coordinate. At a=0.5, b=f=sigma2=1,
T=1e4 and R=300, t*Var/I^{-1} at t=T is 1.07 for b and for f, so the
process attains the information bound there (acceptance criterion 07 checks
b), and 1.03 for sigma2 (R=1000, seed 5). For a it is 1.87-2.20 (seeds 5
and 3) and 1.96 (seed 11), against 1.00 for the MLE on the same series: the
residual of the noisier preliminary for a is still visible, and the ratio
nears 1 only at longer horizons (about 1.1 at T=1e5). The learning index
tau only sets where the correction sum starts. Every emitted point is
clipped into the closed bounds box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooShort, as_real, as_series, as_whole
from .kalman import _score_increments
from .model_core import ParamProblem, fisher_info
from .moments import MmeEstimate, mme


@dataclass(frozen=True)
class EstimatorTrace:
    """A one-step estimator path.

    tau     : learning interval end (start of the correction sum)
    prelim  : preliminary estimate (canonical coordinate order)
    path    : array of shape (T - tau - 1, dim), row j is theta*_{t,T} at
              t = tau + 2 + j
    t_grid  : the time indices tau+2 .. T matching the path rows
    clipped : per-row flag, True when any coordinate was clipped
    prelim_estimate : the MME result with clip and degeneracy flags, or
              None when an explicit preliminary was supplied
    """

    tau: int
    prelim: np.ndarray
    path: np.ndarray
    t_grid: np.ndarray
    clipped: np.ndarray
    prelim_estimate: MmeEstimate | None

    @property
    def horizon(self) -> int:
        return int(self.t_grid[-1])

    def theta_at(self, t: int) -> np.ndarray:
        """The estimate in force at a whole time t: the preliminary for
        t <= tau + 1, the path value afterwards."""
        t = as_whole("t", t)
        if t < self.tau:
            raise ValueError(f"no estimate before the learning interval end {self.tau}, got t={t}")
        if t > self.horizon:
            raise ValueError(f"t={t} beyond the horizon {self.horizon}")
        if t <= self.tau + 1:
            return self.prelim
        return self.path[t - self.tau - 2]


def learning_interval(horizon: int, delta: float) -> int:
    """tau = floor(T^delta), guarded against floating-point dips just below
    an exact integer power; requires a whole T with tau <= T - 2."""
    delta = as_real("delta", delta)
    if not 0.5 < delta < 1.0:
        raise ValueError(f"need delta in (0.5, 1), got {delta}")
    horizon = as_whole("horizon", horizon)
    if horizon < 16:
        raise HorizonTooShort(f"need T >= 16, got {horizon}")
    power = float(horizon) ** delta
    tau = math.floor(power)
    if (tau + 1) - power < 1e-8 * max(power, 1.0):
        tau += 1
    if tau > horizon - 2:
        raise HorizonTooShort(f"tau={tau} leaves no estimation window in T={horizon}")
    return tau


def one_step(x, problem: ParamProblem, delta: float = 0.6, prelim=None) -> EstimatorTrace:
    """One-step MLE process for the problem's unknown set.

    The correction sums of every row come from one cumulative sum of the
    score increments, O(T) for the whole path. prelim, when given, replaces
    the moment preliminary with explicit values in canonical coordinate
    order; a value outside its bounds, NaN or inf raises ValueError. It
    serves crafted scenarios and the study of the correction in isolation.
    """
    x = as_series(x, 2)
    horizon = len(x) - 1
    tau = learning_interval(horizon, delta)
    if prelim is None:
        prelim_est = mme(x, problem)
        prelim_values = prelim_est.values
    else:
        prelim_est = None
        prelim_values = np.array(prelim, dtype=float, ndmin=1)
        if not np.isfinite(prelim_values).all():
            raise ValueError(f"need a finite preliminary, got {prelim_values.tolist()}")
        _, side = problem.clip(prelim_values)
        for name, value, out in zip(problem.unknown, prelim_values.tolist(), side):
            if out:
                raise ValueError(f"preliminary {name}={value} is outside its bounds {problem.bounds[name]}")
    params_tau = problem.point(prelim_values)
    inv = np.linalg.inv(fisher_info(params_tau, problem.unknown))

    g = _score_increments(params_tau, x, tau, problem.unknown)
    steps = np.arange(1, len(g) + 1, dtype=float)  # t - tau for t = tau+1..T
    u = np.cumsum(g, axis=0) @ inv / steps[:, None]
    path, side = problem.clip(prelim_values[None, :] + u[1:])  # t = tau+2 .. T
    return EstimatorTrace(
        tau=tau,
        prelim=prelim_values,
        path=path,
        t_grid=np.arange(tau + 2, horizon + 1),
        clipped=side.any(axis=1),
        prelim_estimate=prelim_est,
    )
