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

one_step stores the cumulative score sums and I(prelim)^{-1}; a row of the
process is formed (matmul, divide, add and clip) only when it is read,
through EstimatorTrace.rows, and equals the row of the whole path formed at
once bit for bit.
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
    """A one-step estimator path, stored as its correction sums: path rows
    are formed only when read, by :meth:`rows`.

    tau     : learning interval end (start of the correction sum)
    prelim  : preliminary estimate (canonical coordinate order)
    score_sums : shape (T - tau, dim); row j is sum_{s=tau+1..tau+1+j} g_s(prelim)
    inverse_information : I(prelim)^{-1}
    problem : the estimation problem, whose bounds box clips every row
    prelim_estimate : the MME result with clip and degeneracy flags, or
              None when an explicit preliminary was supplied

    ``path``, ``clipped``, ``t_grid`` and ``theta_at`` read through
    :meth:`rows`: path row j is theta*_{t,T} at t = tau + 2 + j, clipped
    flags the rows where any coordinate was clipped, and t_grid holds the
    times tau+2 .. T.
    """

    tau: int
    prelim: np.ndarray
    score_sums: np.ndarray
    inverse_information: np.ndarray
    problem: ParamProblem
    prelim_estimate: MmeEstimate | None

    @property
    def horizon(self) -> int:
        return self.tau + len(self.score_sums)

    def rows(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """theta*_{t,T} for t = start..stop, tau + 2 <= start <= stop <= T,
        and their per-row clip flags: the whole path's rows bit for bit, as
        each row is formed from its own sums alone."""
        if not self.tau + 2 <= start <= stop <= self.horizon:
            raise ValueError(f"path rows cover [{self.tau + 2}, {self.horizon}], got [{start}, {stop}]")
        lo, hi = start - self.tau - 1, stop - self.tau
        steps = np.arange(lo + 1, hi + 1, dtype=float)  # t - tau
        u = self.score_sums[lo:hi] @ self.inverse_information / steps[:, None]
        values, side = self.problem.clip(self.prelim[None, :] + u)
        return values, side.any(axis=1)

    @property
    def path(self) -> np.ndarray:
        return self.rows(self.tau + 2, self.horizon)[0]

    @property
    def clipped(self) -> np.ndarray:
        return self.rows(self.tau + 2, self.horizon)[1]

    @property
    def t_grid(self) -> np.ndarray:
        return np.arange(self.tau + 2, self.horizon + 1)

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
        return self.rows(t, t)[0][0]


def _guarded_floor(value: float) -> int:
    """floor(value) for value >= 0, raised by one where value lies within a
    relative 1e-8 below the next integer: a power or product that is whole in
    exact arithmetic may round just below it (0.57 * 10000 = 5699.999...)."""
    whole = math.floor(value)
    if (whole + 1) - value < 1e-8 * max(value, 1.0):
        whole += 1
    return whole


def learning_interval(horizon: int, delta: float) -> int:
    """tau = floor(T^delta), guarded against floating-point dips just below
    an exact integer power (_guarded_floor); requires a whole T with
    tau <= T - 2."""
    delta = as_real("delta", delta)
    if not 0.5 < delta < 1.0:
        raise ValueError(f"need delta in (0.5, 1), got {delta}")
    horizon = as_whole("horizon", horizon)
    if horizon < 16:
        raise HorizonTooShort(f"need T >= 16, got {horizon}")
    tau = _guarded_floor(float(horizon) ** delta)
    if tau > horizon - 2:
        raise HorizonTooShort(f"tau={tau} leaves no estimation window in T={horizon}")
    return tau


def one_step(x, problem: ParamProblem, delta: float = 0.6, prelim=None) -> EstimatorTrace:
    """One-step MLE process for the problem's unknown set.

    The correction sums of every row come from one cumulative sum of the
    score increments, O(T); the trace stores them with the inverse
    information, and a row costs its own matmul, divide and clip only when
    read. prelim, when given, replaces the moment preliminary with explicit
    values in canonical coordinate order; a value outside its bounds, NaN
    or inf raises ValueError. It serves crafted scenarios and the study of
    the correction in isolation.
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
    return EstimatorTrace(
        tau=tau,
        prelim=prelim_values,
        score_sums=np.cumsum(g, axis=0),
        inverse_information=inv,
        problem=problem,
        prelim_estimate=prelim_est,
    )
