"""One-step maximum-likelihood estimator process.

one_step fits it for every unknown set that has a Fisher information
(model_core.INFORMATION_SETS: {b}, {f}, {a} and the pair (f, a)). The
pipeline is a preliminary method-of-moments estimate, then a single Fisher
scoring correction applied as a process in the upper time index,

    theta*_{t,T} = prelim + [I(prelim) (t - tau)]^{-1}
                   * sum_{s=tau+1..t} g_s(prelim),       t in [tau+2, T],

with tau = floor(T^delta), delta in (1/2, 1), and g_s the score increment
of the Gaussian innovation likelihood,

    g_s = (x_s - f m_{s-1}) Mdot_{s-1} / P
          + ((x_s - f m_{s-1})^2 - P) Pdot / (2 P^2),

where Mdot = d(f m)/d psi, all tracks run once at the frozen preliminary
point with m = dm = 0 at s = tau. The preliminary is computed from the
whole series: a preliminary restricted to the short prefix [0, tau] is too
noisy for the scoring step to be effectively linear at practical horizons
(its error enters the corrected estimate quadratically). The full-series
moment estimate shrinks that residual, but not equally for every
coordinate. At a=0.5, b=f=sigma2=1, T=1e4 and R=300, t*Var/I^{-1} at t=T
is 1.07 for b and for f, so the process attains the information bound
there (acceptance criterion 07 checks b). For a it is 2.32, against 1.00
for the MLE on the same series: the residual of the noisier preliminary
for a is still visible, and the ratio nears 1 only at longer horizons
(about 1.1 at T=1e5). The learning index tau only sets where the
correction sum starts. Every emitted point is clipped into the
closed bounds box.

one_step's method selects an O(T) batch evaluation (cumulative sums) or
the algebraically identical recurrent update

    u_t = u_{t-1} + ((t - tau))^{-1} (I^{-1} g_t - u_{t-1});

the two agree to machine rounding and serve as mutual oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooShort, as_series, as_whole
from .kalman import _derivative_track, _stationary_means
from .model_core import ModelParams, ParamProblem, fisher_info, stationary, stationary_gradient
from .moments import MmeEstimate, mme


@dataclass(frozen=True)
class EstimatorTrace:
    """A one-step estimator path.

    tau     : learning interval end (start of the correction sum)
    prelim  : preliminary estimate (canonical coordinate order)
    path    : array of shape (T - tau - 1, dim), row j is theta*_{t,T} at
              t = tau + 2 + j
    delta   : learning exponent used
    t_grid  : the time indices tau+2 .. T matching the path rows
    clipped : per-row flag, True when any coordinate was clipped
    problem : the estimation problem (for coordinate names and bounds)
    prelim_estimate : the MME result with clip and degeneracy flags, or
              None when an explicit preliminary was supplied
    """

    tau: int
    prelim: np.ndarray
    path: np.ndarray
    delta: float
    t_grid: np.ndarray
    clipped: np.ndarray
    problem: ParamProblem
    prelim_estimate: MmeEstimate | None

    @property
    def horizon(self) -> int:
        return int(self.t_grid[-1])

    def theta_at(self, t: int) -> np.ndarray:
        """The estimate in force at time t: the preliminary for
        t <= tau + 1, the path value afterwards."""
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


def _score_increments(
    params: ModelParams, x: np.ndarray, tau: int, coords: tuple[str, ...]
) -> np.ndarray:
    """Score increments g_s for s = tau+1 .. T, shape (T - tau, len(coords)).

    The filter and its derivative tracks are started at m = dm = 0 at s = tau
    and run on the tail observations only.
    """
    tail = x[tau:]
    sq = stationary(params)
    p = sq.p
    m = _stationary_means(tail, 0.0, sq)
    m_prev = m[:-1]
    resid = tail[1:] - params.f * m_prev
    out = np.empty((len(tail) - 1, len(coords)))
    for j, coord in enumerate(coords):
        grad = stationary_gradient(params, coord)
        mdot = params.f * _derivative_track(tail, m, 0.0, sq, grad)[:-1]
        if coord == "f":
            mdot = mdot + m_prev
        out[:, j] = resid * mdot / p + (resid * resid - p) * (grad.d_p / (2.0 * p * p))
    return out


def one_step(
    x, problem: ParamProblem, delta: float = 0.6, method: str = "batch", prelim=None
) -> EstimatorTrace:
    """One-step MLE process for an unknown set in INFORMATION_SETS ({b}, {f},
    {a} or the pair (f, a)); any other set raises UnsupportedSet.

    method is "batch" (cumulative sums) or "recurrent" (the running update).
    prelim, when given, replaces the moment preliminary with explicit values
    in canonical coordinate order (clipped into bounds; NaN or inf raises
    ValueError); useful for crafted scenarios and for studying the
    correction in isolation.
    """
    if method not in ("batch", "recurrent"):
        raise ValueError(f"method must be 'batch' or 'recurrent', got {method!r}")
    x = as_series(x, 2)
    horizon = len(x) - 1
    tau = learning_interval(horizon, delta)
    if prelim is None:
        prelim_est = mme(x, problem)
        prelim_values = prelim_est.values
    else:
        prelim_est = None
        prelim = np.atleast_1d(np.asarray(prelim, dtype=float))
        if not np.isfinite(prelim).all():
            raise ValueError(f"need a finite preliminary, got {prelim.tolist()}")
        prelim_values, _ = problem.clip(prelim)
    params_tau = problem.point(prelim_values)
    inv = np.linalg.inv(fisher_info(params_tau, problem.unknown))

    g = _score_increments(params_tau, x, tau, problem.unknown)
    steps = np.arange(1, len(g) + 1, dtype=float)  # t - tau for t = tau+1..T
    if method == "batch":
        u = np.cumsum(g, axis=0) @ inv / steps[:, None]
    else:
        u = np.empty_like(g)
        corr = g @ inv
        prev = np.zeros(g.shape[1])
        for j in range(len(g)):
            prev = prev + (corr[j] - prev) / steps[j]
            u[j] = prev

    path, side = problem.clip(prelim_values[None, :] + u[1:])  # t = tau+2 .. T
    return EstimatorTrace(
        tau=tau,
        prelim=prelim_values,
        path=path,
        delta=delta,
        t_grid=np.arange(tau + 2, horizon + 1),
        clipped=side.any(axis=1),
        problem=problem,
        prelim_estimate=prelim_est,
    )
