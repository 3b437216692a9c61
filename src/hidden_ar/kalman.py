"""Conditional-mean filters for the hidden AR(1) model.

Three forms, the last two from one pass over the observations:

* transient: the exact Kalman recursions with a running error variance
  gamma_t updated by the Riccati map,

      m_t = A_t*m_{t-1} + e_t*x_t,   A_t = a*sigma2/P_t,
      e_t = a*f*gamma_{t-1}/P_t,     P_t = sigma2 + f^2*gamma_{t-1},
      gamma_t = a^2*sigma2*gamma_{t-1}/P_t + b^2,

* stationary: gamma frozen at gamma_star, so m_t = A*m_{t-1} + e*x_t with
  constant coefficients A = a*sigma2/P and e = a*f*gamma_star/P,

* derivative: the track dm_t = d m_t / d psi obtained by differentiating the
  stationary recursion in a coordinate psi with the observations held fixed,

      dm_t = A*dm_{t-1} + dA_psi*m_{t-1} + de_psi*x_t.

The same pass gives the score increments of the Gaussian innovation
likelihood that the one-step estimator sums,

    g_s = (x_s - f m_{s-1}) Mdot_{s-1} / P
          + ((x_s - f m_{s-1})^2 - P) Pdot / (2 P^2),

where Mdot = d(f m)/d psi = f dm, plus m for psi = f, and Pdot = dP/d psi.

Time indexing matches the observations: m[0] is the supplied initial value
and m[t] is computed from x[t], so innovations exist for t >= 1 only.

Two kernels run every recursion m_t = A_t*m_{t-1} + e_t*x_t. Constant
coefficients (the stationary filter and its derivative tracks) go through
scipy's lfilter. Per-step coefficients (the transient filter, and the
adaptive filter's plug-in steps) go through _recursion, one LAPACK dgttrs
solve of the unit lower bidiagonal system m_t - A_t m_{t-1} = e_t x_t,
handed over already factored: L with subdiagonal -A_t, U = I, identity
pivots. dgttrs then eliminates nothing; its forward pass computes
e_t x_t - (-A_t) m_{t-1}, which rounds exactly as the recursion's multiply
and add, and its back pass subtracts 0 * m and divides by 1, so the track
equals the step-by-step loop bit for bit. solve_banded and BLAS dtbsv stay
unused: their kernels may fuse the multiply-add into one rounding. _solve is
that solve without _recursion's finiteness check, for callers that join
several recursions into one system and check each end themselves. The only
per-step Python work left in the transient filter is the variance
recursion gamma_t = riccati_map(gamma_{t-1}), which does not read x.
Where gamma_{t-1} passes model_core._large_variance, sigma2*gamma or
f^2*gamma may overflow, so the transient filter divides A_t, e_t and P_t
through by gamma_{t-1} there, as riccati_map does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.signal import lfilter

from .errors import as_real, as_series
from .model_core import (
    ModelParams,
    _large_variance,
    _variance_step,
    stationary,
    stationary_gradient,
)


@dataclass(frozen=True)
class FilterTrace:
    """Filter output aligned with the observations.

    m           : conditional means, same length as x (m[0] = m0)
    gamma       : error variances per step (transient) or the scalar
                  stationary value gamma_star
    innovations : standardized one-step errors (x_t - f*m_{t-1})/sqrt(P_t),
                  length len(m) - 1
    dm          : optional map coordinate -> derivative track, aligned with m
    """

    m: np.ndarray
    gamma: np.ndarray | float
    innovations: np.ndarray | None
    dm: dict[str, np.ndarray] | None


def filter_transient(
    params: ModelParams, x, m0: float = 0.0, gamma0: float = 0.0
) -> FilterTrace:
    """Exact Kalman filter with running error variance from gamma0 >= 0;
    ArithmeticError when the track is not finite."""
    x = as_series(x, 2)
    _require_finite(m0=m0, gamma0=gamma0)
    if gamma0 < 0.0:
        raise ValueError(f"need gamma0 >= 0, got {gamma0}")
    a, f, s2 = params.a, params.f, params.sigma2
    n = len(x)
    step = _variance_step(params)
    steps = itertools.accumulate(range(n - 1), lambda g, _: step(g), initial=gamma0)
    gamma = np.fromiter(steps, float, n)
    # Above _large_variance each fraction is divided through by gamma_{t-1}
    # (scale), so P_t = scale * p is never formed; at scale 1 the forms are
    # those of the module docstring, bit for bit.
    scale = np.where(gamma[:-1] > _large_variance(params), gamma[:-1], 1.0)
    g_prev = gamma[:-1] / scale
    p = s2 / scale + f * f * g_prev
    a_coef = a * (s2 / scale) / p
    drive = a * f * g_prev / p * x[1:]
    drive[0] += a_coef[0] * m0  # _recursion starts from 0; m_1 rounds as A_1*m0 + drive_1
    m = np.concatenate(([m0], _recursion(a_coef, drive)))
    zeta = (x[1:] - f * m[:-1]) / (np.sqrt(p) * np.sqrt(scale))
    return FilterTrace(m=m, gamma=gamma, innovations=zeta, dm=None)


def _recursion(a_coef: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """m_t = a_coef_t m_{t-1} + drive_t for t = 1..n from m_0 = 0, bit for bit;
    ArithmeticError when the track is not finite (a non-finite coefficient,
    or overflow)."""
    m = _solve(a_coef, drive)
    # A non-finite entry carries forward to m_n, so m_n stands for the track.
    _finite_end(m[-1])
    return m


def _solve(a_coef: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """_recursion's track without its finiteness check (a_coef_1 is unused)."""
    # L with subdiagonal -a_coef, U = I and identity pivots are the LU factors
    # of m_t - a_coef_t m_{t-1} = drive_t, so dgttrs eliminates nothing and
    # rounds as the recursion does (see the module docstring; not
    # solve_banded or dtbsv, whose BLAS kernels may fuse the multiply-add).
    # The wrapper needs n >= 3: two uncoupled zero rows pad every system.
    n = len(drive)
    lower = np.zeros(n + 1)
    np.negative(a_coef[1:], out=lower[: n - 1])
    rhs = np.zeros(n + 2)
    rhs[:n] = drive
    upper = np.zeros(n + 1)
    pivots = np.arange(1, n + 3, dtype=np.int32)
    m, _ = lapack.dgttrs(lower, np.ones(n + 2), upper, upper[:-1], pivots, rhs, overwrite_b=True)
    return m[:n]


def _finite_end(m_n: float) -> float:
    """m_n, the last value of a recursion's track, as a float; the
    ArithmeticError of _recursion when it is not finite."""
    m_n = float(m_n)
    if not math.isfinite(m_n):
        raise ArithmeticError(
            f"filter recursion not finite (m_n = {m_n}): a non-finite coefficient or an overflow"
        )
    return m_n


def _require_finite(**starts: float) -> None:
    for name, value in starts.items():
        if not math.isfinite(as_real(name, value)):
            raise ValueError(f"need a finite {name}, got {value}")


def _stationary_pass(
    params: ModelParams, x: np.ndarray, m0: float, dm0: float = 0.0, coords: tuple[str, ...] = ()
):
    """The stationary filter from m0 and, per coordinate in coords, its
    derivative track from dm0: (sq, m, resid, tracks), resid_t = x_t - f*m_{t-1}
    for t >= 1 and tracks a list of (stationary gradient, dm track) pairs."""
    sq = stationary(params)
    body, _ = lfilter([sq.gain], [1.0, -sq.a_coef], x[1:], zi=np.array([sq.a_coef * m0]))
    m = np.concatenate(([m0], body))
    resid = x[1:] - params.f * m[:-1]
    tracks = []
    for coord in coords:
        grad = stationary_gradient(params, coord)
        u = grad.d_a_coef * m[:-1] + grad.d_gain * x[1:]
        body, _ = lfilter([1.0], [1.0, -sq.a_coef], u, zi=np.array([sq.a_coef * dm0]))
        tracks.append((grad, np.concatenate(([dm0], body))))
    return sq, m, resid, tracks


def filter_stationary(params: ModelParams, x, m0: float = 0.0) -> FilterTrace:
    """Stationary filter m_t = A*m_{t-1} + (a*f*gamma_star/P)*x_t."""
    x = as_series(x, 2)
    _require_finite(m0=m0)
    sq, m, resid, _ = _stationary_pass(params, x, m0)
    return FilterTrace(m=m, gamma=sq.gamma_star, innovations=resid / math.sqrt(sq.p), dm=None)


def filter_derivative(
    params: ModelParams, x, wrt: str, m0: float = 0.0, dm0: float = 0.0
) -> FilterTrace:
    """Stationary filter plus its derivative track dm_t = A*dm_{t-1} +
    dA*m_{t-1} + de*x_t in wrt, with dA and de (the gain derivative) from the
    stationary gradient, for any of the four coordinates (else
    UnsupportedCoordinate)."""
    x = as_series(x, 2)
    _require_finite(m0=m0, dm0=dm0)
    sq, m, resid, [(_, dm)] = _stationary_pass(params, x, m0, dm0, (wrt,))
    return FilterTrace(m=m, gamma=sq.gamma_star, innovations=resid / math.sqrt(sq.p), dm={wrt: dm})


def _score_increments(
    params: ModelParams, x: np.ndarray, tau: int, coords: tuple[str, ...]
) -> np.ndarray:
    """Score increments g_s for s = tau+1 .. T, shape (T - tau, len(coords)).

    The filter and its derivative tracks are started at m = dm = 0 at s = tau
    and run on the tail observations only.
    """
    sq, m, resid, tracks = _stationary_pass(params, x[tau:], 0.0, 0.0, coords)
    p = sq.p
    m_prev = m[:-1]
    out = np.empty((len(resid), len(coords)))
    for j, (coord, (grad, dm)) in enumerate(zip(coords, tracks)):
        mdot = params.f * dm[:-1]
        if coord == "f":
            mdot = mdot + m_prev
        out[:, j] = resid * mdot / p + (resid * resid - p) * (grad.d_p / (2.0 * p * p))
    return out
