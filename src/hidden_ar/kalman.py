"""Conditional-mean filters for the hidden AR(1) model.

Three forms, the last two from one pass over the observations:

* transient: the exact Kalman recursions with a running error variance
  gamma_t updated by the Riccati map,

      m_t = (a*sigma2*m_{t-1} + a*f*gamma_{t-1}*x_t) / (sigma2 + f^2*gamma_{t-1}),

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import as_real, as_series
from .model_core import (
    ModelParams,
    riccati_map,
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
    """Exact Kalman filter with running error variance from gamma0 >= 0."""
    x = as_series(x, 2)
    _require_finite(m0=m0, gamma0=gamma0)
    if gamma0 < 0.0:
        raise ValueError(f"need gamma0 >= 0, got {gamma0}")
    a, f, s2 = params.a, params.f, params.sigma2
    n = len(x)
    m = np.empty(n)
    gamma = np.empty(n)
    zeta = np.empty(n - 1)
    m[0] = m0
    gamma[0] = gamma0
    for t in range(1, n):
        p = s2 + f * f * gamma[t - 1]
        zeta[t - 1] = (x[t] - f * m[t - 1]) / math.sqrt(p)
        m[t] = (a * s2 * m[t - 1] + a * f * gamma[t - 1] * x[t]) / p
        gamma[t] = riccati_map(params, gamma[t - 1])
    return FilterTrace(m=m, gamma=gamma, innovations=zeta, dm=None)


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
