"""Conditional-mean filters for the hidden AR(1) model.

Three forms:

* transient: the exact Kalman recursions with a running error variance
  gamma_t updated by the Riccati map,

      m_t = (a*sigma2*m_{t-1} + a*f*gamma_{t-1}*x_t) / (sigma2 + f^2*gamma_{t-1}),

* stationary: gamma frozen at gamma_star, so m_t = A*m_{t-1} + e*x_t with
  constant coefficients A = a*sigma2/P and e = a*f*gamma_star/P,

* derivative: the track dm_t = d m_t / d psi obtained by differentiating the
  stationary recursion in a coordinate psi with the observations held fixed,

      dm_t = A*dm_{t-1} + dA_psi*m_{t-1} + de_psi*x_t.

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
    StationaryGradient,
    StationaryQuantities,
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


def _stationary_means(x: np.ndarray, m0: float, sq: StationaryQuantities) -> np.ndarray:
    body, _ = lfilter([sq.gain], [1.0, -sq.a_coef], x[1:], zi=np.array([sq.a_coef * m0]))
    return np.concatenate(([m0], body))


def _derivative_track(
    x: np.ndarray, m: np.ndarray, dm0: float, sq: StationaryQuantities, grad: StationaryGradient
) -> np.ndarray:
    """dm_t = A*dm_{t-1} + dA*m_{t-1} + de*x_t from dm0, given the m track."""
    u = grad.d_a_coef * m[:-1] + grad.d_gain * x[1:]
    body, _ = lfilter([1.0], [1.0, -sq.a_coef], u, zi=np.array([sq.a_coef * dm0]))
    return np.concatenate(([dm0], body))


def filter_stationary(params: ModelParams, x, m0: float = 0.0) -> FilterTrace:
    """Stationary filter m_t = A*m_{t-1} + (a*f*gamma_star/P)*x_t."""
    x = as_series(x, 2)
    _require_finite(m0=m0)
    sq = stationary(params)
    m = _stationary_means(x, m0, sq)
    zeta = (x[1:] - params.f * m[:-1]) / math.sqrt(sq.p)
    return FilterTrace(m=m, gamma=sq.gamma_star, innovations=zeta, dm=None)


def filter_derivative(
    params: ModelParams, x, wrt: str, m0: float = 0.0, dm0: float = 0.0
) -> FilterTrace:
    """Stationary filter plus its parameter-derivative track for wrt.

    Differentiating m_t = A*m_{t-1} + e*x_t in the coordinate with x fixed:

        dm_t = A*dm_{t-1} + dA*m_{t-1} + de*x_t,

    with dA and de (the gain derivative) from the stationary gradient, for
    any of the four coordinates (else UnsupportedCoordinate).
    """
    grad = stationary_gradient(params, wrt)
    x = as_series(x, 2)
    _require_finite(m0=m0, dm0=dm0)
    sq = stationary(params)
    m = _stationary_means(x, m0, sq)
    dm = _derivative_track(x, m, dm0, sq, grad)
    zeta = (x[1:] - params.f * m[:-1]) / math.sqrt(sq.p)
    return FilterTrace(m=m, gamma=sq.gamma_star, innovations=zeta, dm={wrt: dm})
