"""Conditional-mean filters for the hidden AR(1) model.

Three forms:

* transient: the exact Kalman recursions with a running error variance
  gamma_t updated by the Riccati map,

      m_t = (a*sigma2*m_{t-1} + a*f*gamma_{t-1}*x_t) / (sigma2 + f^2*gamma_{t-1}),

* stationary: gamma frozen at gamma_star, so m_t = A*m_{t-1} + e*x_t with
  constant coefficients A = a*sigma2/P and e = a*f*gamma_star/P,

* derivative: the track dm_t = d m_t / d psi obtained by differentiating the
  stationary recursion in the parameter with the observations held fixed,

      dm_t = A*dm_{t-1} + dA_psi*m_{t-1} + de_psi*x_t.

Time indexing matches the observations: m[0] is the supplied initial value
and m[t] is computed from x[t], so innovations exist for t >= 1 only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import SeriesTooShort, UnsupportedCoordinate
from .model_core import (
    ModelParams,
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
    params      : parameter point the filter ran at
    """

    m: np.ndarray
    gamma: np.ndarray | float
    innovations: np.ndarray | None
    dm: dict[str, np.ndarray] | None
    params: ModelParams


def _as_series(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise SeriesTooShort(f"need a 1-d series with at least 2 points, got shape {x.shape}")
    return x


def filter_transient(
    params: ModelParams, x, m0: float = 0.0, gamma0: float = 0.0
) -> FilterTrace:
    """Exact Kalman filter with running error variance from gamma0 >= 0."""
    x = _as_series(x)
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
    return FilterTrace(m=m, gamma=gamma, innovations=zeta, dm=None, params=params)


def _stationary_means(x: np.ndarray, m0: float, sq: StationaryQuantities) -> np.ndarray:
    body, _ = lfilter([sq.gain], [1.0, -sq.a_coef], x[1:], zi=np.array([sq.a_coef * m0]))
    return np.concatenate(([m0], body))


def filter_stationary(params: ModelParams, x, m0: float = 0.0) -> FilterTrace:
    """Stationary filter m_t = A*m_{t-1} + (a*f*gamma_star/P)*x_t."""
    x = _as_series(x)
    sq = stationary(params)
    m = _stationary_means(x, m0, sq)
    zeta = (x[1:] - params.f * m[:-1]) / math.sqrt(sq.p)
    return FilterTrace(m=m, gamma=sq.gamma_star, innovations=zeta, dm=None, params=params)


def filter_derivative(
    params: ModelParams, x, wrt: str, m0: float = 0.0, dm0: float = 0.0
) -> FilterTrace:
    """Stationary filter plus its parameter-derivative track for wrt.

    Differentiating m_t = A*m_{t-1} + e*x_t in the coordinate with x fixed:

        dm_t = A*dm_{t-1} + dA*m_{t-1} + de*x_t,

    with dA and de (the gain derivative) from the stationary gradient.
    Supported for f, b, a (sigma2 has no estimator downstream).
    """
    if wrt not in ("f", "b", "a"):
        raise UnsupportedCoordinate(f"no derivative filter for coordinate {wrt!r}")
    x = _as_series(x)
    sq = stationary(params)
    grad = stationary_gradient(params, wrt)
    m = _stationary_means(x, m0, sq)
    u = grad.d_a_coef * m[:-1] + grad.d_gain * x[1:]
    body, _ = lfilter([1.0], [1.0, -sq.a_coef], u, zi=np.array([sq.a_coef * dm0]))
    dm = np.concatenate(([dm0], body))
    zeta = (x[1:] - params.f * m[:-1]) / math.sqrt(sq.p)
    return FilterTrace(
        m=m, gamma=sq.gamma_star, innovations=zeta, dm={wrt: dm}, params=params
    )


def filter_to_csv(trace: FilterTrace, x, path: str) -> None:
    """Write columns t, x, m, gamma, innovation, dm_<coord>... with a header."""
    x = np.asarray(x, dtype=float)
    n = len(trace.m)
    gamma = trace.gamma
    if np.isscalar(gamma):
        gamma = np.full(n, float(gamma))
    dm_names = sorted(trace.dm) if trace.dm else []
    header = ["t", "x", "m", "gamma", "innovation"] + [f"dm_{name}" for name in dm_names]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(n):
            row = [t, repr(float(x[t])), repr(float(trace.m[t])), repr(float(gamma[t]))]
            row.append("" if t == 0 else repr(float(trace.innovations[t - 1])))
            for name in dm_names:
                row.append(repr(float(trace.dm[name][t])))
            writer.writerow(row)
