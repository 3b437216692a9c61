"""Gaussian innovation likelihood, full MLE, and the Bayes estimator.

The exact log-likelihood under the stationary filter is

    L(theta) = -(T/2) ln(2 pi P(theta))
               - sum_{t=1..T} (x_t - f m_{t-1}(theta))^2 / (2 P(theta)),

with the m-track run from m0 = 0. It depends on the data only through a few
lagged products. Write z_t = x_t for t = 1..T and y_t = A y_{t-1} + z_t with
y_0 = 0, so that m_t = e y_t, and let c = f e. Summing
y_t^2 = (A y_{t-1} + z_t)^2 over t gives the residual sum of squares

    SSR = S0 - 2 c S1 + c^2 (S0 + 2 A S1 - y_T^2) / (1 - A^2),

    S0 = sum_t z_t^2,   S1 = sum_{j>=1} A^(j-1) R_j,   R_j = sum_t z_t z_{t-j},
    y_T = sum_k A^(T-k) z_k.

The sums over lags are cut at J. Since A = a sigma2 / P with P > sigma2,
|A| < |a|, and |R_j| <= S0 by Cauchy-Schwarz; taking the smallest J with
a_max^J / (1 - a_max) <= eps/4, a_max the largest |a| the evaluation can
meet, leaves out only rounding-size terms. J never exceeds T, and at J = T
nothing is cut. S0, R_1..R_J and the last J observations are computed once
per series in O(T J); after that each parameter node costs O(J) (Horner's
rule in A), so grid scans and refinement steps never revisit the series.

The MLE maximizes L over the closed bounds box by a coarse grid scan (256
nodes per dimension) followed by coordinate-wise golden-section refinement
to bracket width 1e-8. The Bayes estimator is the posterior mean under a
positive prior on the box, computed by trapezoid quadrature over the same
kind of product grid with log-sum-exp stabilized weights.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePosterior, FlatLikelihood, as_series
from .model_core import ModelParams, ParamProblem, stationary_from

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID = 256
_BRACKET_TOL = 1e-8
_FLAT_TOL = 1e-9
_TAIL_TOL = 2.0**-54  # eps/4 for float64


@dataclass(frozen=True)
class PosteriorSpec:
    """Quadrature settings for the Bayes estimator.

    prior     : None for the uniform density on the box, or a sequence of
                (value, density) pairs interpolated onto the quadrature grid
                (scalar problems only); densities must be positive
    grid_size : nodes per dimension, at least 64
    """

    prior: tuple[tuple[float, float], ...] | None = None
    grid_size: int = 512


@dataclass(frozen=True)
class _LagStatistics:
    """What the likelihood uses of one series: the horizon T, S0, the lagged
    products R_1..R_J and the last J observations z_T, ..., z_{T-J+1}."""

    horizon: int
    s0: float
    lagged: list[float]
    recent: list[float]


def _lag_statistics(x, a_max: float) -> _LagStatistics:
    """Statistics of x for evaluations with |a| <= a_max, in O(T J)."""
    z = as_series(x, 2)[1:]
    horizon = len(z)
    lags = 1
    if a_max > 0.0:
        lags = math.ceil(math.log(_TAIL_TOL * (1.0 - a_max)) / math.log(a_max))
    lags = max(1, min(lags, horizon))
    return _LagStatistics(
        horizon=horizon,
        s0=float(z @ z),
        lagged=[float(z[j:] @ z[:-j]) for j in range(1, lags + 1)],
        recent=z[::-1][:lags].tolist(),
    )


def _horner(coefs: list[float], x):
    """sum_k coefs[k] * x^k for a float or an array x."""
    acc = 0.0
    for c in reversed(coefs):
        acc *= x
        acc += c
    return acc


def _evaluate(stats: _LagStatistics, a, b, f, sigma2):
    """Log-likelihood from the lag statistics (see the module docstring) at
    floats or broadcast arrays of coordinates; O(J) per node. Float inputs
    stay on Python float arithmetic."""
    sq = stationary_from(a, b, f, sigma2)
    big_a = sq.a_coef
    c = f * sq.gain
    s1 = _horner(stats.lagged, big_a)
    y_last = _horner(stats.recent, big_a)
    sum_y2 = (stats.s0 + 2.0 * big_a * s1 - y_last * y_last) / (1.0 - big_a * big_a)
    ssr = stats.s0 - 2.0 * c * s1 + c * c * sum_y2
    log = np.log if isinstance(sq.p, np.ndarray) else math.log
    return -0.5 * stats.horizon * log(2.0 * math.pi * sq.p) - ssr / (2.0 * sq.p)


def log_likelihood(x, candidate: ModelParams) -> float:
    """Exact Gaussian log-likelihood of x at the candidate point."""
    stats = _lag_statistics(x, abs(candidate.a))
    return _evaluate(stats, candidate.a, candidate.b, candidate.f, candidate.sigma2)


def _objective(x, problem: ParamProblem):
    """The log-likelihood of x as a function of the problem's unknown
    coordinates, taking one argument per unknown in canonical order: floats,
    or arrays that broadcast, such as the columns of an (n, dim) node array
    or the arrays of a meshgrid. The lag statistics are computed once, here."""
    if "a" in problem.bounds:
        a_max = max(abs(v) for v in problem.bounds["a"])
    else:
        a_max = abs(problem.known["a"])
    stats = _lag_statistics(x, a_max)

    def value(*columns):
        return _evaluate(stats, **problem.coordinates(columns))

    return value


def _golden(fun, lo: float, hi: float) -> float:
    """Golden-section maximization on [lo, hi]; ties keep the left
    subinterval so equal-likelihood plateaus resolve toward smaller values."""
    a, b = lo, hi
    h = b - a
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    yc = fun(c)
    yd = fun(d)
    while h > _BRACKET_TOL:
        if yc >= yd:
            b, d, yd = d, c, yc
            h = b - a
            c = b - _INVPHI * h
            yc = fun(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INVPHI * h
            yd = fun(d)
    return 0.5 * (a + b)


def _grid(problem: ParamProblem, size: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The axes of the size^dim product grid over the bounds box and its
    node coordinates, one array of shape (size,) * dim per unknown."""
    axes = [np.linspace(*problem.bounds[name], size) for name in problem.unknown]
    return axes, np.meshgrid(*axes, indexing="ij")


def mle(x, problem: ParamProblem) -> np.ndarray:
    """Maximum-likelihood estimate of the unknown coordinates (canonical
    order). Emits a FlatLikelihood warning and returns the grid argmax when
    the likelihood surface is flat to within 1e-9 across the scan."""
    problem.require_complete()
    if problem.dim not in (1, 2):
        raise ValueError(f"mle supports 1 or 2 unknowns, got {problem.unknown}")
    fun = _objective(x, problem)
    axes, nodes = _grid(problem, _GRID)
    values = fun(*nodes)
    best = np.unravel_index(int(np.argmax(values)), values.shape)
    point = [float(axis[i]) for axis, i in zip(axes, best)]
    if float(values.max() - values.min()) < _FLAT_TOL:
        warnings.warn("likelihood flat across the scan grid", FlatLikelihood)
        return np.array(point)
    bounds = [problem.bounds[name] for name in problem.unknown]
    spacing = [float(axis[1] - axis[0]) for axis in axes]
    # Coordinate-wise refinement, cycling until every coordinate is optimal
    # given the others: a coordinate that moves resets the count to 1.
    quiet = 0
    for step in range(50 * problem.dim):
        k = step % problem.dim
        lo = max(bounds[k][0], point[k] - spacing[k])
        hi = min(bounds[k][1], point[k] + spacing[k])

        def along(g):
            trial = list(point)
            trial[k] = g
            return fun(*trial)

        refined = _golden(along, lo, hi)
        quiet = quiet + 1 if abs(refined - point[k]) < _BRACKET_TOL else 1
        point[k] = refined
        if quiet == problem.dim:
            break
    return np.array(point)


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.full(len(axis), axis[1] - axis[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _prior_on_grid(prior, axis: np.ndarray) -> np.ndarray:
    pairs = np.asarray(prior, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("prior must be a sequence of (value, density) pairs")
    order = np.argsort(pairs[:, 0])
    dens = np.interp(axis, pairs[order, 0], pairs[order, 1])
    if not np.all(dens > 0.0):
        raise ValueError("prior density must be positive on the whole box")
    return dens


def bayes(x, problem: ParamProblem, spec: PosteriorSpec | None = None) -> np.ndarray:
    """Posterior-mean estimate of the unknown coordinates under the prior."""
    problem.require_complete()
    if spec is None:
        spec = PosteriorSpec()
    if spec.grid_size < 64:
        raise ValueError(f"need grid_size >= 64, got {spec.grid_size}")
    if problem.dim not in (1, 2):
        raise ValueError(f"bayes supports 1 or 2 unknowns, got {problem.unknown}")
    if problem.dim == 2 and spec.prior is not None:
        raise ValueError("tabulated priors are supported for scalar problems only")
    fun = _objective(x, problem)
    axes, nodes = _grid(problem, spec.grid_size)
    weights = functools.reduce(np.multiply.outer, [_trapezoid_weights(axis) for axis in axes])
    if spec.prior is not None:
        weights = weights * _prior_on_grid(spec.prior, axes[0])
    ll = fun(*nodes)
    ll = ll - ll.max()
    mass = np.exp(ll) * weights
    total = float(mass.sum())
    if not (math.isfinite(total) and total > 0.0):
        raise DegeneratePosterior("posterior weights vanished after stabilization")
    mean = np.array([float((node * mass).sum() / total) for node in nodes])
    # A weighted mean of nodes lies in the box, but with all the mass on an
    # edge node its rounding can pass that edge by one ulp.
    return problem.clip(mean)[0]
