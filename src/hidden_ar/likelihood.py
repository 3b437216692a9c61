"""Gaussian innovation likelihood, full MLE, and the Bayes estimator.

The log-likelihood of the stationary filter run from m0 = 0 is

    L(theta) = -(T/2) ln(2 pi P(theta))
               - sum_{t=1..T} (x_t - f m_{t-1}(theta))^2 / (2 P(theta)).

It depends on the data only through a few lagged products. Write z_t = x_t
for t = 1..T and y_t = A y_{t-1} + z_t with y_0 = 0, so that m_t = e y_t, and
let c = f e. Summing y_t^2 = (A y_{t-1} + z_t)^2 over t gives the residual
sum of squares

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
nodes per dimension) followed by coordinate-wise bounded Brent searches
(scipy.optimize.fminbound), each over one grid spacing either side of the
current point, to a tolerance of 1e-9 times the coordinate's box width. The
Bayes estimator is the posterior mean under a positive prior on the box,
computed by trapezoid quadrature over a product grid of grid_size nodes per
dimension with log-sum-exp stabilized weights.

Both read a likelihood surface: the lag statistics of one series plus the
values at the nodes of every product grid asked for, from one evaluation
over their concatenated nodes (elementwise, so each node's value is the one
a separate evaluation gives). Called alone, mle and bayes build a surface
holding their own grid. The Monte Carlo harness builds one per checkpoint
prefix holding the grid of each of the two it selects and passes it to
each, so when it selects both they share the statistics and the grid pass.
A node value that is not finite (observations so large that the residual
sum of squares overflows) raises ObservationsOverflow when its grid is
read, as do a non-finite refined MLE value and a non-finite log_likelihood.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import fminbound

from .errors import (
    DegeneratePosterior,
    FlatLikelihood,
    ObservationsOverflow,
    UnsupportedSet,
    as_series,
    as_whole,
)
from .model_core import ModelParams, ParamProblem, stationary_from

_FLAT_TOL = 1e-9
_TAIL_TOL = 2.0**-54  # eps/4 for float64
# The most unknowns mle and bayes take: their grids hold size^dim nodes.
MAX_DIM = 2
# Nodes per dimension of the product grid each grid estimator reads: mle's
# scan, and bayes's posterior grid at its default grid_size.
_GRIDS = {"mle": 256, "bayes": 512}


@dataclass(frozen=True)
class _LagStatistics:
    """What the likelihood uses of one series: the horizon T, S0, the lagged
    products R_1..R_J and the last J observations z_T, ..., z_{T-J+1}."""

    horizon: int
    s0: float
    lagged: list[float]
    recent: list[float]


def _overflow(x, what: str) -> ObservationsOverflow:
    """ObservationsOverflow saying what is not finite, with the largest |x_t|."""
    largest = float(np.abs(as_series(x, 2)[1:]).max())
    return ObservationsOverflow(f"{what} (largest |x_t| = {largest:.3g})")


def _lag_statistics(x, a_max: float) -> _LagStatistics:
    """Statistics of x for evaluations with |a| <= a_max, in O(T J);
    ObservationsOverflow when S0 or a lagged product is not finite."""
    z = as_series(x, 2)[1:]
    horizon = len(z)
    lags = 1
    if a_max > 0.0:
        lags = math.ceil(math.log(_TAIL_TOL * (1.0 - a_max)) / math.log(a_max))
    lags = max(1, min(lags, horizon))
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        s0 = float(z @ z)
        lagged = [float(z[j:] @ z[:-j]) for j in range(1, lags + 1)]
    if not (math.isfinite(s0) and all(map(math.isfinite, lagged))):
        raise _overflow(x, "sums of products of x overflow")
    return _LagStatistics(horizon=horizon, s0=s0, lagged=lagged, recent=z[::-1][:lags].tolist())


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
    """Log-likelihood of x under the stationary filter at the candidate point,
    with the filter's mean started at m0 = 0 (the module docstring gives the
    formula); ObservationsOverflow when it is not finite."""
    stats = _lag_statistics(x, abs(candidate.a))
    value = _evaluate(stats, candidate.a, candidate.b, candidate.f, candidate.sigma2)
    if not math.isfinite(value):
        raise _overflow(x, "the log-likelihood of x is not finite at the candidate")
    return value


def _grid(problem: ParamProblem, size: int) -> tuple[list[np.ndarray], tuple[np.ndarray, ...]]:
    """The axes of the size^dim product grid over the bounds box and its
    node coordinates, one array of shape (size,) * dim per unknown."""
    axes = [np.linspace(*problem.bounds[name], size) for name in problem.unknown]
    return axes, np.meshgrid(*axes, indexing="ij")


class _Surface:
    """The log-likelihood of one series x as a function of a problem's
    unknown coordinates, for mle and bayes to read.

    Building it computes the lag statistics once and evaluates the product
    grids of the given sizes (nodes per dimension, one or more) in one pass
    over their concatenated nodes. More than MAX_DIM unknowns raise
    UnsupportedSet. Each grid is checked when read: a node value that is not
    finite raises ObservationsOverflow counting that grid's nodes. Calling
    it evaluates one argument per unknown in canonical order: floats, or
    arrays that broadcast.
    """

    def __init__(self, x, problem: ParamProblem, sizes):
        if problem.dim > MAX_DIM:
            raise UnsupportedSet(f"the likelihood grid takes at most {MAX_DIM} unknowns, got {problem.unknown}")
        if "a" in problem.bounds:
            a_max = max(abs(v) for v in problem.bounds["a"])
        else:
            a_max = abs(problem.known["a"])
        self._x = x
        self._problem = problem
        self._stats = _lag_statistics(x, a_max)
        grids = {size: _grid(problem, size) for size in sizes}
        columns = [np.concatenate([nodes[k].ravel() for _, nodes in grids.values()]) for k in range(problem.dim)]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported by grid()
            values = self(*columns)
        self._grids = {}
        start = 0
        for size, (axes, nodes) in grids.items():
            stop = start + nodes[0].size
            self._grids[size] = (axes, nodes, values[start:stop].reshape(nodes[0].shape))
            start = stop

    @classmethod
    def for_estimators(cls, x, problem: ParamProblem, names) -> "_Surface":
        """A surface holding the grid each named estimator (mle, bayes)
        reads at its defaults."""
        return cls(x, problem, [_GRIDS[name] for name in names])

    def __call__(self, *columns):
        return _evaluate(self._stats, **self._problem.coordinates(columns))

    def grid(self, size: int) -> tuple[list[np.ndarray], tuple[np.ndarray, ...], np.ndarray]:
        """The axes, node coordinates and log-likelihood values of the
        size^dim grid, each array of shape (size,) * dim."""
        axes, nodes, values = self._grids[size]
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            raise _overflow(self._x, f"the log-likelihood of x is not finite at {bad} of {values.size} grid nodes")
        return axes, nodes, values


def mle(x, problem: ParamProblem, *, _surface: _Surface | None = None) -> np.ndarray:
    """Maximum-likelihood estimate of at most MAX_DIM unknown coordinates
    (canonical order; more raise UnsupportedSet): the argmax of a 256-node
    scan per dimension, refined by bounded Brent searches one coordinate at
    a time until none moves by 1e-9 of its box width. Emits a FlatLikelihood
    warning and returns the grid argmax when the likelihood surface is flat
    to within 1e-9 across the scan. ObservationsOverflow when the likelihood
    is not finite at a scan node or at the refined point.

    _surface, when given, is a likelihood surface of x and problem holding
    the scan grid: the Monte Carlo harness passes one per prefix."""
    problem.require_complete()
    size = _GRIDS["mle"]
    surface = _Surface(x, problem, (size,)) if _surface is None else _surface
    axes, _, values = surface.grid(size)
    best = np.unravel_index(int(np.argmax(values)), values.shape)
    point = [float(axis[i]) for axis, i in zip(axes, best)]
    if float(values.max() - values.min()) < _FLAT_TOL:
        warnings.warn("likelihood flat across the scan grid", FlatLikelihood)
        return np.array(point)
    bounds = [problem.bounds[name] for name in problem.unknown]
    spacing = [float(axis[1] - axis[0]) for axis in axes]
    # Coordinate-wise searches, cycling until every coordinate is optimal
    # given the others; a tolerance relative to the box keeps it unit-free.
    tol = [1e-9 * (hi - lo) for lo, hi in bounds]
    quiet = 0
    for step in range(50 * problem.dim):
        k = step % problem.dim
        lo = max(bounds[k][0], point[k] - spacing[k])
        hi = min(bounds[k][1], point[k] + spacing[k])

        def along(g):
            trial = list(point)
            trial[k] = float(g)  # fminbound passes float64; floats evaluate faster
            return -surface(*trial)

        refined = float(fminbound(along, lo, hi, xtol=tol[k], disp=0))
        quiet = quiet + 1 if abs(refined - point[k]) < tol[k] else 1
        point[k] = refined
        if quiet == problem.dim:
            break
    if not math.isfinite(surface(*point)):
        raise _overflow(x, "the log-likelihood of x is not finite at the refined MLE")
    return np.array(point)


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.full(len(axis), axis[1] - axis[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _prior_on_grid(prior, axis: np.ndarray) -> np.ndarray:
    pairs = np.asarray(prior, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.size == 0:
        raise ValueError("prior must be a nonempty sequence of (value, density) pairs")
    if not np.isfinite(pairs).all():
        raise ValueError(f"prior values and densities must be finite, got {pairs.tolist()}")
    order = np.argsort(pairs[:, 0])
    values = pairs[order, 0]
    # np.interp would hold the end densities flat outside the table.
    if values[0] > axis[0]:
        raise ValueError(f"prior table starts at {values[0]}, above the lower bound {axis[0]}")
    if values[-1] < axis[-1]:
        raise ValueError(f"prior table ends at {values[-1]}, below the upper bound {axis[-1]}")
    dens = np.interp(axis, values, pairs[order, 1])
    if not np.all(dens > 0.0):
        raise ValueError("prior density must be positive on the whole box")
    return dens


def bayes(
    x, problem: ParamProblem, grid_size: int = _GRIDS["bayes"], prior=None, *, _surface: _Surface | None = None
) -> np.ndarray:
    """Posterior-mean estimate of at most MAX_DIM unknown coordinates (more
    raise UnsupportedSet) on a product grid of grid_size nodes per dimension
    (a whole number, at least 64). prior is None for the uniform density on
    the box, or (value, density) pairs interpolated onto the grid (scalar
    problems only, every value and density finite, densities positive). The
    table must span the bounds box, else ValueError names the bound it misses.
    ObservationsOverflow when the likelihood is not finite at a grid node.

    _surface, when given, is a likelihood surface of x and problem holding
    the grid_size grid: the Monte Carlo harness passes one per prefix."""
    problem.require_complete()
    grid_size = as_whole("grid_size", grid_size)
    if grid_size < 64:
        raise ValueError(f"need grid_size >= 64, got {grid_size}")
    if problem.dim == 2 and prior is not None:
        raise ValueError("tabulated priors are supported for scalar problems only")
    surface = _Surface(x, problem, (grid_size,)) if _surface is None else _surface
    axes, nodes, ll = surface.grid(grid_size)
    weights = functools.reduce(np.multiply.outer, [_trapezoid_weights(axis) for axis in axes])
    if prior is not None:
        weights = weights * _prior_on_grid(prior, axes[0])
    ll = ll - ll.max()
    mass = np.exp(ll) * weights
    total = float(mass.sum())
    if not (math.isfinite(total) and total > 0.0):
        raise DegeneratePosterior("posterior weights vanished after stabilization")
    mean = np.array([float((node * mass).sum() / total) for node in nodes])
    # A weighted mean of nodes lies in the box, but with all the mass on an
    # edge node its rounding can pass that edge by one ulp.
    return problem.clip(mean)[0]
