"""Trajectory generation for the partially observed pair

    X_t = f * Y_{t-1} + sigma * w_t,   Y_t = a * Y_{t-1} + b * v_t,

t = 0..T, with independent standard Gaussian w, v and stationary
initialization: a pre-sample Y_{-1} ~ N(0, b^2/(1-a^2)) seeds both
recursions, so X_0 = f * Y_{-1} + sigma * w_0 already has the stationary
observation law and the difference statistics are stationary from t = 1.

Randomness is counter based: each (seed, stream) pair of integers in
[0, 2**64) keys an independent Philox stream, so any replication reproduces
bit-exactly on its own, whatever ran before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import InvalidSeed, ZeroHorizon, as_whole
from .model_core import ModelParams


@dataclass(frozen=True)
class Trajectory:
    """A simulated path: observations x = (X_0..X_T), optional hidden states
    y = (Y_0..Y_T), and the (seed, stream) pair that regenerates it."""

    x: np.ndarray
    y: np.ndarray | None
    seed: int
    stream: int
    params: ModelParams

    @property
    def horizon(self) -> int:
        return len(self.x) - 1


def _generator(seed: int, stream: int) -> np.random.Generator:
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < 2**64:
            raise InvalidSeed(f"{name} must lie in [0, 2**64), got {value}")
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate(
    params: ModelParams,
    horizon: int,
    seed: int,
    keep_hidden: bool = True,
    stream: int = 0,
) -> Trajectory:
    """Generate X_0..X_T (and Y_0..Y_T) for T = horizon >= 1.

    The draw order is fixed: one block of 2T+3 standard normals, consumed as
    (stationary scale for Y_{-1}, w_0..w_T, v_0..v_T). keep_hidden only
    controls whether y is retained, never what is drawn, so x is identical
    either way. A seed or stream outside [0, 2**64) raises InvalidSeed; a
    boolean or non-integral horizon raises ValueError.
    """
    horizon = as_whole("horizon", horizon)
    if horizon < 1:
        raise ZeroHorizon(f"need horizon >= 1, got {horizon}")
    a, b, f, sigma = params.a, params.b, params.f, math.sqrt(params.sigma2)

    rng = _generator(seed, stream)
    z = rng.standard_normal(2 * horizon + 3)
    y_pre = z[0] * (b / math.sqrt(1.0 - a * a))  # Y_{-1}, stationary
    w = z[1 : horizon + 2]                      # w_0..w_T
    v = z[horizon + 2 :]                        # v_0..v_T

    # Y_t = a*Y_{t-1} + b*v_t as an IIR filter seeded by Y_{-1}.
    y, _ = lfilter([1.0], [1.0, -a], b * v, zi=np.array([a * y_pre]))

    # X_t = f*Y_{t-1} + sigma*w_t; the lagged hidden track starts at Y_{-1}.
    y_lag = np.concatenate(([y_pre], y[:-1]))
    x = f * y_lag + sigma * w

    return Trajectory(
        x=x,
        y=y if keep_hidden else None,
        seed=int(seed),
        stream=int(stream),
        params=params,
    )
