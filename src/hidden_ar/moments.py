"""Difference statistics and method-of-moments estimators.

The statistics of the observation increments,

    S1 = (1/T) sum_{t=1..T} (X_t - X_{t-1})^2,
    S2 = (1/T) sum_{t=2..T} (X_t - X_{t-1}) (X_{t-1} - X_{t-2}),
    S3 = (1/T) sum_{t=3..T} (X_t - X_{t-1}) (X_{t-2} - X_{t-3}),

converge to the moment functions

    Phi1 = 2 f^2 b^2 / (1+a) + 2 sigma2,
    Phi2 = f^2 b^2 (a-1) / (1+a) - sigma2,
    Phi3 = f^2 b^2 a (a-1) / (1+a).

Every supported unknown set is estimated by one sequence of closed-form
steps, each clipped into the bounds box before the next reads it: a (from
S1; from S1 and S2 when f is also unknown; from S2 and S3 when sigma2 is),
then the scale f or b (from S1 when sigma2 is known, from S3 otherwise),
then sigma2 (from S1). Each step satisfies the round trip mme(Phi(theta)) =
theta exactly.

Degenerate steps never raise: they push the raw value to the appropriate
extreme, the ordinary clip resolves it, and the event is reported in the
``degenerate`` field. The denominator of a counts as near zero when
|den| <= 1e-12 * S1, so the rule does not depend on the units of x; the
pole a(a-1) of the triples has no units and is tested against 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import as_series
from .model_core import ModelParams, ParamProblem

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class MomentStats:
    """The three difference statistics with their normalizer T."""

    s1: float
    s2: float
    s3: float
    t_used: int


@dataclass(frozen=True)
class MmeEstimate:
    """A method-of-moments estimate.

    values     : unknown-coordinate estimates in the problem's canonical order
    clip_flags : coordinate -> "low" | "high" for coordinates that were clipped
    degenerate : labels of near-singular inversion events that were resolved
                 by clipping
    stats      : the S-statistics the estimate was computed from
    """

    values: np.ndarray
    clip_flags: dict[str, str]
    degenerate: tuple[str, ...]
    stats: MomentStats


def s_statistics(x) -> MomentStats:
    """Compute (S1, S2, S3) from X_0..X_T with divisor T = len(x) - 1."""
    x = as_series(x, 4)
    t_used = len(x) - 1
    d = np.diff(x)
    s1 = float(d @ d) / t_used
    s2 = float(d[1:] @ d[:-1]) / t_used
    s3 = float(d[2:] @ d[:-2]) / t_used
    return MomentStats(s1=s1, s2=s2, s3=s3, t_used=t_used)


def phi(params: ModelParams) -> tuple[float, float, float]:
    """The limits (Phi1, Phi2, Phi3) of the S-statistics at ``params``."""
    a = params.a
    fb2 = params.f * params.f * params.b * params.b
    phi1 = 2.0 * fb2 / (1.0 + a) + 2.0 * params.sigma2
    phi2 = fb2 * (a - 1.0) / (1.0 + a) - params.sigma2
    phi3 = fb2 * a * (a - 1.0) / (1.0 + a)
    return phi1, phi2, phi3


def _invert(stats: MomentStats, problem: ParamProblem) -> tuple[dict[str, float], list[str]]:
    """The steps of the module docstring for the problem's unknown set; each
    reads the known values and earlier clipped results from one point."""
    s1, s2, s3 = stats.s1, stats.s2, stats.s3
    unknown = problem.unknown
    degenerate: list[str] = []
    raw: dict[str, float] = {}
    point = dict(problem.known)

    def settle(name: str, value: float) -> None:
        raw[name] = value
        lo, hi = problem.bounds[name]
        point[name] = lo if not value >= lo else min(value, hi)

    if "a" in unknown:
        # a = num / den + shift; ``side`` is the sign den approaches zero from.
        if "sigma2" in unknown:  # from S2 and S3; S1 + 2 S2 = 2 f^2 b^2 a / (1+a)
            num, den, shift = 2.0 * s3, s1 + 2.0 * s2, 1.0
            side = den
        else:  # S1 - 2 sigma2 = 2 f^2 b^2 / (1+a) is positive under the model
            den, side = s1 - 2.0 * point["sigma2"], 1.0
            if "f" in unknown:  # from S1 and S2
                num, shift = s1 + 2.0 * s2, 0.0
            else:  # from S1
                f, b = point["f"], point["b"]
                num, shift = 2.0 * f * f * b * b, -1.0
        if abs(den) <= _DEGENERATE_TOL * s1:
            degenerate.append("a:denominator_near_zero")
            settle("a", math.inf if num * side >= 0.0 else -math.inf)
        else:
            settle("a", num / den + shift if shift else num / den)

    for scale, other in (("f", "b"), ("b", "f")):
        if scale not in unknown:
            continue
        a, k, reason = point["a"], point[other], "radicand_nonpositive"
        if "sigma2" not in unknown:  # from S1
            rad = (s1 - 2.0 * point["sigma2"]) * (1.0 + a) / (2.0 * k * k)
        elif abs(a * (a - 1.0)) < _DEGENERATE_TOL:  # a has no units
            rad, reason = 0.0, "a_near_pole"
        else:  # from S3
            rad = s3 * (1.0 + a) / (k * k * (a * (a - 1.0)))
        if rad <= 0.0:
            degenerate.append(f"{scale}:{reason}")
        mag = math.sqrt(rad) if rad > 0.0 else 0.0
        # f takes the sign of its bounds.
        settle(scale, -mag if scale == "f" and problem.bounds["f"][0] <= 0.0 else mag)

    if "sigma2" in unknown:  # from S1
        f, b = point["f"], point["b"]
        settle("sigma2", s1 / 2.0 - f * f * b * b / (1.0 + point["a"]))
    return raw, degenerate


def mme(x_prefix, problem: ParamProblem) -> MmeEstimate:
    """Method-of-moments estimate on an observation prefix.

    Each inversion step reads the clipped values of the earlier ones.
    """
    problem.require_complete()
    stats = s_statistics(x_prefix)
    raw, degenerate = _invert(stats, problem)
    values = np.array([raw[name] for name in problem.unknown])
    clipped, side = problem.clip(values)
    return MmeEstimate(
        values=clipped,
        clip_flags={name: "low" if s < 0 else "high" for name, s in zip(problem.unknown, side) if s},
        degenerate=tuple(degenerate),
        stats=stats,
    )
