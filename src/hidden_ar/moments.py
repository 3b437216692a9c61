"""Difference statistics and method-of-moments estimators.

The statistics of the observation increments,

    S1 = (1/T) sum_{t=1..T} (X_t - X_{t-1})^2,
    S2 = (1/T) sum_{t=2..T} (X_t - X_{t-1}) (X_{t-1} - X_{t-2}),
    S3 = (1/T) sum_{t=3..T} (X_t - X_{t-1}) (X_{t-2} - X_{t-3}),

converge to the moment functions

    Phi1 = 2 f^2 b^2 / (1+a) + 2 sigma2,
    Phi2 = f^2 b^2 (a-1) / (1+a) - sigma2,
    Phi3 = f^2 b^2 a (a-1) / (1+a).

Each supported unknown set is estimated by inverting the corresponding
subsystem of {S_i = Phi_i} in closed form and clipping the result into the
bounds box. Inversion formulas are the self-consistent ones: each satisfies
the round-trip identity mme(Phi(theta)) = theta exactly.

Degenerate denominators (near-zero divisors, negative radicands) never
raise: they push the raw value to the appropriate extreme, the ordinary
clip resolves it, and the event is reported in the ``degenerate`` field.
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
    params     : the full parameter point (estimates merged with knowns)
    clip_flags : coordinate -> "low" | "high" for coordinates that were clipped
    degenerate : labels of near-singular inversion events that were resolved
                 by clipping
    stats      : the S-statistics the estimate was computed from
    """

    values: np.ndarray
    params: ModelParams
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


def _scale_root(problem: ParamProblem, target: str, rad: float, reason: str, degenerate: list[str]) -> float:
    """The scale coordinate ``target`` (f or b) whose square is ``rad``; f
    takes the sign of its bounds. A nonpositive ``rad`` gives zero and is
    recorded as ``target:reason``."""
    if rad <= 0.0:
        degenerate.append(f"{target}:{reason}")
        mag = 0.0
    else:
        mag = math.sqrt(rad)
    if target == "b":
        return mag
    lo, _ = problem.bounds["f"]
    return (1.0 if lo > 0.0 else -1.0) * mag


def _scale_from_s1(s1: float, problem: ParamProblem, target: str, a: float, degenerate: list[str]) -> float:
    """f (or b) from S1 = 2 f^2 b^2 / (1+a) + 2 sigma2, given a and the
    known b (or f) and sigma2."""
    other = problem.known["b" if target == "f" else "f"]
    rad = (s1 - 2.0 * problem.known["sigma2"]) * (1.0 + a) / (2.0 * other * other)
    return _scale_root(problem, target, rad, "radicand_nonpositive", degenerate)


def _invert(stats: MomentStats, problem: ParamProblem) -> tuple[dict[str, float], list[str]]:
    """Raw (unclipped, except where later steps reuse a clipped value)
    inversion of the moment system for the problem's unknown set."""
    known = problem.known
    s1, s2, s3 = stats.s1, stats.s2, stats.s3
    unknown = problem.unknown
    degenerate: list[str] = []
    raw: dict[str, float] = {}

    if unknown in (("f",), ("b",)):
        raw[unknown[0]] = _scale_from_s1(s1, problem, unknown[0], known["a"], degenerate)
    elif unknown == ("a",):
        b, f, s2k = known["b"], known["f"], known["sigma2"]
        den = s1 - 2.0 * s2k
        if abs(den) < _DEGENERATE_TOL:
            degenerate.append("a:denominator_near_zero")
            raw["a"] = math.inf
        else:
            raw["a"] = 2.0 * f * f * b * b / den - 1.0
    elif unknown == ("sigma2",):
        a, b, f = known["a"], known["b"], known["f"]
        raw["sigma2"] = s1 / 2.0 - f * f * b * b / (1.0 + a)
    elif unknown == ("f", "a"):
        den = s1 - 2.0 * known["sigma2"]
        if abs(den) < _DEGENERATE_TOL:
            degenerate.append("a:denominator_near_zero")
            a_raw = math.inf if s1 + 2.0 * s2 >= 0.0 else -math.inf
        else:
            a_raw = (s1 + 2.0 * s2) / den
        raw["a"] = a_raw
        raw["f"] = _scale_from_s1(s1, problem, "f", _clip_one(problem, "a", a_raw), degenerate)
    elif unknown in (("a", "f", "sigma2"), ("a", "b", "sigma2")):
        scale_name = "b" if unknown == ("a", "f", "sigma2") else "f"
        scale = known[scale_name]
        den = s1 + 2.0 * s2
        if abs(den) < _DEGENERATE_TOL:
            degenerate.append("a:denominator_near_zero")
            a_raw = math.inf if s3 * den >= 0.0 else -math.inf
        else:
            a_raw = 2.0 * s3 / den + 1.0
        raw["a"] = a_raw
        a_used = _clip_one(problem, "a", a_raw)
        pole = a_used * (a_used - 1.0)
        target = unknown[1]  # "f" or "b"
        if abs(pole) < _DEGENERATE_TOL:
            raw[target] = _scale_root(problem, target, 0.0, "a_near_pole", degenerate)
        else:
            rad = s3 * (1.0 + a_used) / (scale * scale * pole)
            raw[target] = _scale_root(problem, target, rad, "radicand_nonpositive", degenerate)
        # sigma2 from the clipped scale estimate, so the point stays coherent.
        t_used = _clip_one(problem, target, raw[target])
        fb2 = (t_used * t_used) * (scale * scale)
        raw["sigma2"] = s1 / 2.0 - fb2 / (1.0 + a_used)
    else:  # pragma: no cover - ParamProblem already rejects other sets
        raise AssertionError(f"unreachable unknown set {unknown}")
    return raw, degenerate


def _clip_one(problem: ParamProblem, name: str, value: float) -> float:
    lo, hi = problem.bounds[name]
    if not value >= lo:
        return lo
    if value > hi:
        return hi
    return value


def mme(x_prefix, problem: ParamProblem) -> MmeEstimate:
    """Method-of-moments estimate on an observation prefix.

    Clipping happens coordinate-wise in canonical order, with the later
    inversion steps (f or b from a, sigma2 from both) already consuming the
    clipped values of the earlier ones.
    """
    problem.require_complete()
    stats = s_statistics(x_prefix)
    raw, degenerate = _invert(stats, problem)
    values = np.array([raw[name] for name in problem.unknown])
    clipped, side = problem.clip(values)
    return MmeEstimate(
        values=clipped,
        params=problem.point(clipped),
        clip_flags={name: "low" if s < 0 else "high" for name, s in zip(problem.unknown, side) if s},
        degenerate=tuple(degenerate),
        stats=stats,
    )
