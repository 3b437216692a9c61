"""Parameter space, stationary filter quantities, their derivatives, and
Fisher information for the partially observed autoregression

    X_t = f * Y_{t-1} + sigma * w_t        (observed),
    Y_t = a * Y_{t-1} + b * v_t            (hidden),

with independent standard Gaussian noise sequences w and v. Admissibility
(condition A0) requires a^2 < 1, b > 0, f != 0, sigma2 > 0.

The stationary filtering error variance gamma_star is the positive root of

    g^2 + c * g - d = 0,   c = sigma2 * (1 - a^2) / f^2 - b^2,
                           d = b^2 * sigma2 / f^2,

and everything else derives from it: the one-step prediction variance
P = sigma2 + f^2 * gamma_star, the stationary filter coefficients
A = a * sigma2 / P and e = a * f * gamma_star / P, and the innovation
coefficient B = a * Gamma / sqrt(P) with Gamma = f^2 * gamma_star.

Parameter derivatives come from implicit differentiation of the quadratic,
never from finite differences; Fisher informations come from the stationary
second moments of the differentiated filter recursions.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConditionA0Violated,
    FisherSingular,
    ForbiddenPair,
    UnsupportedCoordinate,
    UnsupportedSet,
)

COORDINATES = ("a", "b", "f", "sigma2")

# Canonical coordinate order for every supported unknown set.
_SUPPORTED_SETS = {
    frozenset({"f"}): ("f",),
    frozenset({"b"}): ("b",),
    frozenset({"a"}): ("a",),
    frozenset({"sigma2"}): ("sigma2",),
    frozenset({"f", "a"}): ("f", "a"),
    frozenset({"a", "f", "sigma2"}): ("a", "f", "sigma2"),
    frozenset({"a", "b", "sigma2"}): ("a", "b", "sigma2"),
}


@dataclass(frozen=True)
class ModelParams:
    """A full parameter point (a, b, f, sigma2), validated on construction."""

    a: float
    b: float
    f: float
    sigma2: float

    def __post_init__(self):
        for name in COORDINATES:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.floating, np.integer)):
                raise ConditionA0Violated(name, f"value {value!r} is not a real number")
            value = float(value)
            if not math.isfinite(value):
                raise ConditionA0Violated(name, f"value {value!r} is not finite")
            object.__setattr__(self, name, value)
        if abs(self.a) >= 1.0:
            raise ConditionA0Violated("a", f"need a^2 < 1, got a={self.a}")
        if self.b <= 0.0:
            raise ConditionA0Violated("b", f"need b > 0, got b={self.b}")
        if self.f == 0.0:
            raise ConditionA0Violated("f", "need f != 0")
        if self.sigma2 <= 0.0:
            raise ConditionA0Violated("sigma2", f"need sigma2 > 0, got sigma2={self.sigma2}")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in COORDINATES}

    def replace(self, **changes: float) -> "ModelParams":
        return dataclasses.replace(self, **changes)


def _check_interval(name: str, lo: float, hi: float) -> None:
    """Reject bounds whose closed interval leaves the admissible region."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConditionA0Violated(name, f"bounds ({lo}, {hi}) must be finite")
    if not lo < hi:
        raise ConditionA0Violated(name, f"bounds ({lo}, {hi}) must satisfy lo < hi")
    if name == "a":
        if max(abs(lo), abs(hi)) >= 1.0:
            raise ConditionA0Violated("a", f"bounds ({lo}, {hi}) allow a^2 >= 1 at an edge")
    elif name in ("b", "sigma2"):
        if lo <= 0.0:
            raise ConditionA0Violated(name, f"bounds ({lo}, {hi}) allow values <= 0")
    elif name == "f":
        if not (lo > 0.0 or hi < 0.0):
            raise ConditionA0Violated("f", f"bounds ({lo}, {hi}) must exclude 0")


@dataclass(frozen=True)
class ParamProblem:
    """Which coordinates are unknown, their bounds, and the fixed values.

    ``unknown`` is stored in canonical order. ``bounds`` maps each unknown
    coordinate to a finite interval whose closed version stays admissible.
    ``known`` maps the remaining coordinates to their fixed values; it may be
    left empty at construction and filled by :func:`validate`.
    """

    unknown: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    known: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        names = (self.unknown,) if isinstance(self.unknown, str) else tuple(self.unknown)
        for name in names:
            if name not in COORDINATES:
                raise UnsupportedSet(f"unknown coordinate name {name!r}")
        if len(set(names)) != len(names):
            raise UnsupportedSet(f"duplicate coordinates in unknown set {names}")
        key = frozenset(names)
        if {"f", "b"} <= key:
            raise ForbiddenPair(
                "the pair {f, b} is not jointly identifiable; the observed law "
                "depends on them only through the product f*b"
            )
        if key not in _SUPPORTED_SETS:
            raise UnsupportedSet(f"unsupported unknown set {sorted(key)}")
        object.__setattr__(self, "unknown", _SUPPORTED_SETS[key])

        bounds: dict[str, tuple[float, float]] = {}
        for name in self.unknown:
            if name not in self.bounds:
                raise ValueError(f"missing bounds for unknown coordinate {name!r}")
            lo, hi = (float(v) for v in self.bounds[name])
            _check_interval(name, lo, hi)
            bounds[name] = (lo, hi)
        extra = set(self.bounds) - set(self.unknown)
        if extra:
            raise ValueError(f"bounds given for coordinates not in the unknown set: {sorted(extra)}")
        object.__setattr__(self, "bounds", bounds)

        known = {str(k): float(v) for k, v in (self.known or {}).items()}
        for name in known:
            if name not in COORDINATES:
                raise ValueError(f"unknown coordinate name {name!r} in known values")
            if name in self.unknown:
                raise ValueError(f"coordinate {name!r} is both unknown and known")
        object.__setattr__(self, "known", known)

    @property
    def dim(self) -> int:
        return len(self.unknown)

    def is_complete(self) -> bool:
        """True when every fixed coordinate has a known value."""
        return set(self.known) == set(COORDINATES) - set(self.unknown)

    def require_complete(self) -> None:
        if not self.is_complete():
            missing = sorted(set(COORDINATES) - set(self.unknown) - set(self.known))
            raise ValueError(
                f"problem has no known values for {missing}; call validate(params, problem) first"
            )

    def point(self, values) -> ModelParams:
        """Assemble a full parameter point from unknown-coordinate values."""
        self.require_complete()
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if values.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} values for {self.unknown}, got shape {values.shape}")
        merged = dict(self.known)
        merged.update(zip(self.unknown, (float(v) for v in values)))
        return ModelParams(**merged)

    def values_of(self, params: ModelParams) -> np.ndarray:
        """Extract the unknown coordinates of ``params`` in canonical order."""
        return np.array([getattr(params, name) for name in self.unknown], dtype=float)

    def clip(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Clip unknown-coordinate values of shape (..., dim) into the closed
        bounds box.

        Returns the clipped values and an int8 array ``side`` of the same
        shape: -1 where a value was raised to its lower bound (NaN
        included), +1 where it was lowered to its upper bound, 0 elsewhere.
        """
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if values.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} values for {self.unknown}, got shape {values.shape}")
        lo, hi = np.array([self.bounds[name] for name in self.unknown]).T
        low = ~(values >= lo)  # catches NaN as well
        high = values > hi
        side = high.astype(np.int8) - low.astype(np.int8)
        return np.where(low, lo, np.where(high, hi, values)), side


def validate(params: ModelParams, problem: ParamProblem) -> ParamProblem:
    """Check a (params, problem) pair and return the problem with known
    values filled in from ``params``.

    Raises ConditionA0Violated / ForbiddenPair / UnsupportedSet for bad
    problems (mostly at ParamProblem construction) and ValueError when
    supplied known values contradict ``params``.
    """
    for name, value in problem.known.items():
        have = getattr(params, name)
        if value != have:
            raise ValueError(
                f"known value {name}={value} contradicts params.{name}={have}"
            )
    known = {name: getattr(params, name) for name in COORDINATES if name not in problem.unknown}
    return dataclasses.replace(problem, known=known)


# ---------------------------------------------------------------------------
# Stationary quantities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationaryQuantities:
    """Stationary filter quantities at one parameter point, or elementwise
    over broadcast arrays of parameter values.

    gamma_star : stationary filtering error variance
    big_gamma  : Gamma = f^2 * gamma_star
    p          : one-step prediction variance P = sigma2 + Gamma
    a_coef     : filter mean coefficient A = a * sigma2 / P, |A| < 1
    e_coef     : E = a * Gamma / P (A + E = a exactly)
    b_coef     : innovation coefficient B = a * Gamma / sqrt(P)
    gain       : filter input coefficient e = a * f * gamma_star / P
    """

    gamma_star: float | np.ndarray
    big_gamma: float | np.ndarray
    p: float | np.ndarray
    a_coef: float | np.ndarray
    e_coef: float | np.ndarray
    b_coef: float | np.ndarray
    gain: float | np.ndarray


def _quadratic_coefficients(a, b, f, sigma2):
    c = sigma2 * (1.0 - a * a) / (f * f) - b * b
    d = b * b * sigma2 / (f * f)
    return c, d


def stationary_from(a, b, f, sigma2) -> StationaryQuantities:
    """Closed-form stationary quantities; gamma_star is the positive root of
    g^2 + c*g - d = 0 (the variance recursion's attracting fixed point).

    The coordinates are floats or arrays that broadcast together. Float
    inputs stay on Python float arithmetic; both square roots are correctly
    rounded, so an array entry equals the float result bit for bit.
    """
    c, d = _quadratic_coefficients(a, b, f, sigma2)
    sqrt = np.sqrt if isinstance(c, np.ndarray) else math.sqrt
    root = sqrt(c * c + 4.0 * d)
    gamma_star = 0.5 * (root - c)
    big_gamma = f * f * gamma_star
    p = sigma2 + big_gamma
    return StationaryQuantities(
        gamma_star=gamma_star,
        big_gamma=big_gamma,
        p=p,
        a_coef=a * sigma2 / p,
        e_coef=a * big_gamma / p,
        b_coef=a * big_gamma / sqrt(p),
        gain=a * f * gamma_star / p,
    )


def stationary(params: ModelParams) -> StationaryQuantities:
    """Stationary quantities at one parameter point (see stationary_from)."""
    return stationary_from(params.a, params.b, params.f, params.sigma2)


def riccati_map(params: ModelParams, gamma: float) -> float:
    """One step of the filtering error variance recursion:
    gamma -> a^2*gamma + b^2 - a^2*f^2*gamma^2 / (sigma2 + f^2*gamma)."""
    a2 = params.a * params.a
    f2 = params.f * params.f
    return a2 * gamma + params.b * params.b - a2 * f2 * gamma * gamma / (params.sigma2 + f2 * gamma)


# ---------------------------------------------------------------------------
# Derivatives of the stationary quantities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationaryGradient:
    """Derivatives of the stationary quantities with respect to one coordinate.

    d_gamma_star : derivative of gamma_star
    d_p          : derivative of P = sigma2 + f^2 * gamma_star
    d_a_coef     : derivative of the filter coefficient A = a*sigma2/P
    d_gain       : derivative of the filter input coefficient
                   e = a*f*gamma_star/P (equal to E/f, not of E itself)
    d_b_coef     : sqrt(P) * d_gain, the sensitivity of the filter's
                   innovation response (for wrt=b this equals
                   a*f*sigma2*d_gamma_star / P^(3/2))
    """

    wrt: str
    d_gamma_star: float
    d_p: float
    d_a_coef: float
    d_gain: float
    d_b_coef: float


def stationary_gradient(params: ModelParams, wrt: str) -> StationaryGradient:
    """Implicit differentiation of the stationary quadratic g^2 + c*g - d = 0:

        d_gamma_star = (d' - c' * gamma_star) / (2*gamma_star + c),

    where 2*gamma_star + c = sqrt(c^2 + 4d) > 0, plus the chain-rule terms of
    P, A and e that are explicit in the coordinate.
    """
    if wrt not in COORDINATES:
        raise UnsupportedCoordinate(f"unknown coordinate {wrt!r}")
    a, b, f, s2 = params.a, params.b, params.f, params.sigma2
    c, d = _quadratic_coefficients(a, b, f, s2)
    sq = stationary(params)
    g = sq.gamma_star
    p = sq.p
    denom = math.sqrt(c * c + 4.0 * d)  # equals 2*gamma_star + c, strictly > 0

    if wrt == "b":
        cdot = -2.0 * b
        ddot = 2.0 * b * s2 / (f * f)
    elif wrt == "f":
        cdot = -2.0 * s2 * (1.0 - a * a) / (f * f * f)
        ddot = -2.0 * b * b * s2 / (f * f * f)
    elif wrt == "a":
        cdot = -2.0 * a * s2 / (f * f)
        ddot = 0.0
    else:  # sigma2
        cdot = (1.0 - a * a) / (f * f)
        ddot = b * b / (f * f)

    d_gamma = (ddot - cdot * g) / denom

    # Indicator partials for the coordinates appearing explicitly.
    da = 1.0 if wrt == "a" else 0.0
    df = 1.0 if wrt == "f" else 0.0
    ds2 = 1.0 if wrt == "sigma2" else 0.0

    d_p = ds2 + 2.0 * f * df * g + f * f * d_gamma
    d_a_coef = (da * s2 + a * ds2) / p - a * s2 * d_p / (p * p)
    d_gain = (da * f * g + a * df * g + a * f * d_gamma) / p - a * f * g * d_p / (p * p)
    d_b_coef = math.sqrt(p) * d_gain
    return StationaryGradient(
        wrt=wrt,
        d_gamma_star=d_gamma,
        d_p=d_p,
        d_a_coef=d_a_coef,
        d_gain=d_gain,
        d_b_coef=d_b_coef,
    )


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FisherInfo:
    """Fisher information for a supported unknown set.

    Scalar problems fill ``value``; the pair (f, a) fills ``matrix`` with the
    coordinate order given by ``unknown``. ``q`` and ``k`` retain the internal
    stationary moments used for the a-row (diagnostics).
    """

    unknown: tuple[str, ...]
    dim: int
    value: float | None = None
    matrix: np.ndarray | None = None
    q: float | None = None
    k: float | None = None

    def inverse(self):
        """1/value (scalar) or the 2x2 matrix inverse."""
        if self.dim == 1:
            return 1.0 / self.value
        return np.linalg.inv(self.matrix)

    def inverse_diagonal(self, coord: str) -> float:
        """The asymptotic variance bound for one coordinate."""
        if self.dim == 1:
            if coord != self.unknown[0]:
                raise UnsupportedCoordinate(f"{coord!r} is not the scalar unknown {self.unknown}")
            return 1.0 / self.value
        j = self.unknown.index(coord)
        return float(np.linalg.inv(self.matrix)[j, j])


def _mdot_noise_coef(params: ModelParams, sq: StationaryQuantities, wrt: str) -> float:
    """Innovation coefficient of the differentiated prediction recursion.

    M_t = f*m_t satisfies M_t = a*M_{t-1} + B*z_t at the true point, with
    z the standardized innovations. Differentiating the observed-form filter
    and substituting the true-point innovation representation leaves

        Mdot_t = A*Mdot_{t-1} + [wrt == a]*M_{t-1} + Bdot * z_t,

    with Bdot = a*sigma2*Pdot/P^(3/2) for wrt in {b, f} and
    Bdot = (Gamma*P + a*sigma2*Pdot)/P^(3/2) for wrt = a.
    """
    grad = stationary_gradient(params, wrt)
    p32 = sq.p * math.sqrt(sq.p)
    if wrt in ("b", "f"):
        return params.a * params.sigma2 * grad.d_p / p32
    if wrt == "a":
        return (sq.big_gamma * sq.p + params.a * params.sigma2 * grad.d_p) / p32
    raise UnsupportedCoordinate(f"no information recursion for coordinate {wrt!r}")


def _fisher_scalar_bf(params: ModelParams, wrt: str) -> float:
    """Closed form for wrt in {b, f}:
    I = Pdot^2 * (P^2 + a^2*sigma2^2) / (2*P^2*(P^2 - a^2*sigma2^2))."""
    sq = stationary(params)
    grad = stationary_gradient(params, wrt)
    p2 = sq.p * sq.p
    as4 = (params.a * params.sigma2) ** 2
    return grad.d_p * grad.d_p * (p2 + as4) / (2.0 * p2 * (p2 - as4))


def _fisher_a_parts(params: ModelParams) -> tuple[float, float, float]:
    """I_a with its internals: returns (i_a, q, bdot_a).

    q = E[Mdot_a^2] in the stationary regime, from the joint second-moment
    recursions of (M, Mdot_a); then I_a = (q + Pdot_a^2/(2P)) / P.
    """
    sq = stationary(params)
    grad = stationary_gradient(params, "a")
    a = params.a
    A = sq.a_coef
    B = sq.b_coef
    p = sq.p
    bdot = _mdot_noise_coef(params, sq, "a")
    mu = B * B / (1.0 - a * a)                       # E[M^2]
    cross = (a * mu + bdot * B) / (1.0 - a * A)      # E[Mdot_a * M]
    q = (mu + bdot * bdot + 2.0 * A * cross) / (1.0 - A * A)
    i_a = (q + grad.d_p * grad.d_p / (2.0 * p)) / p
    return i_a, q, bdot


def scalar_fisher(params: ModelParams, coord: str) -> float:
    """Fisher information for one unknown coordinate in {b, f, a}."""
    if coord in ("b", "f"):
        value = _fisher_scalar_bf(params, coord)
    elif coord == "a":
        value, _, _ = _fisher_a_parts(params)
    else:
        raise UnsupportedCoordinate(f"no Fisher information for coordinate {coord!r}")
    if not value > 0.0:
        raise FisherSingular(f"information for {coord} is not positive: {value}")
    return value


def fisher_info(params: ModelParams, problem: ParamProblem) -> FisherInfo:
    """Fisher information at ``params`` for the problem's unknown set.

    Supported sets: {b}, {f}, {a} (scalars) and {f, a} (2x2 matrix). Every
    entry follows the same pattern I = (C + Pdot_i*Pdot_j/(2P)) / P where C is
    the stationary cross-moment of the differentiated prediction recursions.
    """
    key = problem.unknown
    if key in (("b",), ("f",)):
        value = _fisher_scalar_bf(params, key[0])
        if not value > 0.0:
            raise FisherSingular(f"information for {key[0]} is not positive: {value}")
        return FisherInfo(unknown=key, dim=1, value=value)
    if key == ("a",):
        i_a, q, _ = _fisher_a_parts(params)
        if not i_a > 0.0:
            raise FisherSingular(f"information for a is not positive: {i_a}")
        return FisherInfo(unknown=key, dim=1, value=i_a, q=q)
    if key == ("f", "a"):
        sq = stationary(params)
        grad_f = stationary_gradient(params, "f")
        grad_a = stationary_gradient(params, "a")
        a = params.a
        A = sq.a_coef
        B = sq.b_coef
        p = sq.p
        i_f = _fisher_scalar_bf(params, "f")
        i_a, q, bdot_a = _fisher_a_parts(params)
        bdot_f = _mdot_noise_coef(params, sq, "f")
        w = B * bdot_f / (1.0 - a * A)                   # E[M * Mdot_f]
        k = (A * w + bdot_f * bdot_a) / (1.0 - A * A)    # E[Mdot_f * Mdot_a]
        i_fa = (k + grad_f.d_p * grad_a.d_p / (2.0 * p)) / p
        matrix = np.array([[i_f, i_fa], [i_fa, i_a]], dtype=float)
        det = i_f * i_a - i_fa * i_fa
        if not (i_f > 0.0 and det > 0.0):
            raise FisherSingular(f"information matrix is not positive definite: {matrix.tolist()}")
        return FisherInfo(unknown=key, dim=2, matrix=matrix, q=q, k=k)
    raise UnsupportedSet(
        f"Fisher information is not available for the unknown set {key}; "
        "supported sets are {b}, {f}, {a} and {f, a}"
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def problem_to_dict(params: ModelParams, problem: ParamProblem) -> dict:
    """Flat JSON object with keys a, b, f, sigma2, unknown, bounds."""
    out: dict = params.as_dict()
    out["unknown"] = list(problem.unknown)
    out["bounds"] = {name: list(problem.bounds[name]) for name in problem.unknown}
    return out


def problem_from_dict(obj: dict) -> tuple[ModelParams, ParamProblem]:
    """Inverse of :func:`problem_to_dict`; returns a validated pair."""
    params = ModelParams(
        a=float(obj["a"]), b=float(obj["b"]), f=float(obj["f"]), sigma2=float(obj["sigma2"])
    )
    bounds = {name: tuple(vals) for name, vals in dict(obj["bounds"]).items()}
    problem = ParamProblem(unknown=tuple(obj["unknown"]), bounds=bounds)
    return params, validate(params, problem)
