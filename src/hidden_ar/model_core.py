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
coefficient B = a * Gamma / sqrt(P) with Gamma = f^2 * gamma_star, which
_track_moments forms from Gamma and P (StationaryQuantities holds only
what its callers read).

Parameter derivatives come from implicit differentiation of the quadratic,
never from finite differences. fisher_info returns the Fisher information
of every unknown set ParamProblem accepts as one (dim, dim) array, from one
formula,

    I_ij = (C_ij + Pdot_i * Pdot_j / (2P)) / P,   C = E[Mdot Mdot^T],

with Mdot_i the derivative of the prediction f*m_t in coordinate i and C
its stationary second moments (derivation in fisher_info). _track_moments
solves C, w_i = E[Mdot_i M] and mu = E[M^2]; fisher_info and s_star_limit
share it.

s_star_limit is the limit of the adaptive filter's normalized excess risk
t * E(m*_t - m_t(theta_0))^2 for every unknown set. To first order
m*_t - m_t = dm_t^T (theta_hat - theta_0), with dm the derivative of m_t in
the unknown coordinates at the true point; the factors become independent
and sqrt(t) (theta_hat - theta_0) -> N(0, I^{-1}), so the limit is

    S*^2 = tr(I^{-1} D),   D = E[dm dm^T].

As m = M/f, dm_i = (Mdot_i - [i = f] M/f)/f, and the same moments give

    D = (C - phi w^T - w phi^T + mu phi phi^T) / f^2,   phi_i = [i = f]/f.

At a=0.5, b=f=sigma2=1, S*^2 is 2/9 for b, 0.0440 for f, 2.014 for a,
0.2161 for sigma2, 3.092 for (f, a), 8.496 for (a, f, sigma2) and 4.266 for
(a, b, sigma2).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConditionA0Violated,
    FisherSingular,
    ForbiddenPair,
    UnsupportedCoordinate,
    UnsupportedSet,
    as_real,
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
    """A full parameter point (a, b, f, sigma2), validated on construction:
    besides condition A0, f^2 must not underflow to 0 and every field of
    stationary(params) must be finite (else ConditionA0Violated names f, or
    the one of b, f and sigma2 farthest from 1 in magnitude)."""

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
        if self.f * self.f == 0.0:
            raise ConditionA0Violated("f", f"f^2 underflows to 0 at f={self.f}")
        sq = stationary(self)
        if not all(map(math.isfinite, vars(sq).values())):
            name = max(("b", "f", "sigma2"), key=lambda n: abs(math.log(abs(getattr(self, n)))))
            raise ConditionA0Violated(name, f"the stationary filter quantities are not finite at {self.as_dict()}")

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
    left empty at construction and filled by :func:`validate`. A complete
    problem raises ConditionA0Violated where a corner of its bounds box does,
    or a corner with a moved to its smallest |a| in the box.
    """

    unknown: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    known: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.unknown, (str, list, tuple)):
            raise ValueError(f"unknown must be a coordinate name or a list of them, got {self.unknown!r}")
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
        for name, value in (("bounds", self.bounds), ("known", {} if self.known is None else self.known)):
            if not isinstance(value, dict):
                raise ValueError(f"{name} must map coordinate names to values, got {value!r}")

        bounds: dict[str, tuple[float, float]] = {}
        for name in self.unknown:
            if name not in self.bounds:
                raise ValueError(f"missing bounds for unknown coordinate {name!r}")
            pair = self.bounds[name]
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValueError(f"bounds of {name} must be a (lo, hi) pair, got {pair!r}")
            lo, hi = (as_real(f"bounds of {name}", v) for v in pair)
            _check_interval(name, lo, hi)
            bounds[name] = (lo, hi)
        extra = set(self.bounds) - set(self.unknown)
        if extra:
            raise ValueError(f"bounds given for coordinates not in the unknown set: {sorted(extra)}")
        object.__setattr__(self, "bounds", bounds)

        known = {str(k): as_real(f"known value of {k}", v) for k, v in (self.known or {}).items()}
        for name in known:
            if name not in COORDINATES:
                raise ValueError(f"unknown coordinate name {name!r} in known values")
            if name in self.unknown:
                raise ValueError(f"coordinate {name!r} is both unknown and known")
        object.__setattr__(self, "known", known)
        if self.is_complete():
            # The corners, and a at its smallest |a| in the box, where
            # c = sigma2 (1 - a^2) / f^2 - b^2 is largest.
            axes = [(lo, hi, min(max(0.0, lo), hi)) if name == "a" else (lo, hi) for name, (lo, hi) in bounds.items()]
            for point in itertools.product(*axes):
                try:
                    ModelParams(**self.coordinates(point))
                except ConditionA0Violated as exc:
                    raise ConditionA0Violated(exc.coordinate, f"at the bounds point {point}: {exc}") from None

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
        return ModelParams(**self.coordinates(values))

    def coordinates(self, columns) -> dict:
        """The known values plus one float or array column per unknown, in canonical order."""
        return {**self.known, **dict(zip(self.unknown, columns))}

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
    return problem if problem.known == known else dataclasses.replace(problem, known=known)


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
    gain       : filter input coefficient e = a * f * gamma_star / P
    """

    gamma_star: float | np.ndarray
    big_gamma: float | np.ndarray
    p: float | np.ndarray
    a_coef: float | np.ndarray
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

    gamma_star is 2d / (r + c) for c > 0 and (r - c) / 2 otherwise, with
    r = sqrt(c^2 + 4d): neither form subtracts, so neither cancels when
    4d << c^2. Where c^2 + 4d overflows, gamma_star is infinite, so
    ModelParams rejects the point.
    """
    c, d = _quadratic_coefficients(a, b, f, sigma2)
    if isinstance(c, np.ndarray):
        root = np.sqrt(c * c + 4.0 * d)
        both = root + np.abs(c)
        gamma_star = np.where((c > 0.0) & (root < math.inf), 2.0 * d / both, 0.5 * both)
    else:
        root = math.sqrt(c * c + 4.0 * d)
        both = root + abs(c)
        gamma_star = 2.0 * d / both if c > 0.0 and root < math.inf else 0.5 * both
    big_gamma = f * f * gamma_star
    p = sigma2 + big_gamma
    return StationaryQuantities(
        gamma_star=gamma_star,
        big_gamma=big_gamma,
        p=p,
        a_coef=a * sigma2 / p,
        gain=a * f * gamma_star / p,
    )


def stationary(params: ModelParams) -> StationaryQuantities:
    """Stationary quantities at one parameter point (see stationary_from)."""
    return stationary_from(params.a, params.b, params.f, params.sigma2)


def riccati_map(params: ModelParams, gamma: float) -> float:
    """One step of the filtering error variance recursion in the form

        gamma -> a^2*sigma2*gamma / (sigma2 + f^2*gamma) + b^2,

    which neither subtracts nor squares gamma: it does not cancel for large
    gamma. The expanded form a^2*gamma + b^2 - a^2*f^2*gamma^2/(sigma2 +
    f^2*gamma) loses every digit of the limit a^2*sigma2/f^2 + b^2 from gamma
    near 1e16 and overflows from gamma near 1e154. Above _large_variance the
    fraction is divided through by gamma, a^2*sigma2 / (sigma2/gamma + f^2),
    so sigma2*gamma and f^2*gamma, which may overflow there, are never
    formed; below it the form above is evaluated as written."""
    return _variance_step(params)(gamma)


def _variance_step(params: ModelParams):
    """riccati_map at one point as a function of gamma alone, with the
    point's products and _large_variance worked out once: the transient
    filter iterates it."""
    a2s2, f2, s2, b2 = params.a * params.a * params.sigma2, params.f * params.f, params.sigma2, params.b * params.b
    limit = _large_variance(params)

    def step(gamma: float) -> float:
        if gamma > limit:
            return a2s2 / (s2 / gamma + f2) + b2
        return a2s2 * gamma / (s2 + f2 * gamma) + b2

    return step


def _large_variance(params: ModelParams) -> float:
    """The variance above which sigma2*gamma or f^2*gamma may pass 2^1000.

    Below it every product in the Kalman step forms stays finite, and
    riccati_map and kalman.filter_transient evaluate them as written, so
    gamma = 0 divides by nothing; above it they divide each fraction
    through by gamma, which is then positive."""
    return 2.0**1000 / max(params.f * params.f, params.sigma2, 1.0)


# eps/4 for float64: the relative size of what a tail cut may leave out.
_TAIL_TOL = 2.0**-54


def _largest_a(problem: ParamProblem) -> float:
    """The largest |a| a complete problem's filters can meet: over its
    bounds box, or its known |a|."""
    if "a" in problem.bounds:
        return max(map(abs, problem.bounds["a"]))
    return abs(problem.known["a"])


def _memory(a_max: float) -> int:
    """The filter memory J for coefficients |A_s| <= a_max < 1: the fewest
    steps, at least 1, with a_max^J / (1 - a_max) <= eps/4.

    A recursion m_t = A_t m_{t-1} + drive_t started from 0 at step t - J
    leaves out prod A_s * m_{t-J}, at most a_max^J max|drive| / (1 - a_max)
    <= eps/4 * max|drive|. The likelihood's lag sums and the Monte Carlo
    harness's adaptive windows are cut at this J. It may exceed a series'
    length; callers cap it there, where nothing is cut."""
    if a_max <= 0.0:
        return 1
    return max(1, math.ceil(math.log(_TAIL_TOL * (1.0 - a_max)) / math.log(a_max)))


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
        d_gamma_star=d_gamma,
        d_p=d_p,
        d_a_coef=d_a_coef,
        d_gain=d_gain,
        d_b_coef=d_b_coef,
    )


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def _track_moments(params: ModelParams, unknown: tuple[str, ...]):
    """(sq, Pdot, beta, w, mu, cross) of fisher_info's derivation, as lists
    over a supported unknown set in canonical order (else UnsupportedSet),
    with C = (beta beta^T + cross)/(1 - A^2): cross holds the kappa/eps terms."""
    if _SUPPORTED_SETS.get(frozenset(unknown)) != unknown:
        raise UnsupportedSet(f"{unknown} is not a supported unknown set in canonical order")
    sq = stationary(params)
    a, A, root_p = params.a, sq.a_coef, math.sqrt(sq.p)
    B = a * sq.big_gamma / root_p
    mu = B * B / (1.0 - a * a)
    shocks = {"a": sq.big_gamma / root_p, "sigma2": -a / root_p}
    d_p = [stationary_gradient(params, coord).d_p for coord in unknown]
    kappa = [1.0 if coord == "a" else 0.0 for coord in unknown]
    eps = [shocks.get(coord, 0.0) for coord in unknown]
    beta = [a * params.sigma2 * dp / (sq.p * root_p) for dp in d_p]
    w = [(k * a * mu + (bt + e) * B) / (1.0 - a * A) for k, bt, e in zip(kappa, beta, eps)]
    n = range(len(unknown))
    half = [[kappa[j] * (A * w[i]) + eps[j] * beta[i] for j in n] for i in n]
    cross = [[half[i][j] + half[j][i] + (kappa[i] * kappa[j] * mu + eps[i] * eps[j]) for j in n] for i in n]
    return sq, d_p, beta, w, mu, cross


def fisher_info(params: ModelParams, unknown: tuple[str, ...]) -> np.ndarray:
    """Fisher information matrix per observation at ``params``, shape
    (dim, dim), rows and columns in the order of ``unknown``, which must be
    a supported unknown set in canonical order (else UnsupportedSet).

    M_t = f*m_t satisfies M_t = a*M_{t-1} + B*z_t at the true point, with z
    the standardized innovations. Differentiating the observed-form filter in
    coordinate i and substituting the true-point innovation representation
    leaves, for every coordinate,

        Mdot_{i,t} = A*Mdot_{i,t-1} + kappa_i*M_{t-1} + (beta_i + eps_i)*z_t,
        beta_i = a*sigma2*Pdot_i/P^(3/2),

    with kappa_a = 1, eps_a = Gamma/sqrt(P), eps_sigma2 = -a/sqrt(P) and
    every other kappa and eps 0. Every entry is

        I_ij = (C_ij + Pdot_i*Pdot_j/(2P)) / P,   C = E[Mdot Mdot^T],

    where the stationary second-moment recursions of (M, Mdot) give

        E[M^2] = mu = B^2/(1 - a^2),
        w_i = E[Mdot_i M] = (kappa_i*a*mu + (beta_i + eps_i)*B) / (1 - a*A),
        C_ij*(1 - A^2) = beta_i*beta_j + (kappa_j*A*w_i + eps_j*beta_i)
                         + (kappa_i*A*w_j + eps_i*beta_j)
                         + (kappa_i*kappa_j*mu + eps_i*eps_j).

    The share beta_i*beta_j/(1 - A^2) of C joins the Pdot term in the closed
    form Pdot_i*Pdot_j*(P^2 + a^2 sigma2^2) / (2 P^2 (P^2 - a^2 sigma2^2));
    the remaining terms are exactly 0.0 for b and f, where the closed form
    stands alone.

    Raises FisherSingular where P^2 overflows, and unless J = S*I*S,
    S = diag(|theta_i|) with 1 for a, has trace(J) > 0 and det(J) >= 1e-12
    for one coordinate, and det(J)/trace(J)^dim >= 1e-12 for several
    (positive definite, condition number below about 1e12 for a pair).
    Rescaling x -> c*x multiplies b, f and sigma2 by powers of c and divides
    I by the same powers, so J and the rule do not depend on the units of x.
    """
    return _information(params, unknown, _track_moments(params, unknown))


def _information(params: ModelParams, unknown: tuple[str, ...], moments) -> np.ndarray:
    """fisher_info from _track_moments(params, unknown), computed once by
    callers that also read the moments."""
    sq, d_p, _, _, _, cross = moments
    p2 = sq.p * sq.p
    # P > |a|*sigma2, so a finite P^2 keeps (a*sigma2)^2 finite too.
    if p2 == math.inf:
        raise FisherSingular(f"information for {unknown} overflows: P^2 is not finite at P = {sq.p}")
    as4 = (params.a * params.sigma2) ** 2
    rest_scale = sq.p * (1.0 - sq.a_coef * sq.a_coef)
    n = range(len(unknown))
    matrix = np.array(
        [[d_p[i] * d_p[j] * (p2 + as4) / (2.0 * p2 * (p2 - as4)) + cross[i][j] / rest_scale for j in n] for i in n]
    )
    scales = np.array([1.0 if name == "a" else abs(getattr(params, name)) for name in unknown])
    scaled = matrix * np.outer(scales, scales)
    trace = float(scaled.trace())
    scale = trace ** len(unknown) if len(unknown) > 1 else 1.0
    if not (trace > 0.0 and np.linalg.det(scaled) >= 1e-12 * scale):
        raise FisherSingular(f"information for {unknown} is singular or near-singular: {matrix.tolist()}")
    return matrix


def s_star_limit(params: ModelParams, unknown: tuple[str, ...]) -> float:
    """The limit S*^2 = tr(I^{-1} D) of t * E(m*_t - m_t)^2 for an unknown set
    in canonical order (else UnsupportedSet; FisherSingular where I is);
    derivation in the module docstring."""
    return _excess_and_information(params, unknown)[0]


def _excess_and_information(params: ModelParams, unknown: tuple[str, ...]) -> tuple[float, np.ndarray]:
    """(s_star_limit, fisher_info) at params, from one evaluation of the
    track moments and of the information."""
    moments = _track_moments(params, unknown)
    information = _information(params, unknown, moments)
    sq, _, beta, w, mu, cross = moments
    phi = np.array([1.0 / params.f if coord == "f" else 0.0 for coord in unknown])
    c = (np.outer(beta, beta) + cross) / (1.0 - sq.a_coef * sq.a_coef)
    d = (c - np.outer(phi, w) - np.outer(w, phi) + mu * np.outer(phi, phi)) / (params.f * params.f)
    # Rounding among subnormal entries of D (|a| < 1e-154) can go below 0.
    return max(float(np.linalg.solve(information, d).trace()), 0.0), information
