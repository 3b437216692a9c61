"""Exception taxonomy for the hidden AR(1) filtering and estimation library.

Errors that signal rejected inputs or configuration subclass ValueError;
errors that signal numerical breakdown during an otherwise valid computation
subclass ArithmeticError. The command line layer maps the former to exit
code 2 and the latter (together with unexpected failures) to exit code 1.

:func:`as_series` is the one check every entry point applies to an
observation series, :func:`as_whole` the one check on a count such as
a horizon, and :func:`as_real` the one check on a real-valued config field
such as a bound.
"""

from __future__ import annotations

import numbers

import numpy as np


class HiddenArError(Exception):
    """Base class for every library-specific error."""


class ConditionA0Violated(HiddenArError, ValueError):
    """A parameter value or bound leaves the admissible region
    a^2 < 1, b > 0, f != 0, sigma2 > 0."""

    def __init__(self, coordinate: str, message: str):
        self.coordinate = coordinate
        super().__init__(f"{coordinate}: {message}")


class ForbiddenPair(HiddenArError, ValueError):
    """The unknown set contains both f and b, which are not jointly
    identifiable (the observed law depends on them only through f*b)."""


class UnsupportedSet(HiddenArError, ValueError):
    """The unknown set is not one of the supported coordinate sets."""


class UnsupportedCoordinate(HiddenArError, ValueError):
    """The requested coordinate is not one of a, b, f and sigma2 (for
    example a derivative filter with respect to an unknown name)."""


class SeriesTooShort(HiddenArError, ValueError):
    """The observation series has too few samples for the operation."""


class NonFiniteObservations(HiddenArError, ValueError):
    """The observation series contains a NaN or an infinite value."""


class ObservationsOverflow(HiddenArError, ValueError):
    """The observations are finite but so large that the sum of their
    squares or a lagged product overflows, so the likelihood is undefined."""


class InvalidSeed(HiddenArError, ValueError):
    """A seed or stream id lies outside [0, 2**64), the Philox key range."""


class ZeroHorizon(HiddenArError, ValueError):
    """A simulation horizon below 1 was requested."""


class HorizonTooShort(HiddenArError, ValueError):
    """The horizon cannot accommodate the learning interval
    (floor(T^delta) > T - 2) or is below the minimum supported length."""


class FisherSingular(HiddenArError, ArithmeticError):
    """The Fisher information evaluated at the preliminary estimate is
    numerically singular, so the scoring correction is undefined."""


class DegeneratePosterior(HiddenArError, ArithmeticError):
    """All posterior quadrature weights underflowed or became non-finite
    even after log-sum-exp stabilization; signals numerical failure."""


class FlatLikelihood(HiddenArError, Warning):
    """Warning category: the likelihood grid scan was flat to within 1e-9,
    so the maximizer is reported from the grid argmax."""


def as_series(x, min_length: int) -> np.ndarray:
    """Return the observations as a 1-d float array, rejecting any other
    shape, fewer than min_length values (SeriesTooShort) and NaN or
    infinite entries (NonFiniteObservations)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < min_length:
        raise SeriesTooShort(
            f"need a 1-d series with at least {min_length} observations, got shape {x.shape}"
        )
    if not np.isfinite(x).all():
        first = int(np.flatnonzero(~np.isfinite(x))[0])
        raise NonFiniteObservations(f"observation x[{first}] = {x[first]} is not finite")
    return x


def as_whole(name: str, value) -> int:
    """value as an int; booleans and non-integral numbers raise ValueError,
    so a horizon of 10.7 or True is never truncated to 10 or 1."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def as_real(name: str, value) -> float:
    """value as a float; booleans, strings and other non-numbers raise
    ValueError, so a field of "0.5" or True is never coerced."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a real number, got {value!r}")
