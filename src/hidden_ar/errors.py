"""Exception taxonomy for the hidden AR(1) filtering and estimation library.

Errors that signal rejected inputs or configuration subclass ValueError;
errors that signal numerical breakdown during an otherwise valid computation
subclass ArithmeticError. The command line layer maps the former to exit
code 2 and the latter (together with unexpected failures) to exit code 1.
"""

from __future__ import annotations


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
    """The requested coordinate is outside the supported set for this
    operation (for example a derivative filter with respect to sigma2)."""


class SeriesTooShort(HiddenArError, ValueError):
    """The observation series has too few samples for the operation."""


class ZeroHorizon(HiddenArError, ValueError):
    """A simulation horizon below 1 was requested."""


class HorizonTooShort(HiddenArError, ValueError):
    """The horizon cannot accommodate the learning interval
    (floor(T^delta) > T - 2) or is below the minimum supported length."""


class MismatchedLengths(HiddenArError, ValueError):
    """Two series that must share a time axis have incompatible lengths."""


class FisherSingular(HiddenArError, ArithmeticError):
    """The Fisher information evaluated at the preliminary estimate is
    numerically singular, so the scoring correction is undefined."""


class DegeneratePosterior(HiddenArError, ArithmeticError):
    """All posterior quadrature weights underflowed or became non-finite
    even after log-sum-exp stabilization; signals numerical failure."""


class FlatLikelihood(HiddenArError, Warning):
    """Warning category: the likelihood grid scan was flat to within 1e-9,
    so the maximizer is reported from the grid argmax."""
