"""Equivariance under a change of the units of x.

Rescaling x -> c*x is the same as (f, sigma2) -> (c*f, c^2*sigma2) with the
hidden track unchanged, and the same as (b, sigma2) -> (c*b, c^2*sigma2)
with the hidden track scaled by c. With the bounds and known values
rescaled alike, every estimate moves with its coordinates, the information
transforms as S^-1 I S^-1 (S the diagonal of the coordinate scales), and
S*^2 moves with the squared track."""

import numpy as np
import pytest

from hidden_ar import (
    COORDINATES,
    ModelParams,
    ParamProblem,
    adaptive_filter,
    bayes,
    fisher_info,
    mle,
    mme,
    one_step,
    s_star_limit,
    simulate,
)

from conftest import ALL_SETS, REF

GRID_SETS = (("b",), ("f",), ("a",), ("sigma2",), ("f", "a"))
SCALES = (1e-7, 1e-3, 4.0, 1e3)
# The power of c each coordinate takes under each change, and the power
# the hidden track takes.
CHANGES = {
    "f_sigma2": ({"a": 0, "b": 0, "f": 1, "sigma2": 2}, 0),
    "b_sigma2": ({"a": 0, "b": 1, "f": 0, "sigma2": 2}, 1),
}
BOX = {"a": (-0.9, 0.9), "b": (0.1, 4.0), "f": (0.1, 4.0), "sigma2": (0.1, 4.0)}
X = simulate(REF, 2000, seed=2101).x


def _scaled(unknown, change, c):
    """The truth and problem in the units where x is c*x, and the scale of
    each unknown coordinate."""
    powers, _ = CHANGES[change]
    params = ModelParams(**{name: getattr(REF, name) * c ** powers[name] for name in COORDINATES})
    problem = ParamProblem(
        unknown=unknown,
        bounds={name: tuple(v * c ** powers[name] for v in BOX[name]) for name in unknown},
        known={name: getattr(params, name) for name in COORDINATES if name not in unknown},
    )
    return params, problem, np.array([c ** powers[name] for name in unknown])


def _both(unknown, change, c, run):
    """run(x, params, problem) in the original units and with x -> c*x,
    and the coordinate scales."""
    params, problem, _ = _scaled(unknown, change, 1.0)
    params_c, problem_c, scale = _scaled(unknown, change, c)
    return run(X, params, problem), run(c * X, params_c, problem_c), scale


cases = pytest.mark.parametrize("c", SCALES)
changes = pytest.mark.parametrize("change", CHANGES)


@cases
@changes
@pytest.mark.parametrize("unknown", ALL_SETS)
class TestEveryUnknownSet:
    def test_fisher_info(self, unknown, change, c):
        base, got, scale = _both(unknown, change, c, lambda x, params, problem: fisher_info(params, unknown))
        np.testing.assert_allclose(got, base / np.outer(scale, scale), rtol=1e-12)

    def test_s_star_limit(self, unknown, change, c):
        base, got, _ = _both(unknown, change, c, lambda x, params, problem: s_star_limit(params, unknown))
        assert got == pytest.approx(base * c ** (2 * CHANGES[change][1]), rel=1e-9, abs=0.0)

    def test_mme(self, unknown, change, c):
        base, got, scale = _both(unknown, change, c, lambda x, params, problem: mme(x, problem).values)
        np.testing.assert_allclose(got, base * scale, rtol=1e-9)

    def test_one_step_path(self, unknown, change, c):
        base, got, scale = _both(unknown, change, c, lambda x, params, problem: one_step(x, problem).path)
        np.testing.assert_allclose(got, base * scale, rtol=1e-9)

    def test_adaptive_track(self, unknown, change, c):
        base, got, _ = _both(unknown, change, c, lambda x, params, problem: adaptive_filter(x, problem).m_star)
        np.testing.assert_allclose(got, base * c ** CHANGES[change][1], rtol=1e-9)


@cases
@changes
@pytest.mark.parametrize("unknown", GRID_SETS)
class TestGridEstimators:
    def test_bayes(self, unknown, change, c):
        base, got, scale = _both(unknown, change, c, lambda x, params, problem: bayes(x, problem, grid_size=64))
        np.testing.assert_allclose(got, base * scale, rtol=1e-9)

    def test_mle(self, unknown, change, c):
        base, got, scale = _both(unknown, change, c, lambda x, params, problem: mle(x, problem))
        np.testing.assert_allclose(got, base * scale, rtol=1e-6)
