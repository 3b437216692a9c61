"""Property suite: on random admissible points and on extreme series, every
estimator returns finite values (inside the bounds box for estimates) or
raises a HiddenArError."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidden_ar import (
    HiddenArError,
    ModelParams,
    PosteriorSpec,
    adaptive_filter,
    bayes,
    mle,
    mme,
    one_step,
    simulate,
)
from hidden_ar.model_core import INFORMATION_SETS

from conftest import problem_for

ALL_SETS = (("b",), ("f",), ("a",), ("sigma2",), ("f", "a"), ("a", "f", "sigma2"), ("a", "b", "sigma2"))
GRID_SETS = (("b",), ("f",), ("a",), ("sigma2",), ("f", "a"))

params_st = st.builds(
    ModelParams,
    a=st.floats(-0.9, 0.9),
    b=st.floats(0.2, 2.5),
    f=st.floats(0.2, 2.5) | st.floats(-2.5, -0.2),
    sigma2=st.floats(0.2, 2.5),
)


@st.composite
def series_st(draw, params):
    """A simulated series at params, or one of three extreme ones."""
    x = simulate(params, draw(st.integers(30, 400)), draw(st.integers(0, 2**32 - 1))).x
    kind = draw(st.sampled_from(["simulated", "constant", "near_constant", "scaled_1e150"]))
    if kind == "constant":
        return np.full_like(x, 3.0)
    if kind == "near_constant":
        return 3.0 + 1e-12 * x
    if kind == "scaled_1e150":
        return 1e150 * x
    return x


@st.composite
def case_st(draw, sets):
    params = draw(params_st)
    return params, problem_for(params, draw(st.sampled_from(sets))), draw(series_st(params))


def _run(call):
    """The call's result, or None when it raised a HiddenArError."""
    try:
        return call()
    except HiddenArError:
        return None


def _assert_estimates(values, problem):
    assert np.isfinite(values).all()
    assert not problem.clip(values)[1].any()


pytestmark = [
    pytest.mark.filterwarnings("ignore::hidden_ar.errors.FlatLikelihood"),
    pytest.mark.filterwarnings("ignore::RuntimeWarning"),
]


@settings(max_examples=150, deadline=None)
@given(case=case_st(ALL_SETS))
def test_mme(case):
    _, problem, x = case
    est = _run(lambda: mme(x, problem))
    if est is not None:
        _assert_estimates(est.values, problem)


@settings(max_examples=100, deadline=None)
@given(case=case_st(INFORMATION_SETS))
def test_one_step(case):
    _, problem, x = case
    trace = _run(lambda: one_step(x, problem))
    if trace is not None:
        _assert_estimates(trace.prelim, problem)
        _assert_estimates(trace.path, problem)


@settings(max_examples=100, deadline=None)
@given(case=case_st(INFORMATION_SETS))
def test_adaptive_filter(case):
    params, problem, x = case
    trace = _run(lambda: adaptive_filter(x, problem, truth=params))
    if trace is not None:
        assert np.isfinite(trace.m_star).all()
        assert np.isfinite(trace.oracle_m).all()
        _assert_estimates(trace.theta_plug, problem)


@settings(max_examples=60, deadline=None)
@given(case=case_st(GRID_SETS))
def test_mle(case):
    _, problem, x = case
    values = _run(lambda: mle(x, problem))
    if values is not None:
        _assert_estimates(values, problem)


@settings(max_examples=60, deadline=None)
@given(case=case_st(GRID_SETS))
def test_bayes(case):
    _, problem, x = case
    values = _run(lambda: bayes(x, problem, PosteriorSpec(grid_size=64)))
    if values is not None:
        _assert_estimates(values, problem)
