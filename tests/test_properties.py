"""Property suite: on random admissible points and on extreme series, every
estimator returns finite values (inside the bounds box for estimates) or
raises a HiddenArError; the transient filter may also raise the
ArithmeticError of a track that overflows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidden_ar import (
    FisherSingular,
    HiddenArError,
    ModelParams,
    adaptive_filter,
    bayes,
    filter_stationary,
    filter_transient,
    mle,
    mme,
    one_step,
    s_star_limit,
    simulate,
)
from hidden_ar.adaptive import _plug_in, _window_ends
from hidden_ar.model_core import _largest_a, stationary, stationary_from

from conftest import ALL_SETS, plugged_recursion, problem_for

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


# The starting variance, 0 or log-uniform up to 1e300.
gamma0_st = st.just(0.0) | st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@st.composite
def transient_case_st(draw):
    params = draw(params_st)
    return params, draw(series_st(params)), draw(st.floats(-10.0, 10.0)), draw(gamma0_st)


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
@given(case=case_st(ALL_SETS))
def test_one_step(case):
    _, problem, x = case
    trace = _run(lambda: one_step(x, problem))
    if trace is not None:
        _assert_estimates(trace.prelim, problem)
        _assert_estimates(trace.path, problem)


@settings(max_examples=100, deadline=None)
@given(case=case_st(ALL_SETS))
def test_adaptive_filter(case):
    params, problem, x = case
    trace = _run(lambda: adaptive_filter(x, problem, truth=params))
    if trace is not None:
        # The bidiagonal solve equals the step-by-step recursion on the
        # same plug-in values, on extreme series too.
        assert np.array_equal(trace.m_star, plugged_recursion(trace, x))
        assert np.isfinite(trace.m_star).all()
        assert np.isfinite(trace.oracle_m).all()
        _assert_estimates(trace.theta_plug, problem)


def _window_tolerance(alpha: float, memory: int, drive: np.ndarray) -> float:
    """What a recursion with |A_s| <= alpha started from 0 at step t - memory
    may leave out of m_t, alpha^J max|drive| / (1 - alpha), plus the rounding
    of both runs."""
    scale = float(np.abs(drive).max()) / (1.0 - alpha)
    return alpha**memory * scale + 8.0 * np.finfo(float).eps * scale / (1.0 - alpha)


@settings(max_examples=100, deadline=None)
@given(case=case_st(ALL_SETS), where=st.floats(0.0, 1.0), cut=st.floats(0.0, 1.0))
def test_adaptive_window(case, where, cut):
    # The harness's windows, at any checkpoint t and any memory J: the
    # plug-in run over [max(tau + 1, t - J + 1), t] and the oracle over
    # x[t - J .. t] give the whole tracks' m*_t and m_t(theta_0) within the
    # memory bound, and bit for bit where they reach back to the start.
    params, problem, x = case
    trace = _run(lambda: adaptive_filter(x, problem, truth=params))
    if trace is None:
        return
    tau, horizon = trace.tau, trace.horizon
    t = tau + 1 + round(where * (horizon - tau - 1))
    memory = 1 + round(cut * (horizon - 1))
    start = max(tau + 1, t - memory + 1)
    theta_plug, m_window = _plug_in(x, problem, trace.theta_track, start, t)
    assert np.array_equal(theta_plug, trace.theta_plug[start - tau - 1 : t - tau])
    sq = stationary_from(**problem.coordinates(trace.theta_plug[: t - tau].T))
    tol = _window_tolerance(_largest_a(problem), memory, sq.gain * x[tau + 1 : t + 1])
    if start == tau + 1:
        assert m_window[-1] == trace.m_star_at(t)
    else:
        assert abs(m_window[-1] - trace.m_star_at(t)) <= tol
    oracle = filter_stationary(params, x[max(0, t - memory) : t + 1]).m[-1]
    tol = _window_tolerance(abs(params.a), memory, stationary(params).gain * x[1 : t + 1])
    if t <= memory:
        assert oracle == trace.oracle_m[t]
    else:
        assert abs(oracle - trace.oracle_m[t]) <= tol


@settings(max_examples=100, deadline=None)
@given(case=case_st(ALL_SETS), wheres=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4), cut=st.floats(0.0, 1.0))
def test_window_ends(case, wheres, cut):
    # The harness's one solve over the plug-in and oracle windows of 1-4
    # checkpoints, in any order and at any memory J, ends each window as
    # _plug_in ends it alone, bit for bit, and the oracle windows as
    # filter_stationary does; a window _plug_in cannot finish ends
    # non-finite.
    params, problem, x = case
    track = _run(lambda: one_step(x, problem))
    if track is None:
        return
    tau, horizon = track.tau, track.horizon
    memory = 1 + round(cut * (horizon - 1))
    truth = problem.values_of(params)
    windows = []
    for where in wheres:
        t = tau + 1 + round(where * (horizon - tau - 1))
        windows += [(track, max(tau + 1, t - memory + 1), t), (truth, max(1, t - memory + 1), t)]
    ends = _window_ends(x, problem, windows)
    assert len(ends) == len(windows)
    for (plug, start, stop), end in zip(windows, ends):
        try:
            want = _plug_in(x, problem, plug, start, stop)[1][-1]
        except ArithmeticError:
            assert not np.isfinite(end)
            continue
        assert end == want
        if plug is truth:
            assert end == filter_stationary(params, x[start - 1 : stop + 1]).m[-1]


@settings(max_examples=100, deadline=None)
@given(case=transient_case_st())
def test_filter_transient(case):
    params, x, m0, gamma0 = case
    try:
        trace = filter_transient(params, x, m0=m0, gamma0=gamma0)
    except (HiddenArError, ArithmeticError):
        return
    for values in (trace.m, trace.gamma, trace.innovations):
        assert np.isfinite(values).all()


@settings(max_examples=300, deadline=None)
@given(params=params_st, unknown=st.sampled_from(ALL_SETS))
def test_s_star_limit(params, unknown):
    try:
        value = s_star_limit(params, unknown)
    except FisherSingular:
        return
    # 0 is attained: at a = 0 the filter's mean is 0 whatever b, f and
    # sigma2 are, and for |a| near 1e-160 the excess risk underflows.
    assert np.isfinite(value) and value >= 0.0


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
    values = _run(lambda: bayes(x, problem, grid_size=64))
    if values is not None:
        _assert_estimates(values, problem)
