"""Likelihood evaluation, MLE search, and posterior-mean quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidden_ar import (
    DegeneratePosterior,
    FlatLikelihood,
    ModelParams,
    ObservationsOverflow,
    ParamProblem,
    SeriesTooShort,
    UnsupportedSet,
    bayes,
    fisher_info,
    log_likelihood,
    mle,
    simulate,
    stationary,
)
import hidden_ar.likelihood as likelihood_mod
from hidden_ar.likelihood import _lag_statistics, _Surface
from hidden_ar.model_core import _memory
from hidden_ar.onestep import _score_increments

from conftest import REF, problem_for


def reference_loglik(x, params) -> float:
    """Independent accumulation of the stationary-filter Gaussian likelihood."""
    sq = stationary(params)
    e = params.a * params.f * sq.gamma_star / sq.p
    ll = 0.0
    m = 0.0
    for t in range(1, len(x)):
        resid = x[t] - params.f * m
        ll += -0.5 * math.log(2.0 * math.pi * sq.p) - resid * resid / (2.0 * sq.p)
        m = sq.a_coef * m + e * x[t]
    return ll


class TestLogLikelihood:
    def test_against_reference(self):
        rng = np.random.default_rng(401)
        for _ in range(10):
            x = simulate(REF, 200, seed=int(rng.integers(1 << 30))).x
            cand = REF.replace(b=float(rng.uniform(0.5, 2.0)))
            got = log_likelihood(x, cand)
            want = reference_loglik(x, cand)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("a_max, lags", [(0.0, 1), (1e-3, 6), (0.5, 56), (0.9, 378), (0.99, 500), (0.999, 500)])
    def test_lag_count_is_the_filter_memory(self, a_max, lags):
        # The lag sums are cut at the filter memory J that also cuts the
        # Monte Carlo harness's adaptive windows, capped at T = 500.
        stats = _lag_statistics(simulate(REF, 500, seed=7).x, a_max)
        assert len(stats.lagged) == len(stats.recent) == lags == min(_memory(a_max), 500)

    def test_maximized_near_truth(self):
        x = simulate(REF, 50000, seed=61).x
        at_truth = log_likelihood(x, REF)
        for off in (0.8, 0.9, 1.1, 1.25):
            assert log_likelihood(x, REF.replace(b=off)) < at_truth

    @pytest.mark.parametrize("a", [0.0, 0.5, -0.5, 0.9, -0.9, 0.99, -0.99])
    @pytest.mark.parametrize("horizon", [1, 2, 50, 20000])
    def test_lag_sums_match_recursion(self, a, horizon):
        # The lag count is 1 at a=0, 56 at |a|=0.5, 378 at 0.9 and 4183 at
        # 0.99, so for a != 0 T=2 and 50 keep every lag and T=2e4 cuts.
        params = REF.replace(a=a)
        x = simulate(params, horizon, seed=402).x
        got = log_likelihood(x, params)
        assert got == pytest.approx(reference_loglik(x, params), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(-0.99, 0.99),
        b=st.floats(0.05, 5.0),
        f=st.floats(0.05, 5.0),
        f_sign=st.sampled_from([-1.0, 1.0]),
        sigma2=st.floats(0.05, 5.0),
        horizon=st.integers(1, 600),
        seed=st.integers(0, 2**30),
    )
    def test_random_points_agree_with_reference(self, a, b, f, f_sign, sigma2, horizon, seed):
        params = ModelParams(a=a, b=b, f=f_sign * f, sigma2=sigma2)
        x = simulate(REF, horizon, seed=seed).x
        got = log_likelihood(x, params)
        assert math.isfinite(got)
        assert got == pytest.approx(reference_loglik(x, params), rel=1e-12)

    @pytest.mark.parametrize("unknown", [("b",), ("f", "a")])
    def test_grid_evaluator_equals_per_node(self, unknown):
        problem = problem_for(REF, unknown)
        x = simulate(REF, 500, seed=403).x
        size = 64 if len(unknown) == 1 else 12
        _, mesh, got = _Surface(x, problem, (size,)).grid(size)
        nodes = np.stack([m.ravel() for m in mesh], axis=1)
        want = [log_likelihood(x, problem.point(node)) for node in nodes]
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-14, atol=0.0)

    def test_short_series(self):
        with pytest.raises(SeriesTooShort):
            log_likelihood(np.array([1.0]), REF)


# Points and boxes for the optimality test (|a| <= 0.9 keeps the lag count
# at 378). The third box starts at its point, so about half the estimates
# land on a lower bound.
WIDE = {"a": (-0.9, 0.9), "b": (0.05, 5.0), "f": (0.05, 5.0), "sigma2": (0.05, 5.0)}
OPTIMALITY_CASES = (
    (REF, WIDE),
    (ModelParams(a=-0.7, b=0.5, f=2.0, sigma2=0.3), WIDE),
    (ModelParams(a=0.1, b=2.0, f=0.5, sigma2=1.5), {"a": (0.1, 0.9), "b": (2.0, 5.0), "f": (0.5, 5.0), "sigma2": (1.5, 5.0)}),
)


class TestMleOptimality:
    # The oracle is the filter score (onestep._score_increments from m0 = 0,
    # independent of the lag statistics) at mle's point. Each interior
    # coordinate's score must vanish to 1e-5 of its standard deviation
    # sqrt(T I_kk); a coordinate within 1e-6 of the box width from a bound
    # must have a score that points out of the box.
    @pytest.mark.parametrize("horizon", [200, 1000, 10000])
    @pytest.mark.parametrize("case", range(len(OPTIMALITY_CASES)))
    @pytest.mark.parametrize("unknown", [("b",), ("f",), ("a",), ("sigma2",), ("f", "a")])
    def test_score_vanishes_or_points_out(self, unknown, case, horizon):
        truth, box = OPTIMALITY_CASES[case]
        problem = ParamProblem(
            unknown=unknown,
            bounds={name: box[name] for name in unknown},
            known={name: getattr(truth, name) for name in ("a", "b", "f", "sigma2") if name not in unknown},
        )
        for seed in range(4):
            x = simulate(truth, horizon, seed=1000 * case + seed).x
            est = problem.point(mle(x, problem))
            score = _score_increments(est, x, 0, unknown).sum(axis=0)
            info = fisher_info(est, unknown)
            for k, name in enumerate(unknown):
                lo, hi = problem.bounds[name]
                value = getattr(est, name)
                near = 1e-6 * (hi - lo)
                if value - lo <= near:
                    assert score[k] <= 0.0, (seed, name, value, score)
                elif hi - value <= near:
                    assert score[k] >= 0.0, (seed, name, value, score)
                else:
                    assert abs(score[k]) <= 1e-5 * math.sqrt(horizon * info[k, k]), (seed, name, value, score)


class TestMle:
    def test_scalar_recovers_truth(self, problem_b):
        x = simulate(REF, 20000, seed=62).x
        est = mle(x, problem_b)
        assert est.shape == (1,)
        assert abs(est[0] - REF.b) < 0.05

    def test_scalar_agrees_with_dense_scan(self, problem_b):
        # The grid scan and its refinement must land on the true argmax of the
        # likelihood restricted to the bounds, checked by a denser scan.
        x = simulate(REF, 2000, seed=63).x
        est = mle(x, problem_b)[0]
        grid = np.linspace(0.1, 5.0, 4001)
        lls = [log_likelihood(x, problem_b.point(np.array([g]))) for g in grid]
        dense = grid[int(np.argmax(lls))]
        assert abs(est - dense) < 2e-3

    def test_pair_recovers_truth(self, problem_fa):
        x = simulate(REF, 300, seed=64).x
        est = mle(x, problem_fa)
        assert est.shape == (2,)
        assert abs(est[0] - REF.f) < 0.4
        assert abs(est[1] - REF.a) < 0.4

    def test_flat_likelihood_warning(self):
        problem = ParamProblem(
            unknown=("b",),
            bounds={"b": (1.0, 1.0 + 1e-12)},
            known={"a": 0.5, "f": 1.0, "sigma2": 1.0},
        )
        x = simulate(REF, 50, seed=65).x
        with pytest.warns(FlatLikelihood):
            est = mle(x, problem)
        assert 1.0 <= est[0] <= 1.0 + 1e-12

    def test_incomplete_problem_rejected(self):
        prob = ParamProblem(unknown=("b",), bounds={"b": (0.1, 5.0)})
        with pytest.raises(ValueError):
            mle(simulate(REF, 100, seed=66).x, prob)

    def test_triple_rejected(self):
        prob = problem_for(REF, ("a", "f", "sigma2"))
        with pytest.raises(ValueError):
            mle(simulate(REF, 100, seed=66).x, prob)


class TestBayes:
    def test_scalar_recovers_truth(self, problem_b):
        x = simulate(REF, 20000, seed=67).x
        est = bayes(x, problem_b)
        assert abs(est[0] - REF.b) < 0.05

    def test_close_to_mle_on_long_series(self, problem_b):
        x = simulate(REF, 20000, seed=68).x
        assert abs(bayes(x, problem_b)[0] - mle(x, problem_b)[0]) < 0.02

    def test_informative_prior_pulls_the_mean(self, problem_b):
        # With only a handful of observations the prior dominates, so mass
        # concentrated near the upper bound must drag the posterior mean up.
        x = simulate(REF, 4, seed=69).x
        flat = bayes(x, problem_b)[0]
        pulled = bayes(x, problem_b, prior=((0.1, 1e-6), (4.0, 1e-6), (5.0, 50.0)))[0]
        assert pulled > flat + 0.5

    def test_pair_posterior_mean(self, problem_fa):
        x = simulate(REF, 400, seed=70).x
        est = bayes(x, problem_fa, grid_size=64)
        assert est.shape == (2,)
        assert abs(est[0] - REF.f) < 0.6
        assert abs(est[1] - REF.a) < 0.6

    def test_grid_size_guard(self, problem_b):
        x = simulate(REF, 100, seed=71).x
        for bad in (32, 100.5, True):
            with pytest.raises(ValueError):
                bayes(x, problem_b, grid_size=bad)
        assert np.array_equal(bayes(x, problem_b, grid_size=100.0), bayes(x, problem_b, grid_size=100))

    def test_pair_with_tabulated_prior_rejected(self, problem_fa):
        x = simulate(REF, 100, seed=71).x
        with pytest.raises(ValueError):
            bayes(x, problem_fa, grid_size=64, prior=((0.1, 1.0), (5.0, 1.0)))

    def test_nonpositive_prior_rejected(self, problem_b):
        x = simulate(REF, 100, seed=71).x
        with pytest.raises(ValueError):
            bayes(x, problem_b, prior=((0.1, 0.0), (5.0, 1.0)))

    def test_prior_must_span_the_box(self, problem_b):
        # Outside its table np.interp would hold the end densities flat.
        x = simulate(REF, 100, seed=71).x
        with pytest.raises(ValueError, match="lower bound 0.1"):
            bayes(x, problem_b, prior=((1.0, 1.0), (2.0, 1.0)))
        with pytest.raises(ValueError, match="upper bound 5.0"):
            bayes(x, problem_b, prior=((0.1, 1.0), (4.9, 1.0)))
        with pytest.raises(ValueError, match="nonempty"):
            bayes(x, problem_b, prior=np.empty((0, 2)))

    def test_non_finite_prior_rejected(self, problem_b):
        # A NaN or infinite abscissa used to run; an infinite density raised
        # DegeneratePosterior, a numerical failure, for an input mistake.
        x = simulate(REF, 100, seed=71).x
        for bad in (math.nan, math.inf, -math.inf):
            for prior in (((0.1, 1.0), (bad, 1.0), (5.0, 1.0)), ((0.1, 1.0), (2.0, bad), (5.0, 1.0))):
                with pytest.raises(ValueError, match="must be finite"):
                    bayes(x, problem_b, prior=prior)

    def test_mean_stays_in_box_with_all_mass_on_an_edge(self):
        # On this series the posterior puts all its mass on the upper f edge;
        # the weighted mean of the nodes used to round one ulp past it.
        params = ModelParams(a=0.0, b=1.0, f=1.4118331797400818, sigma2=1.0)
        problem = problem_for(params, ("f", "a"))
        x = simulate(params, 30, seed=0).x * 1e150
        with np.errstate(over="ignore", invalid="ignore"):
            values = bayes(x, problem, grid_size=64)
        assert values[0] == problem.bounds["f"][1]
        assert problem.bounds["a"][0] <= values[1] <= problem.bounds["a"][1]

    def test_degenerate_posterior(self, problem_b):
        # S0 just below the float64 maximum: the lag statistics are finite,
        # but the likelihood overflows at every node. That is an input error,
        # raised by the grid check, not a posterior that vanished.
        x = simulate(REF, 100, seed=72).x
        x = x * math.sqrt(0.999 * np.finfo(float).max / (x[1:] @ x[1:]))
        with pytest.raises(ObservationsOverflow, match="256 of 256 grid nodes"):
            mle(x, problem_b)
        with pytest.raises(ObservationsOverflow, match="512 of 512 grid nodes"):
            bayes(x, problem_b)

    def test_vanishing_weights_are_degenerate(self):
        # Every log-likelihood finite, but on a box a few ulp by 1e-300 wide
        # the product of the trapezoid weights underflows to zero.
        problem = ParamProblem(
            unknown=("f", "a"),
            bounds={"f": (1.0, 1.0000000000000009), "a": (0.0, 1e-300)},
            known={"b": 1.0, "sigma2": 1.0},
        )
        with pytest.raises(DegeneratePosterior):
            bayes(simulate(REF, 100, seed=72).x, problem, grid_size=64)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda x: mle(x, problem_for(REF, ("b",))),
        lambda x: bayes(x, problem_for(REF, ("f", "a")), grid_size=64),
        lambda x: log_likelihood(x, REF),
    ],
    ids=["mle", "bayes", "log_likelihood"],
)
def test_overflowing_observations_rejected(evaluate):
    # Finite observations whose squares overflow, so S0 is inf.
    x = simulate(REF, 2000, seed=74).x * 1e160
    with pytest.raises(ObservationsOverflow, match="overflow"):
        evaluate(x)


@pytest.mark.parametrize("scale", [1.5e152, 1.7e152, 1.9e152])
@pytest.mark.parametrize("estimator", [mle, bayes])
def test_likelihood_overflowing_at_grid_nodes_rejected(estimator, scale):
    # S0 and the lagged products are finite, but the residual sum of squares
    # overflows at some nodes of a's grid: 5, 110 and 246 of mle's 256 at
    # the three scales, where mle used to return a = 0.76, 0.56 and 0.04.
    x = simulate(REF, 2000, seed=3).x * scale
    with pytest.raises(ObservationsOverflow, match="grid nodes"):
        estimator(x, problem_for(REF, ("a",)))


def test_log_likelihood_overflow_rejected():
    # It used to return -inf.
    x = simulate(REF, 2000, seed=3).x * 1.9e152
    with pytest.raises(ObservationsOverflow, match="at the candidate"):
        log_likelihood(x, REF)


def test_mle_refined_value_checked(problem_b, monkeypatch):
    # Every scan node finite, the likelihood at the refined point not: the
    # refined estimate is rejected rather than returned.
    x = simulate(REF, 200, seed=75).x
    surface = _Surface(x, problem_b, (256,))
    monkeypatch.setattr(likelihood_mod, "_evaluate", lambda stats, **coordinates: -math.inf)
    with pytest.raises(ObservationsOverflow, match="refined MLE"):
        mle(x, problem_b, _surface=surface)


class TestSharedSurface:
    """One surface holding mle's scan grid and bayes's grid gives each
    estimator exactly what it computes alone."""

    @pytest.mark.parametrize("grid_size", [64, 512])
    @pytest.mark.parametrize("unknown", [("b",), ("f", "a")])
    def test_estimators_match_standalone(self, unknown, grid_size):
        problem = problem_for(REF, unknown)
        if unknown == ("f", "a"):
            # A narrower a box keeps the lag count, and so the 512^2 grid, cheap.
            problem = ParamProblem(unknown=unknown, bounds={"f": (0.1, 5.0), "a": (-0.6, 0.6)}, known=problem.known)
        x = simulate(REF, 1000, seed=76).x
        for t in (500, 1000):
            prefix = x[: t + 1]
            surface = _Surface(prefix, problem, (256, grid_size))
            assert np.array_equal(mle(prefix, problem, _surface=surface), mle(prefix, problem))
            shared = bayes(prefix, problem, grid_size, _surface=surface)
            assert np.array_equal(shared, bayes(prefix, problem, grid_size))


    def test_each_grid_checked_when_read(self, problem_b, monkeypatch):
        # A node value that is not finite on bayes's grid alone: mle reads
        # its own grid from the shared surface as it would alone, and bayes
        # raises, counting only its grid's nodes.
        x = simulate(REF, 200, seed=77).x
        lo, hi = problem_b.bounds["b"]
        poisoned = np.linspace(lo, hi, 512)[1]
        real = likelihood_mod._evaluate

        def evaluate(stats, a, b, f, sigma2):
            value = real(stats, a, b, f, sigma2)
            return np.where(b == poisoned, np.nan, value) if isinstance(value, np.ndarray) else value

        monkeypatch.setattr(likelihood_mod, "_evaluate", evaluate)
        surface = _Surface(x, problem_b, (256, 512))
        assert np.array_equal(mle(x, problem_b, _surface=surface), mle(x, problem_b))
        with pytest.raises(ObservationsOverflow, match="1 of 512 grid nodes"):
            bayes(x, problem_b, _surface=surface)


@pytest.mark.parametrize("estimator", [mle, bayes])
@pytest.mark.parametrize("unknown", [("a", "f", "sigma2"), ("a", "b", "sigma2")])
def test_grid_estimators_reject_a_triple(estimator, unknown):
    # The grids hold size^dim nodes: three unknowns are refused up front.
    x = simulate(REF, 100, seed=73).x
    with pytest.raises(UnsupportedSet, match="at most 2 unknowns"):
        estimator(x, problem_for(REF, unknown))
