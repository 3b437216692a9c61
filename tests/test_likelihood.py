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
    ParamProblem,
    PosteriorSpec,
    SeriesTooShort,
    bayes,
    log_likelihood,
    mle,
    simulate,
    stationary,
)
from hidden_ar.likelihood import _golden, _grid, _objective

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
        _, mesh = _grid(problem, 64 if len(unknown) == 1 else 12)
        nodes = np.stack([m.ravel() for m in mesh], axis=1)
        got = _objective(x, problem)(*nodes.T)
        want = [log_likelihood(x, problem.point(node)) for node in nodes]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_short_series(self):
        with pytest.raises(SeriesTooShort):
            log_likelihood(np.array([1.0]), REF)


class TestGolden:
    def test_ties_resolve_left(self):
        assert _golden(lambda g: 0.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-7)

    def test_finds_interior_maximum(self):
        got = _golden(lambda g: -(g - 0.37) ** 2, 0.0, 1.0)
        assert got == pytest.approx(0.37, abs=1e-7)


class TestMle:
    def test_scalar_recovers_truth(self, problem_b):
        x = simulate(REF, 20000, seed=62).x
        est = mle(x, problem_b)
        assert est.shape == (1,)
        assert abs(est[0] - REF.b) < 0.05

    def test_scalar_agrees_with_dense_scan(self, problem_b):
        # The grid + golden refinement must land on the true argmax of the
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
        spec = PosteriorSpec(prior=((0.1, 1e-6), (4.0, 1e-6), (5.0, 50.0)))
        pulled = bayes(x, problem_b, spec)[0]
        assert pulled > flat + 0.5

    def test_pair_posterior_mean(self, problem_fa):
        x = simulate(REF, 400, seed=70).x
        est = bayes(x, problem_fa, PosteriorSpec(grid_size=64))
        assert est.shape == (2,)
        assert abs(est[0] - REF.f) < 0.6
        assert abs(est[1] - REF.a) < 0.6

    def test_grid_size_guard(self, problem_b):
        x = simulate(REF, 100, seed=71).x
        with pytest.raises(ValueError):
            bayes(x, problem_b, PosteriorSpec(grid_size=32))

    def test_pair_with_tabulated_prior_rejected(self, problem_fa):
        x = simulate(REF, 100, seed=71).x
        spec = PosteriorSpec(prior=((0.1, 1.0), (5.0, 1.0)), grid_size=64)
        with pytest.raises(ValueError):
            bayes(x, problem_fa, spec)

    def test_nonpositive_prior_rejected(self, problem_b):
        x = simulate(REF, 100, seed=71).x
        spec = PosteriorSpec(prior=((0.1, 0.0), (5.0, 1.0)))
        with pytest.raises(ValueError):
            bayes(x, problem_b, spec)

    def test_mean_stays_in_box_with_all_mass_on_an_edge(self):
        # On this series the posterior puts all its mass on the upper f edge;
        # the weighted mean of the nodes used to round one ulp past it.
        params = ModelParams(a=0.0, b=1.0, f=1.4118331797400818, sigma2=1.0)
        problem = problem_for(params, ("f", "a"))
        x = simulate(params, 30, seed=0).x * 1e150
        with np.errstate(over="ignore", invalid="ignore"):
            values = bayes(x, problem, PosteriorSpec(grid_size=64))
        assert values[0] == problem.bounds["f"][1]
        assert problem.bounds["a"][0] <= values[1] <= problem.bounds["a"][1]

    def test_degenerate_posterior(self, problem_b):
        # Finite observations whose squares overflow to inf.
        x = simulate(REF, 100, seed=72).x * 1e155
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DegeneratePosterior):
            bayes(x, problem_b)
