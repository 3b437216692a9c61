"""One-step estimator process: learning interval, scoring, equivalences."""

import csv

import numpy as np
import pytest

from hidden_ar import (
    ExperimentConfig,
    FisherSingular,
    HorizonTooShort,
    ModelParams,
    ParamProblem,
    fisher_info,
    learning_interval,
    mme,
    one_step,
    run_monte_carlo,
    simulate,
)
from hidden_ar.cli import main

from conftest import ALL_SETS, REF, REF_VALUES, problem_for, running_update


class TestLearningInterval:
    def test_reference_sizes(self):
        assert learning_interval(10**4, 0.6) == 251
        assert learning_interval(10**5, 0.6) == 1000

    def test_exact_powers_not_undershot(self):
        # 32**0.6 = 8 and 1024**0.6 = 64 exactly; the floor must not slip
        # to 7 or 63 through floating-point representation.
        assert learning_interval(32, 0.6) == 8
        assert learning_interval(1024, 0.6) == 64

    def test_delta_range(self):
        for bad in (0.5, 1.0, 0.3, 1.4):
            with pytest.raises(ValueError):
                learning_interval(1000, bad)
        for bad in ("0.6", True, None):
            with pytest.raises(ValueError, match="delta must be a real number"):
                learning_interval(1000, bad)

    def test_whole_horizon_required(self):
        assert learning_interval(1024.0, 0.6) == 64
        for bad in (1024.5, True):
            with pytest.raises(ValueError):
                learning_interval(bad, 0.6)

    def test_horizon_too_short(self):
        with pytest.raises(HorizonTooShort):
            learning_interval(15, 0.6)
        with pytest.raises(HorizonTooShort):
            learning_interval(16, 0.99)


class TestOneStepScalar:
    def test_recovers_truth(self, problem_b):
        x = simulate(REF, 10000, seed=41).x
        trace = one_step(x, problem_b)
        assert trace.tau == 251
        assert abs(trace.theta_at(10000)[0] - REF.b) < 0.1
        assert trace.path.shape == (10000 - 251 - 1, 1)
        np.testing.assert_array_equal(trace.t_grid, np.arange(253, 10001))
        assert trace.horizon == 10000
        assert trace.prelim_estimate is not None
        np.testing.assert_array_equal(trace.prelim_estimate.values, trace.prelim)

    def test_theta_at_semantics(self, problem_b):
        x = simulate(REF, 1000, seed=42).x
        trace = one_step(x, problem_b)
        tau = trace.tau
        np.testing.assert_array_equal(trace.theta_at(tau), trace.prelim)
        np.testing.assert_array_equal(trace.theta_at(tau + 1), trace.prelim)
        np.testing.assert_array_equal(trace.theta_at(tau + 2), trace.path[0])
        np.testing.assert_array_equal(trace.theta_at(1000), trace.path[-1])
        with pytest.raises(ValueError):
            trace.theta_at(tau - 1)
        with pytest.raises(ValueError):
            trace.theta_at(1001)

    def test_theta_at_whole_float(self, problem_b):
        # A whole float is a time; any other float raises ValueError, not
        # numpy's IndexError.
        x = simulate(REF, 2000, seed=42).x
        trace = one_step(x, problem_b)
        np.testing.assert_array_equal(trace.theta_at(1500.0), trace.theta_at(1500))
        with pytest.raises(ValueError, match="whole number"):
            trace.theta_at(1500.5)

    def test_preliminary_is_full_series_moment_estimate(self, problem_b):
        x = simulate(REF, 2000, seed=45).x
        trace = one_step(x, problem_b)
        np.testing.assert_array_equal(trace.prelim, mme(x, problem_b).values)

    def test_explicit_preliminary(self, problem_b):
        x = simulate(REF, 1000, seed=46).x
        trace = one_step(x, problem_b, prelim=[0.9])
        assert trace.prelim_estimate is None
        np.testing.assert_array_equal(trace.prelim, np.array([0.9]))
        with pytest.raises(ValueError, match=r"preliminary b=99.0 is outside its bounds \(0.1, 5.0\)"):
            one_step(x, problem_b, prelim=[99.0])

    def test_short_series_rejected(self, problem_b):
        x = simulate(REF, 10, seed=47).x
        with pytest.raises(HorizonTooShort):
            one_step(x, problem_b)

    def test_singular_information_rejected(self):
        problem = ParamProblem(
            unknown=("b",),
            bounds={"b": (1e-9, 5.0)},
            known={"a": 0.5, "f": 1.0, "sigma2": 1.0},
        )
        x = simulate(REF, 1000, seed=48).x
        with pytest.raises(FisherSingular):
            one_step(x, problem, prelim=[1e-9])


class TestClippedRows:
    def test_flags_exactly_the_moved_rows(self, problem_b):
        # With an explicit preliminary the unclipped candidates do not depend
        # on the bounds, so a wide-bounds run gives them directly.
        x = simulate(REF, 400, seed=56).x
        wide = one_step(x, problem_b, prelim=1.0).path[:, 0]
        lo, hi = float(np.quantile(wide, 0.2)), float(np.quantile(wide, 0.8))
        assert lo < 1.0 < hi  # the preliminary itself is not clipped
        tight = ParamProblem(unknown=("b",), bounds={"b": (lo, hi)}, known=problem_b.known)
        trace = one_step(x, tight, prelim=1.0)
        moved = (wide < lo) | (wide > hi)
        assert (wide < lo).any() and (wide > hi).any() and not moved.all()
        np.testing.assert_array_equal(trace.clipped, moved)
        np.testing.assert_array_equal(trace.path[:, 0], np.clip(wide, lo, hi))


class TestZeroCorrection:
    """A configuration where every score increment is exactly zero.

    At a = 0 the filter coefficients A and e vanish, so m and dm are
    identically zero and the residual is x itself; with b = 0.5, f = 2,
    sigma2 = 3 the prediction variance is P = 4 exactly in floating point,
    so feeding the constant series x = sqrt(P) = 2 kills both score terms
    bit-exactly and the one-step path must equal the preliminary.
    """

    def test_path_equals_preliminary_exactly(self):
        problem = ParamProblem(
            unknown=("b",),
            bounds={"b": (0.1, 5.0)},
            known={"a": 0.0, "f": 2.0, "sigma2": 3.0},
        )
        x = np.full(501, 2.0)
        trace = one_step(x, problem, prelim=[0.5])
        assert np.all(trace.path == 0.5)
        assert not trace.clipped.any()
        path, clipped = running_update(trace, x, problem)
        assert np.all(path == 0.5)
        assert not clipped.any()

    def test_information_positive_at_crafted_point(self):
        problem = ParamProblem(
            unknown=("b",),
            bounds={"b": (0.1, 5.0)},
            known={"a": 0.0, "f": 2.0, "sigma2": 3.0},
        )
        params = problem.point(np.array([0.5]))
        info = fisher_info(params, problem.unknown)
        assert info[0, 0] == pytest.approx(0.5, abs=1e-15)


class TestCausality:
    """Each path row uses the observations up to its own time only."""

    @pytest.mark.parametrize("unknown", [("b",), ("f", "a"), ("a", "b", "sigma2")])
    def test_path_ignores_later_observations(self, unknown):
        x = simulate(REF, 2000, seed=31).x
        s = 1200
        moved = x.copy()
        moved[s + 1 :] += np.random.default_rng(5).uniform(-3.0, 3.0, len(x) - s - 1)
        problem = problem_for(REF, unknown)
        prelim = problem.values_of(REF)
        base = one_step(x, problem, prelim=prelim)
        other = one_step(moved, problem, prelim=prelim)
        upto = base.t_grid <= s
        assert np.array_equal(base.path[upto], other.path[upto])
        assert not np.array_equal(base.path[~upto], other.path[~upto])


class TestOneStepPair:
    def test_recovers_truth(self, problem_fa):
        x = simulate(REF, 10000, seed=49).x
        trace = one_step(x, problem_fa)
        final = trace.theta_at(10000)
        assert abs(final[0] - REF.f) < 0.2
        assert abs(final[1] - REF.a) < 0.2
        assert trace.path.shape == (10000 - 251 - 1, 2)

    def test_singular_information_rejected(self):
        # At a = 0 the observations are white noise of variance
        # f^2 b^2 + sigma2, so b and sigma2 cannot be told apart: the
        # information about (a, b, sigma2) at that preliminary is singular.
        x = simulate(REF, 1000, seed=52).x
        with pytest.raises(FisherSingular):
            one_step(x, problem_for(REF, ("a", "b", "sigma2")), prelim=[0.0, 1.0, 1.0])


@pytest.mark.parametrize("unknown", ALL_SETS)
def test_path_equals_running_update(unknown):
    # fisher_info covers every set ParamProblem accepts, so the process runs
    # on each of them, and its cumulative sums agree with the running update.
    x = simulate(REF, 3000, seed=43).x
    problem = problem_for(REF, unknown)
    trace = one_step(x, problem)
    path, clipped = running_update(trace, x, problem)
    assert trace.path.shape == (3000 - trace.tau - 1, len(unknown))
    assert np.isfinite(trace.path).all()
    assert float(np.abs(trace.path - path).max()) < 1e-12
    np.testing.assert_array_equal(trace.clipped, clipped)


@pytest.mark.parametrize("unknown", ALL_SETS, ids=",".join)
def test_rows_are_slices_of_the_whole_path(unknown):
    # A trace stores its correction sums and forms rows only when read. Any
    # range of rows, single rows included, and its clip flags are the
    # matching slice of the path formed in one pass over all rows, bit for
    # bit. A box of +-0.1 around the truth clips some rows of every set.
    x = simulate(REF, 2000, seed=44).x
    problem = problem_for(REF, unknown)
    box = {name: (getattr(REF, name) - 0.1, getattr(REF, name) + 0.1) for name in problem.unknown}
    trace = one_step(x, ParamProblem(unknown=problem.unknown, bounds=box, known=problem.known))
    tau, horizon = trace.tau, trace.horizon
    steps = np.arange(1, horizon - tau + 1, dtype=float)[:, None]
    whole, side = trace.problem.clip(trace.prelim + trace.score_sums @ trace.inverse_information / steps)
    whole, flags = whole[1:], side[1:].any(axis=1)  # t = tau+2 .. T
    assert 0 < flags.sum() < len(flags)
    np.testing.assert_array_equal(trace.path, whole)
    np.testing.assert_array_equal(trace.clipped, flags)
    np.testing.assert_array_equal(trace.t_grid, np.arange(tau + 2, horizon + 1))
    rng = np.random.default_rng(45)
    spans = [(tau + 2, tau + 2), (horizon, horizon), (tau + 2, horizon)]
    spans += [tuple(sorted(rng.integers(tau + 2, horizon + 1, 2).tolist())) for _ in range(20)]
    spans += [(t, t) for t in rng.integers(tau + 2, horizon + 1, 20).tolist()]
    for start, stop in spans:
        values, clipped = trace.rows(start, stop)
        np.testing.assert_array_equal(values, whole[start - tau - 2 : stop - tau - 1])
        np.testing.assert_array_equal(clipped, flags[start - tau - 2 : stop - tau - 1])
    for t in (tau + 2, (tau + horizon) // 2, horizon):
        np.testing.assert_array_equal(trace.theta_at(t), whole[t - tau - 2])
    for start, stop in ((tau + 1, tau + 5), (tau + 5, tau + 4), (horizon, horizon + 1)):
        with pytest.raises(ValueError, match="path rows cover"):
            trace.rows(start, stop)


class TestEfficiencySmoke:
    def test_normalized_variance_near_bound(self, problem_b):
        # Full-strength verification runs in the acceptance suite; this is
        # a wide-bracket regression guard at R=100, T=4000.
        final = []
        for rep in range(100):
            x = simulate(REF, 4000, seed=52, stream=rep).x
            final.append(one_step(x, problem_b).theta_at(4000)[0])
        ratio = 4000 * float(np.var(final, ddof=1)) / REF_VALUES["inv_info_b"]
        assert 0.5 < ratio < 1.8, ratio

    def test_sigma2_ratio_in_criterion_07_band(self):
        # The Monte Carlo check of criterion 07, run for sigma2: t*Var/I^{-1}
        # at t=T was 1.03 at this seed and 1.01 at seed 11.
        config = ExperimentConfig(
            params=REF,
            problem=ParamProblem(unknown=("sigma2",), bounds={"sigma2": (0.1, 5.0)}),
            horizons=(10000,),
            replications=1000,
            checkpoints=(1.0,),
            seed=5,
            estimators=("onestep",),
        )
        (cell,) = run_monte_carlo(config).cells
        assert cell["failures"] == 0 and cell["n"] == 1000
        assert 0.90 <= cell["ratio"] <= 1.10, cell["ratio"]
        assert cell["ks_pvalue"] > 0.01, cell["ks_pvalue"]


class TestEstimatorCsv:
    def test_roundtrip(self, tmp_path, problem_b):
        x = simulate(REF, 300, seed=53).x
        trace = one_step(x, problem_b)
        argv = ["onestep", "--T", "300", "--seed", "53", "--bounds", "b=0.1:5", "--out", str(tmp_path)]
        assert main(argv) == 0
        path = tmp_path / "estimator.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(trace.t_grid)
        assert int(rows[0]["t"]) == trace.t_grid[0]
        got = np.array([float(r["theta_1"]) for r in rows])
        np.testing.assert_allclose(got, trace.path[:, 0], rtol=0, atol=1e-12)
        assert all(r["clipped"] in ("0", "1") for r in rows)
