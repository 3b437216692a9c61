"""One-step estimator process: learning interval, scoring, equivalences."""

import csv

import numpy as np
import pytest

from hidden_ar import (
    FisherSingular,
    HorizonTooShort,
    ModelParams,
    ParamProblem,
    UnsupportedSet,
    fisher_info,
    learning_interval,
    mme,
    one_step,
    simulate,
)
from hidden_ar.cli import main

from conftest import REF, REF_VALUES, problem_for


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

    def test_batch_equals_recurrent(self, problem_b):
        x = simulate(REF, 3000, seed=43).x
        batch = one_step(x, problem_b, method="batch")
        rec = one_step(x, problem_b, method="recurrent")
        assert float(np.abs(batch.path - rec.path).max()) < 1e-12
        np.testing.assert_array_equal(batch.clipped, rec.clipped)

    def test_invalid_method(self, problem_b):
        x = simulate(REF, 1000, seed=44).x
        with pytest.raises(ValueError):
            one_step(x, problem_b, method="online")

    def test_preliminary_is_full_series_moment_estimate(self, problem_b):
        x = simulate(REF, 2000, seed=45).x
        trace = one_step(x, problem_b)
        np.testing.assert_array_equal(trace.prelim, mme(x, problem_b).values)

    def test_explicit_preliminary(self, problem_b):
        x = simulate(REF, 1000, seed=46).x
        trace = one_step(x, problem_b, prelim=[0.9])
        assert trace.prelim_estimate is None
        np.testing.assert_array_equal(trace.prelim, np.array([0.9]))
        clipped = one_step(x, problem_b, prelim=[99.0])
        np.testing.assert_array_equal(clipped.prelim, np.array([5.0]))

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
        for method in ("batch", "recurrent"):
            trace = one_step(x, problem, method=method, prelim=[0.5])
            assert np.all(trace.path == 0.5), method
            assert not trace.clipped.any()

    def test_information_positive_at_crafted_point(self):
        problem = ParamProblem(
            unknown=("b",),
            bounds={"b": (0.1, 5.0)},
            known={"a": 0.0, "f": 2.0, "sigma2": 3.0},
        )
        params = problem.point(np.array([0.5]))
        info = fisher_info(params, problem.unknown)
        assert info[0, 0] == pytest.approx(0.5, abs=1e-15)


class TestOneStepPair:
    def test_recovers_truth(self, problem_fa):
        x = simulate(REF, 10000, seed=49).x
        trace = one_step(x, problem_fa)
        final = trace.theta_at(10000)
        assert abs(final[0] - REF.f) < 0.2
        assert abs(final[1] - REF.a) < 0.2
        assert trace.path.shape == (10000 - 251 - 1, 2)

    def test_batch_equals_recurrent(self, problem_fa):
        x = simulate(REF, 3000, seed=50).x
        batch = one_step(x, problem_fa, method="batch")
        rec = one_step(x, problem_fa, method="recurrent")
        assert float(np.abs(batch.path - rec.path).max()) < 1e-12

    def test_singular_information_rejected(self):
        # With b and f near zero the observations are almost white noise, so
        # the information about (f, a) is near-singular at the preliminary.
        problem = ParamProblem(
            unknown=("f", "a"),
            bounds={"f": (1e-4, 5.0), "a": (-0.9, 0.9)},
            known={"b": 1e-6, "sigma2": 1.0},
        )
        x = simulate(REF, 1000, seed=52).x
        with pytest.raises(FisherSingular):
            one_step(x, problem, prelim=[1e-3, -0.5])


@pytest.mark.parametrize("unknown", [("sigma2",), ("a", "f", "sigma2"), ("a", "b", "sigma2")])
def test_sets_without_information_rejected(unknown):
    # The process needs the Fisher information, which these sets lack.
    x = simulate(REF, 1000, seed=54).x
    with pytest.raises(UnsupportedSet, match="Fisher information"):
        one_step(x, problem_for(REF, unknown))


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
