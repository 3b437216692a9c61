"""Adaptive filter: reduction to the stationary filter, tracking, errors."""

import csv

import numpy as np
import pytest

from hidden_ar import (
    MismatchedLengths,
    UnsupportedSet,
    adaptive_filter,
    error_report,
    filter_stationary,
    one_step,
    s_star_limit,
    simulate,
    stationary,
    stationary_gradient,
)
from hidden_ar.cli import main

from conftest import REF, REF_VALUES, random_params, write_series_csv


class TestOracleReduction:
    def test_frozen_run_equals_stationary_filter_bitwise(self, problem_b):
        # Plugging a fixed point into every step must reproduce the
        # stationary filter started at the learning-interval end, exactly.
        rng = np.random.default_rng(501)
        for _ in range(10):
            params = random_params(rng)
            full = REF.replace(b=1.0)  # observations at the reference point
            x = simulate(full, 800, seed=int(rng.integers(1 << 30))).x
            frozen = problem_b.point(np.array([float(rng.uniform(0.3, 3.0))]))
            trace = adaptive_filter(x, problem_b, frozen_at=frozen)
            oracle = filter_stationary(frozen, x[trace.tau :], m0=0.0)
            assert np.array_equal(trace.m_star, oracle.m[1:])

    def test_frozen_trace_structure(self, problem_b):
        x = simulate(REF, 500, seed=81).x
        trace = adaptive_filter(x, problem_b, frozen_at=REF)
        assert trace.theta_track is None
        assert trace.oracle_m is None
        assert trace.theta_plug.shape == (500 - trace.tau, 1)
        assert np.all(trace.theta_plug == 1.0)


class TestAdaptiveRun:
    def test_track_reuse_and_plug_layout(self, problem_b):
        x = simulate(REF, 2000, seed=83).x
        track = one_step(x, problem_b)
        trace = adaptive_filter(x, problem_b, track=track, truth=REF)
        tau = track.tau
        assert trace.tau == tau
        assert trace.theta_plug.shape == (2000 - tau, 1)
        # Step t consumes the estimate in force at t-1.
        np.testing.assert_array_equal(trace.theta_plug[0], track.prelim)
        np.testing.assert_array_equal(trace.theta_plug[1], track.prelim)
        np.testing.assert_array_equal(trace.theta_plug[2], track.path[0])
        np.testing.assert_array_equal(
            trace.theta_plug[-1], track.path[2000 - tau - 3]
        )

    def test_fits_track_when_missing(self, problem_b):
        x = simulate(REF, 2000, seed=83).x
        auto = adaptive_filter(x, problem_b)
        manual = adaptive_filter(x, problem_b, track=one_step(x, problem_b))
        assert np.array_equal(auto.m_star, manual.m_star)

    def test_mismatched_track_rejected(self, problem_b):
        x = simulate(REF, 2000, seed=84).x
        short_track = one_step(x[:1501], problem_b)
        with pytest.raises(MismatchedLengths):
            adaptive_filter(x, problem_b, track=short_track)

    def test_track_for_another_problem_rejected(self, problem_b, problem_f):
        x = simulate(REF, 2000, seed=86).x
        track_f = one_step(x, problem_f)
        with pytest.raises(ValueError, match="fitted for"):
            adaptive_filter(x, problem_b, track=track_f)

    def test_frozen_point_must_match_known_values(self, problem_b):
        x = simulate(REF, 2000, seed=87).x
        with pytest.raises(ValueError, match="contradicts"):
            adaptive_filter(x, problem_b, frozen_at=REF.replace(a=0.9, b=2.0))
        adaptive_filter(x, problem_b, frozen_at=REF.replace(b=2.0))

    def test_oracle_track_recorded(self, problem_b):
        x = simulate(REF, 1000, seed=85).x
        trace = adaptive_filter(x, problem_b, truth=REF)
        want = filter_stationary(REF, x, m0=0.0).m
        assert np.array_equal(trace.oracle_m, want)
        assert trace.truth == REF

    def test_truth_must_match_known_values(self, problem_b):
        x = simulate(REF, 400, seed=1).x
        with pytest.raises(ValueError, match="contradicts"):
            adaptive_filter(x, problem_b, truth=REF.replace(a=0.1, b=3.0))
        with pytest.raises(ValueError, match="contradicts"):
            adaptive_filter(x, problem_b, frozen_at=REF, truth=REF.replace(a=0.1))

    def test_m_star_at_bounds(self, problem_b):
        x = simulate(REF, 1000, seed=86).x
        trace = adaptive_filter(x, problem_b)
        assert trace.m_star_at(trace.tau + 1) == trace.m_star[0]
        assert trace.m_star_at(1000) == trace.m_star[-1]
        with pytest.raises(ValueError):
            trace.m_star_at(trace.tau)
        with pytest.raises(ValueError):
            trace.m_star_at(1001)

    def test_tracks_the_oracle(self, problem_b):
        # The adaptive mean must be far closer to the oracle filter than
        # the scale of the state itself.
        x = simulate(REF, 10000, seed=87).x
        trace = adaptive_filter(x, problem_b, truth=REF)
        t = 10000
        diff = trace.m_star_at(t) - float(trace.oracle_m[t])
        assert abs(diff) < 0.2


class TestSStarLimit:
    def test_reference_value(self):
        got = s_star_limit(REF, ("b",))
        assert got == pytest.approx(REF_VALUES["s_star_sq"], abs=1e-14)
        assert got == pytest.approx(2.0 / 9.0, abs=1e-14)

    def test_other_coordinates_positive(self):
        # The formula keeps only the innovation-driven part of the derivative
        # track; its m-driven coefficient Adot + f*edot is 0 for b but has a
        # positive size for f (-e) and a (1), so those sets are rejected.
        rng = np.random.default_rng(121)
        for params in [REF] + [random_params(rng) for _ in range(20)]:
            sq = stationary(params)
            m_term = {}
            for wrt in ("b", "f", "a"):
                grad = stationary_gradient(params, wrt)
                m_term[wrt] = grad.d_a_coef + params.f * grad.d_gain
            assert m_term["b"] == pytest.approx(0.0, abs=1e-12)
            assert abs(m_term["f"]) > 0.0
            assert m_term["f"] == pytest.approx(-sq.gain, rel=1e-9, abs=1e-12)
            assert abs(m_term["a"]) > 0.0
            assert m_term["a"] == pytest.approx(1.0, rel=1e-9)
            for unknown in (("f",), ("a",)):
                with pytest.raises(UnsupportedSet):
                    s_star_limit(params, unknown)

    def test_unsupported(self):
        # The formula omits the m-driven term of the f and a derivative tracks.
        with pytest.raises(UnsupportedSet):
            s_star_limit(REF, ("f",))
        with pytest.raises(UnsupportedSet):
            s_star_limit(REF, ("a",))
        with pytest.raises(UnsupportedSet):
            s_star_limit(REF, ("f", "a"))
        with pytest.raises(UnsupportedSet):
            s_star_limit(REF, ("sigma2",))
        with pytest.raises(UnsupportedSet):
            s_star_limit(REF, "b")  # a coordinate name is not an unknown set


class TestErrorReport:
    def test_rows(self, problem_b):
        x = simulate(REF, 2000, seed=88).x
        trace = adaptive_filter(x, problem_b, truth=REF)
        oracle = filter_stationary(REF, x, m0=0.0)
        rows = error_report(trace, [0.5, 1.0])
        assert [r["v"] for r in rows] == [0.5, 1.0]
        assert rows[0]["t"] == 1000
        assert rows[1]["t"] == 2000
        for r in rows:
            t = int(r["t"])
            diff = trace.m_star_at(t) - float(oracle.m[t])
            assert r["filter_error"] == pytest.approx(t * diff * diff, rel=1e-12)
            dev = trace.theta_track.theta_at(t)[0] - REF.b
            assert r["estimator_error"] == pytest.approx(t * dev * dev, rel=1e-12)

    def test_frozen_run_has_no_estimator_error(self, problem_b):
        x = simulate(REF, 2000, seed=89).x
        trace = adaptive_filter(x, problem_b, frozen_at=REF, truth=REF)
        rows = error_report(trace, [1.0])
        assert rows[0]["estimator_error"] is None
        assert rows[0]["filter_error"] < 1e-20

    def test_checkpoint_validation(self, problem_b):
        x = simulate(REF, 2000, seed=90).x
        trace = adaptive_filter(x, problem_b, truth=REF)
        with pytest.raises(ValueError):
            error_report(trace, [0.01])  # inside the learning interval
        with pytest.raises(ValueError):
            error_report(trace, [1.5])
        with pytest.raises(ValueError):
            error_report(trace, [0.0])

    def test_run_without_truth_rejected(self, problem_b):
        x = simulate(REF, 2000, seed=91).x
        with pytest.raises(ValueError, match="no truth"):
            error_report(adaptive_filter(x, problem_b), [1.0])
        with pytest.raises(ValueError, match="no truth"):
            error_report(adaptive_filter(x, problem_b, frozen_at=REF), [1.0])


class TestExcessRisk:
    def test_normalized_filter_risk_near_limit(self, problem_b):
        # Wide-bracket Monte Carlo guard; the acceptance suite runs the
        # full-strength version.
        target = s_star_limit(REF, ("b",))
        errs = []
        t = 4000
        for rep in range(60):
            x = simulate(REF, t, seed=92, stream=rep).x
            trace = adaptive_filter(x, problem_b, truth=REF)
            diff = trace.m_star_at(t) - float(trace.oracle_m[t])
            errs.append(t * diff * diff)
        ratio = float(np.mean(errs)) / target
        assert 0.35 < ratio < 2.2, ratio


class TestAdaptiveCsv:
    def test_roundtrip(self, tmp_path, problem_b):
        x = simulate(REF, 400, seed=93).x
        trace = adaptive_filter(x, problem_b, truth=REF)
        argv = ["adaptive", "--T", "400", "--seed", "93", "--bounds", "b=0.1:5", "--out", str(tmp_path)]
        assert main(argv) == 0
        path = tmp_path / "adaptive.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(trace.m_star)
        assert int(rows[0]["t"]) == trace.tau + 1
        got_m = np.array([float(r["m_star"]) for r in rows])
        np.testing.assert_allclose(got_m, trace.m_star, rtol=0, atol=1e-12)
        got_theta = np.array([float(r["theta_star_1"]) for r in rows])
        np.testing.assert_allclose(got_theta, trace.theta_plug[:, 0], rtol=0, atol=1e-12)

    def test_blank_oracle_columns_without_truth(self, tmp_path):
        data = tmp_path / "x.csv"
        write_series_csv(data, simulate(REF, 400, seed=94).x)
        assert main(["adaptive", "--data", str(data), "--out", str(tmp_path)]) == 0
        path = tmp_path / "adaptive.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["oracle_m"] == "" and r["sq_error"] == "" for r in rows)
