"""Adaptive filter: reduction to the stationary filter, tracking, errors."""

import csv

import numpy as np
import pytest

from hidden_ar import (
    ExperimentConfig,
    FisherSingular,
    ModelParams,
    ParamProblem,
    UnsupportedSet,
    adaptive_filter,
    error_report,
    filter_stationary,
    fisher_info,
    learning_interval,
    one_step,
    run_monte_carlo,
    s_star_limit,
    simulate,
    stationary,
    stationary_gradient,
)
from hidden_ar.cli import main

from hidden_ar.adaptive import _plug_in, _recursion, _window_ends
import hidden_ar.onestep as onestep_mod

from conftest import (
    ALL_SETS,
    REF,
    REF_VALUES,
    plugged_recursion,
    problem_for,
    random_params,
    recursion_loop,
    write_series_csv,
)


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
        assert trace.tau == learning_interval(500, 0.6)
        assert trace.theta_track is None
        assert trace.oracle_m is None
        assert trace.theta_plug.shape == (500 - trace.tau, 1)
        assert np.all(trace.theta_plug == 1.0)


class TestRecursionSolve:
    """The bidiagonal solve reproduces the step-by-step recursion bit for bit."""

    def test_random_coefficient_paths(self):
        rng = np.random.default_rng(511)
        edge = 1.0 - 1e-12
        for n in (1, 2, 3, 17, 1000, 100_000):
            for _ in range(4):
                a_coef = rng.uniform(-edge, edge, n)
                drive = 10.0 ** rng.uniform(-5, 5) * rng.standard_normal(n)
                m = _recursion(a_coef, drive)
                assert m.shape == (n,)
                assert np.array_equal(m, recursion_loop(a_coef, drive))
            # Coefficients within 1e-12 of the unit circle, of either sign.
            near = 1.0 - 10.0 ** rng.uniform(-12, -1, n)
            a_coef = np.clip(rng.choice([-1.0, 1.0], n) * near, -edge, edge)
            drive = rng.standard_normal(n)
            assert np.array_equal(_recursion(a_coef, drive), recursion_loop(a_coef, drive))

    def test_constant_coefficient(self):
        rng = np.random.default_rng(512)
        for a in (REF_VALUES["a_coef"], -0.9, 1.0 - 1e-12):
            drive = rng.standard_normal(5000)
            a_coef = np.full(5000, a)
            assert np.array_equal(_recursion(a_coef, drive), recursion_loop(a_coef, drive))

    def test_drive_left_unchanged(self):
        drive = np.arange(1.0, 6.0)
        _recursion(np.full(5, 0.5), drive)
        assert np.array_equal(drive, np.arange(1.0, 6.0))

    def test_singular_system_raises(self):
        # Nothing pivots, so an infinite coefficient is caught by the track
        # it leaves (inf from m_2 on), and so is a track that overflows.
        for a_coef, drive in (([0.5, np.inf, 0.5], [1.0] * 3), ([0.9] * 4, [1e308] * 4)):
            with pytest.raises(ArithmeticError, match="not finite"):
                _recursion(np.array(a_coef), np.array(drive))

    def test_adaptive_runs_match_loop(self, problem_b, problem_f, problem_a, problem_fa):
        # Estimated runs on every supported set, the shortest frozen run
        # (T=16, tau=14, two steps) and a long horizon.
        for problem in (problem_b, problem_f, problem_a, problem_fa):
            x = simulate(REF, 2000, seed=88).x
            trace = adaptive_filter(x, problem)
            assert np.array_equal(trace.m_star, plugged_recursion(trace, x))
        x = simulate(REF, 16, seed=89).x
        trace = adaptive_filter(x, problem_b, delta=0.96, frozen_at=REF)
        assert len(trace.m_star) == 2
        assert np.array_equal(trace.m_star, plugged_recursion(trace, x))
        x = simulate(REF, 100_000, seed=90).x
        trace = adaptive_filter(x, problem_b)
        assert np.array_equal(trace.m_star, plugged_recursion(trace, x))


class TestAdaptiveRun:
    def test_track_reuse_and_plug_layout(self, problem_b):
        x = simulate(REF, 2000, seed=83).x
        trace = adaptive_filter(x, problem_b, truth=REF)
        track = trace.theta_track
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

    @pytest.mark.parametrize("unknown", [("b",), ("f", "a")])
    def test_causal_given_the_preliminary(self, monkeypatch, unknown):
        # Step t uses corrections from x up to x_{t-1} and then x_t, so with
        # the moment preliminary held at the unperturbed series' estimate,
        # m*_t for t <= s ignores x[s+1:]. The preliminary itself is fit on
        # the whole series: without the hold, m*_t changes before s too.
        problem = problem_for(REF, unknown)
        x = simulate(REF, 2000, seed=84).x
        s = 1200
        moved = x.copy()
        moved[s + 1 :] += np.random.default_rng(6).uniform(-3.0, 3.0, len(x) - s - 1)
        base = adaptive_filter(x, problem)
        upto = slice(0, s - base.tau)  # m_star[j] is m*_t at t = tau + 1 + j
        free = adaptive_filter(moved, problem)
        assert not np.array_equal(free.m_star[upto], base.m_star[upto])
        held_prelim = onestep_mod.mme(x, problem)
        monkeypatch.setattr(onestep_mod, "mme", lambda series, problem: held_prelim)
        held = adaptive_filter(moved, problem)
        assert np.array_equal(held.m_star[upto], base.m_star[upto])
        assert not np.array_equal(held.m_star, base.m_star)

    def test_fits_track_when_missing(self, problem_b):
        # Without a frozen point the run fits its own One-step track, the
        # same one one_step returns, and the truth changes no filter value.
        x = simulate(REF, 2000, seed=83).x
        auto = adaptive_filter(x, problem_b)
        assert np.array_equal(auto.theta_track.path, one_step(x, problem_b).path)
        scored = adaptive_filter(x, problem_b, truth=REF)
        assert np.array_equal(auto.m_star, scored.m_star)

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

    def test_m_star_at_whole_float(self, problem_b):
        x = simulate(REF, 2000, seed=86).x
        trace = adaptive_filter(x, problem_b)
        assert trace.m_star_at(1500.0) == trace.m_star_at(1500)
        with pytest.raises(ValueError, match="whole number"):
            trace.m_star_at(1500.5)

    def test_overflowing_information_raises_typed(self):
        # An admissible point whose P^2 overflows: the fit's information
        # raises FisherSingular, not a bare OverflowError.
        params = ModelParams(a=0.999, b=1.0, f=1.0, sigma2=1e155)
        problem = problem_for(params, ("b",))
        x = simulate(params, 2000, seed=84).x
        for run in (lambda: one_step(x, problem), lambda: adaptive_filter(x, problem, truth=params)):
            with pytest.raises(FisherSingular, match="overflows"):
                run()

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
        # The derivative track dm_t = A dm_{t-1} + (Adot + f*edot) m_{t-1}
        # + edot sqrt(P) z_t carries an m-driven term for f (-e) and a (1),
        # absent only for b; the limit covers it through D = E[dm dm^T].
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
            for unknown in (("f",), ("a",), ("f", "a")):
                got = s_star_limit(params, unknown)
                assert np.isfinite(got) and got > 0.0

    def test_reference_values_every_set(self):
        want = {
            ("f",): 0.0440,
            ("a",): 2.014,
            ("sigma2",): 0.2161,
            ("f", "a"): 3.092,
            ("a", "f", "sigma2"): 8.496,
            ("a", "b", "sigma2"): 4.266,
        }
        for unknown, value in want.items():
            assert s_star_limit(REF, unknown) == pytest.approx(value, abs=6e-4 * value)

    def test_matches_spectral_formula(self):
        # Independent oracle for D = E[dm dm^T]: m is x filtered by
        # H(w) = e / (1 - A e^{-iw}), so dm_i is x filtered by
        # H_i = d_i H = edot_i / (1 - A z) + e Adot_i z / (1 - A z)^2,
        # z = e^{-iw}, and D_ij = (1/2pi) int Re(H_i conj(H_j)) S dw with
        # S(w) = f^2 b^2 / |1 - a z|^2 + sigma2. The integrand is smooth and
        # 2pi-periodic, so the mean over equally spaced nodes converges
        # geometrically.
        w = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        z = np.exp(-1j * w)
        rng = np.random.default_rng(122)
        for params in [REF] + [random_params(rng) for _ in range(100)]:
            sq = stationary(params)
            spec = params.f**2 * params.b**2 / np.abs(1.0 - params.a * z) ** 2 + params.sigma2
            for unknown in ALL_SETS:
                try:
                    info = fisher_info(params, unknown)
                except FisherSingular:
                    with pytest.raises(FisherSingular):
                        s_star_limit(params, unknown)
                    continue
                pole = 1.0 - sq.a_coef * z
                grads = [stationary_gradient(params, coord) for coord in unknown]
                h = np.array([g.d_gain / pole + sq.gain * g.d_a_coef * z / pole**2 for g in grads])
                d = np.mean((h[:, None, :] * h[None, :, :].conj()).real * spec, axis=2)
                want = np.trace(np.linalg.solve(info, d))
                # The oracle's entries carry rounding of order 1e-15, which
                # I^{-1} may amplify by up to its condition number where a
                # triple's information is ill-conditioned (near a = 0).
                rel = max(1e-11, 1e-15 * np.linalg.cond(info))
                assert s_star_limit(params, unknown) == pytest.approx(want, rel=rel), (params, unknown)

    def test_unsupported(self):
        # An unknown set must be a supported set in canonical order.
        with pytest.raises(UnsupportedSet):
            s_star_limit(REF, ("a", "f"))
        with pytest.raises(UnsupportedSet):
            s_star_limit(REF, "b")  # a coordinate name is not an unknown set


class TestWindowEnds:
    def test_a_non_finite_window_is_solved_alone(self, problem_b):
        # The joined solve spreads a NaN from one window into all of them
        # (0 * inf): then each window is solved alone, so the others still
        # end as _plug_in ends them and the poisoned one ends non-finite.
        x = simulate(REF, 400, seed=92).x
        track = one_step(x, problem_b)
        truth = problem_b.values_of(REF)
        poisoned = x.copy()
        poisoned[380] = np.inf
        clean = [(track, 150, 200), (truth, 150, 200), (truth, 1, 300)]
        windows = [(track, 350, 400), *clean, (truth, 300, 390)]
        ends = _window_ends(poisoned, problem_b, windows)
        assert not np.isfinite(ends[0]) and not np.isfinite(ends[-1])
        assert ends[1:-1] == [float(_plug_in(x, problem_b, *window)[1][-1]) for window in clean]
        assert _window_ends(x, problem_b, clean) == ends[1:-1]


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

    def test_checkpoint_time_does_not_dip_below_its_decimal(self, problem_b):
        # 0.29 * 100 = 28.999... in floating point: the row is t = 29.
        x = simulate(REF, 100, seed=88).x
        trace = adaptive_filter(x, problem_b, truth=REF)
        assert [r["t"] for r in error_report(trace, [0.29, 0.28])] == [29.0, 28.0]

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
        for bad in (True, "1.0", None):
            with pytest.raises(ValueError, match="checkpoints must be a real number"):
                error_report(trace, [bad])
        for bad in (1.0, "1.0", [[1.0]]):
            with pytest.raises(ValueError, match="checkpoints must be a list of numbers"):
                error_report(trace, bad)

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

    @pytest.mark.parametrize("unknown", ["f", "sigma2"])
    def test_harness_ratio_near_one(self, unknown):
        # The harness's adaptive:m ratio t * E(m*_t - m_t)^2 / S*^2 at both
        # checkpoints. The band is about 3.5 standard errors at R=1000 and
        # excludes the b-only formula's value for f, ten times too small.
        problem = ParamProblem(unknown=(unknown,), bounds={unknown: (0.1, 5.0)})
        config = ExperimentConfig(
            params=REF, problem=problem, horizons=(10000,), replications=1000, seed=5, estimators=("adaptive",)
        )
        cells = [c for c in run_monte_carlo(config).cells if c["coord"] == "m"]
        assert len(cells) == 2
        for cell in cells:
            assert cell["failures"] == 0
            assert cell["target"] == s_star_limit(REF, (unknown,))
            assert 0.7 <= cell["ratio"] <= 1.3, cell


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
