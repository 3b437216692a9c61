"""Difference statistics, their limits, and the moment inversion."""

import math

import numpy as np
import pytest

from hidden_ar import COORDINATES, ParamProblem, SeriesTooShort, mme, phi, simulate
from hidden_ar.moments import MomentStats, _invert, s_statistics

from conftest import ALL_SETS, REF, REF_VALUES, problem_for, random_params


def exact_stats(params) -> MomentStats:
    """Population values of the S-statistics (their almost-sure limits)."""
    p1, p2, p3 = phi(params)
    return MomentStats(s1=p1, s2=p2, s3=p3, t_used=10**9)


class TestSStatistics:
    def test_direct_arithmetic(self):
        x = np.array([1.0, 3.0, 2.0, 6.0, 5.0])
        stats = s_statistics(x)
        d = np.array([2.0, -1.0, 4.0, -1.0])
        assert stats.t_used == 4
        assert stats.s1 == pytest.approx(float(d @ d) / 4.0, abs=1e-15)
        assert stats.s2 == pytest.approx(float(d[1:] @ d[:-1]) / 4.0, abs=1e-15)
        assert stats.s3 == pytest.approx(float(d[2:] @ d[:-2]) / 4.0, abs=1e-15)

    def test_short_series_rejected(self):
        with pytest.raises(SeriesTooShort):
            s_statistics(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(SeriesTooShort):
            s_statistics(np.zeros((5, 2)))

    def test_converges_to_phi(self):
        x = simulate(REF, 400000, seed=31).x
        stats = s_statistics(x)
        p1, p2, p3 = phi(REF)
        assert abs(stats.s1 - p1) < 0.02 * abs(p1)
        assert abs(stats.s2 - p2) < 0.02 * abs(p2)
        assert abs(stats.s3 - p3) < 0.06 * abs(p3)


class TestPhi:
    def test_reference_values(self):
        p = phi(REF)
        for got, want in zip(p, REF_VALUES["phi"]):
            assert got == pytest.approx(want, abs=1e-14)


class TestInversion:
    def test_round_trip_all_sets(self):
        rng = np.random.default_rng(301)
        for _ in range(100):
            for unknown in ALL_SETS:
                # Keep |a| away from the a*(a-1) pole of the triple
                # inversions; keep f positive so the sign is recoverable.
                params = random_params(rng, a_min=0.1)
                problem = problem_for(params, unknown)
                raw, degenerate = _invert(exact_stats(params), problem)
                assert degenerate == [], (unknown, degenerate)
                for name in unknown:
                    want = getattr(params, name)
                    assert abs(raw[name] - want) < 1e-10, (unknown, name)

    def test_negative_f_sign_from_bounds(self):
        rng = np.random.default_rng(302)
        base = random_params(rng, a_min=0.1)
        params = base.replace(f=-base.f)
        problem = problem_for(params, "f")
        assert problem.bounds["f"][1] < 0.0
        raw, degenerate = _invert(exact_stats(params), problem)
        assert degenerate == []
        assert abs(raw["f"] - params.f) < 1e-10


def unit_problem(unknown, c) -> ParamProblem:
    """REF's problem in the units where x is c*x, as (f, sigma2) -> (c*f, c^2*sigma2)."""
    params = REF.replace(f=c * REF.f, sigma2=c * c * REF.sigma2)
    box = {"a": (-0.9, 0.9), "b": (0.1, 4.0), "f": (0.1 * c, 4.0 * c), "sigma2": (0.1 * c * c, 4.0 * c * c)}
    return ParamProblem(
        unknown=unknown,
        bounds={name: box[name] for name in unknown},
        known={name: getattr(params, name) for name in COORDINATES if name not in unknown},
    )


def near_singular(unknown, gap, s2, s3, c) -> MomentStats:
    """Stats at REF's known values (x in units c) whose denominator of a is
    gap*S1: S1 - 2 sigma2 for a alone and (f, a), S1 + 2 S2 for the triples."""
    if "sigma2" in unknown:
        s1, s2 = 2.0, -1.0 + gap
    else:
        s1 = 2.0 + 2.0 * gap
    return MomentStats(s1=c * c * s1, s2=c * c * s2, s3=c * c * s3, t_used=1000)


# (unknown, S2, S3, the limit of a at gap > 0 and at gap < 0): +inf for a
# alone, since S1 - 2 sigma2 is positive under the model; the sign of
# S1 + 2 S2 for (f, a); the sign of S3 (S1 + 2 S2) for the triples.
LIMITS = [
    (("a",), 0.1, 0.1, (math.inf, math.inf)),
    (("f", "a"), 0.5, 0.1, (math.inf, math.inf)),
    (("f", "a"), -1.5, 0.1, (-math.inf, -math.inf)),
    *[(unknown, None, s3, (math.copysign(math.inf, s3), -math.copysign(math.inf, s3)))
      for unknown in (("a", "f", "sigma2"), ("a", "b", "sigma2")) for s3 in (0.2, -0.2)],
]


@pytest.mark.parametrize("c", (1.0, 1e-7))
@pytest.mark.parametrize("unknown, s2, s3, limits", LIMITS)
class TestDegenerateLimits:
    """The band |den| <= 1e-12 S1 moves with the units of x: the same stats
    in units 1e-7 (S scaled by 1e-14) fall inside or outside it alike."""

    def test_limit_inside_the_band(self, unknown, s2, s3, limits, c):
        for gap, limit in zip((1e-13, -1e-13), limits):
            raw, degenerate = _invert(near_singular(unknown, gap, s2, s3, c), unit_problem(unknown, c))
            assert raw["a"] == limit, gap
            assert "a:denominator_near_zero" in degenerate

    def test_finite_outside_the_band(self, unknown, s2, s3, limits, c):
        for gap in (1e-9, -1e-9):
            raw, degenerate = _invert(near_singular(unknown, gap, s2, s3, c), unit_problem(unknown, c))
            assert math.isfinite(raw["a"]), gap
            assert "a:denominator_near_zero" not in degenerate


class TestMme:
    def test_consistency_on_long_series(self, problem_b):
        x = simulate(REF, 200000, seed=32).x
        est = mme(x, problem_b)
        assert est.clip_flags == {}
        assert est.degenerate == ()
        assert abs(est.values[0] - REF.b) < 0.05

    def test_pair_consistency(self, problem_fa):
        x = simulate(REF, 200000, seed=33).x
        est = mme(x, problem_fa)
        assert abs(est.values[0] - REF.f) < 0.08
        assert abs(est.values[1] - REF.a) < 0.08

    def test_clipping_to_bounds(self):
        # A white-noise series has S1 - 2*sigma2 near zero, so the implied
        # b^2 is tiny (possibly negative); with a generous lower bound the
        # estimate clips low.
        rng = np.random.default_rng(303)
        x = 0.01 * rng.standard_normal(2000)
        problem = problem_for(REF, "b")
        problem = type(problem)(
            unknown=("b",), bounds={"b": (0.5, 5.0)}, known=problem.known
        )
        est = mme(x, problem)
        assert est.values[0] == 0.5
        assert est.clip_flags.get("b") == "low"

    def test_degenerate_radicand_flagged(self):
        # Constant series: every difference statistic is exactly zero, the
        # radicand for b is zero through (S1 - 2*sigma2) < 0 once sigma2 > 0.
        x = np.ones(100)
        problem = problem_for(REF, "b")
        est = mme(x, problem)
        assert "b:radicand_nonpositive" in est.degenerate
        assert est.values[0] == problem.bounds["b"][0]

    @pytest.mark.parametrize("unknown", ALL_SETS)
    def test_constant_series(self, unknown):
        # S1 = S2 = S3 = 0: the band |den| <= 1e-12 S1 must still catch
        # den = 0 for the triples.
        problem = problem_for(REF, unknown)
        est = mme(np.full(100, 3.0), problem)
        clipped, _ = problem.clip(est.values)
        np.testing.assert_array_equal(est.values, clipped)
        assert ("a:denominator_near_zero" in est.degenerate) == ("sigma2" in unknown and "a" in unknown)

    def test_stats_carried(self, problem_b):
        x = simulate(REF, 5000, seed=34).x
        est = mme(x, problem_b)
        assert est.stats == s_statistics(x)

    def test_prefix_estimation(self, problem_b):
        # mme on a prefix must equal mme on the sliced series.
        x = simulate(REF, 5000, seed=35).x
        est_full_prefix = mme(x[:1001], problem_b)
        assert est_full_prefix.stats.t_used == 1000


class TestRate:
    def test_sqrt_t_rate(self, problem_b):
        # T * E|b* - b|^2 stays bounded across a 4x scale step.
        risks = {}
        for t_idx, horizon in enumerate((1000, 4000)):
            errs = []
            for rep in range(150):
                x = simulate(REF, horizon, seed=36, stream=t_idx * 150 + rep).x
                est = mme(x, problem_b)
                errs.append((est.values[0] - REF.b) ** 2)
            risks[horizon] = horizon * float(np.mean(errs))
        ratio = risks[4000] / risks[1000]
        assert 0.3 < ratio < 3.0, risks
