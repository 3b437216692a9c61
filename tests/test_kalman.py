"""Filter recursions against hand-rolled oracles and finite differences."""

import csv
import math

import numpy as np
import pytest

from hidden_ar import (
    COORDINATES,
    NonFiniteObservations,
    SeriesTooShort,
    UnsupportedCoordinate,
    adaptive_filter,
    bayes,
    filter_derivative,
    filter_stationary,
    filter_transient,
    log_likelihood,
    mle,
    mme,
    one_step,
    simulate,
    stationary,
    stationary_gradient,
)
from hidden_ar.cli import main
from hidden_ar.kalman import _score_increments

from conftest import ALL_SETS, REF, problem_for, random_params

PROBLEM_B = problem_for(REF, ("b",))
PROBLEM_FA = problem_for(REF, ("f", "a"))

# Every entry point that takes an observation series.
SERIES_ENTRY_POINTS = {
    "filter_transient": lambda x: filter_transient(REF, x),
    "filter_stationary": lambda x: filter_stationary(REF, x),
    "filter_derivative": lambda x: filter_derivative(REF, x, "b"),
    "mme": lambda x: mme(x, PROBLEM_B),
    "one_step b": lambda x: one_step(x, PROBLEM_B),
    "one_step f,a": lambda x: one_step(x, PROBLEM_FA),
    "adaptive_filter": lambda x: adaptive_filter(x, PROBLEM_B),
    "log_likelihood": lambda x: log_likelihood(x, REF),
    "mle": lambda x: mle(x, PROBLEM_B),
    "bayes": lambda x: bayes(x, PROBLEM_B),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(SERIES_ENTRY_POINTS))
def test_non_finite_observations_rejected(entry, bad):
    x = simulate(REF, 400, seed=209).x.copy()
    SERIES_ENTRY_POINTS[entry](x)
    x[200] = bad
    with pytest.raises(NonFiniteObservations, match=r"x\[200\]"):
        SERIES_ENTRY_POINTS[entry](x)


# Every entry point with a scalar starting value, fed a non-finite one.
NON_FINITE_STARTS = {
    "filter_stationary m0=nan": lambda x: filter_stationary(REF, x, m0=np.nan),
    "filter_transient m0=inf": lambda x: filter_transient(REF, x, m0=np.inf),
    "filter_transient gamma0=nan": lambda x: filter_transient(REF, x, gamma0=np.nan),
    "filter_derivative m0=nan": lambda x: filter_derivative(REF, x, "b", m0=np.nan),
    "filter_derivative dm0=inf": lambda x: filter_derivative(REF, x, "b", dm0=np.inf),
    "one_step b prelim=nan": lambda x: one_step(x, PROBLEM_B, prelim=[np.nan]),
    "one_step f,a prelim=(1, -inf)": lambda x: one_step(x, PROBLEM_FA, prelim=[1.0, -np.inf]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_STARTS))
def test_non_finite_start_rejected(case):
    x = simulate(REF, 400, seed=210).x
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_STARTS[case](x)


# Every entry point with a scalar real argument, fed a string or a boolean,
# which would otherwise run as a number or fail with a bare TypeError.
NON_REAL_STARTS = {
    "filter_stationary m0=True": lambda x: filter_stationary(REF, x, m0=True),
    "filter_transient m0='0'": lambda x: filter_transient(REF, x, m0="0"),
    "filter_transient gamma0=False": lambda x: filter_transient(REF, x, gamma0=False),
    "filter_derivative m0='0.5'": lambda x: filter_derivative(REF, x, "b", m0="0.5"),
    "filter_derivative dm0=True": lambda x: filter_derivative(REF, x, "b", dm0=True),
    "one_step delta='0.6'": lambda x: one_step(x, PROBLEM_B, "0.6"),
    "adaptive_filter delta='0.6'": lambda x: adaptive_filter(x, PROBLEM_B, "0.6"),
    "adaptive_filter frozen delta=True": lambda x: adaptive_filter(x, PROBLEM_B, True, frozen_at=REF),
}


@pytest.mark.parametrize("case", sorted(NON_REAL_STARTS))
def test_non_real_start_rejected(case):
    x = simulate(REF, 400, seed=210).x
    with pytest.raises(ValueError, match="must be a real number"):
        NON_REAL_STARTS[case](x)


def reference_transient(params, x, m0=0.0, gamma0=0.0):
    """Direct port of the textbook recursion, written independently of the
    library loop (explicit prediction variance each step)."""
    a, f, s2 = params.a, params.f, params.sigma2
    b2 = params.b * params.b
    m = [m0]
    gamma = [gamma0]
    zeta = []
    for t in range(1, len(x)):
        g_prev = gamma[-1]
        p = s2 + f * f * g_prev
        zeta.append((x[t] - f * m[-1]) / math.sqrt(p))
        m.append(a * (s2 * m[-1] + f * g_prev * x[t]) / p)
        gamma.append(a * a * s2 * g_prev / p + b2)
    return np.array(m), np.array(gamma), np.array(zeta)


def reference_stationary(params, x, m0=0.0):
    sq = stationary(params)
    e = params.a * params.f * sq.gamma_star / sq.p
    m = [m0]
    for t in range(1, len(x)):
        m.append(sq.a_coef * m[-1] + e * x[t])
    return np.array(m)


class TestTransient:
    def test_against_reference(self):
        rng = np.random.default_rng(201)
        for _ in range(20):
            params = random_params(rng)
            x = simulate(params, 300, seed=int(rng.integers(1 << 30))).x
            trace = filter_transient(params, x, m0=0.3, gamma0=2.0)
            m, gamma, zeta = reference_transient(params, x, m0=0.3, gamma0=2.0)
            np.testing.assert_allclose(trace.m, m, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(trace.gamma, gamma, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(trace.innovations, zeta, rtol=1e-12, atol=1e-12)

    def test_gamma_converges_to_stationary(self):
        x = simulate(REF, 500, seed=4).x
        trace = filter_transient(REF, x)
        assert abs(trace.gamma[-1] - stationary(REF).gamma_star) < 1e-10

    def test_rejects_negative_gamma0(self):
        x = simulate(REF, 10, seed=4).x
        with pytest.raises(ValueError):
            filter_transient(REF, x, gamma0=-0.5)

    def test_rejects_short_series(self):
        with pytest.raises(SeriesTooShort):
            filter_transient(REF, np.array([1.0]))
        with pytest.raises(SeriesTooShort):
            filter_stationary(REF, np.zeros((3, 2)))


class TestStationaryFilter:
    def test_against_reference(self):
        rng = np.random.default_rng(202)
        for _ in range(20):
            params = random_params(rng)
            x = simulate(params, 300, seed=int(rng.integers(1 << 30))).x
            trace = filter_stationary(params, x, m0=0.1)
            m = reference_stationary(params, x, m0=0.1)
            np.testing.assert_allclose(trace.m, m, rtol=1e-12, atol=1e-12)
            sq = stationary(params)
            zeta = (x[1:] - params.f * m[:-1]) / math.sqrt(sq.p)
            np.testing.assert_allclose(trace.innovations, zeta, rtol=1e-12, atol=1e-12)
            assert trace.gamma == sq.gamma_star

    def test_innovations_white_at_truth(self):
        trace = filter_stationary(REF, simulate(REF, 100000, seed=21).x)
        z = trace.innovations
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02
        for lag in range(1, 6):
            ac = float(np.mean(z[lag:] * z[:-lag]))
            assert abs(ac) < 0.02, (lag, ac)

    def test_transient_merges_into_stationary(self):
        # From gamma0 = gamma_star the transient filter is the stationary one.
        x = simulate(REF, 200, seed=22).x
        g = stationary(REF).gamma_star
        trans = filter_transient(REF, x, gamma0=g)
        stat = filter_stationary(REF, x)
        np.testing.assert_allclose(trans.m, stat.m, rtol=1e-10, atol=1e-12)


class TestDerivativeFilter:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(203)
        for _ in range(15):
            params = random_params(rng)
            x = simulate(params, 400, seed=int(rng.integers(1 << 30))).x
            for wrt in COORDINATES:
                trace = filter_derivative(params, x, wrt)
                v = getattr(params, wrt)
                h = 1e-5 * max(1.0, abs(v))
                up = filter_stationary(params.replace(**{wrt: v + h}), x).m
                dn = filter_stationary(params.replace(**{wrt: v - h}), x).m
                fd = (up - dn) / (2.0 * h)
                dm = trace.dm[wrt]
                scale = max(1.0, float(np.abs(dm).max()))
                assert float(np.abs(dm - fd).max()) <= 1e-4 * scale

    def test_m_track_is_stationary_track(self):
        x = simulate(REF, 100, seed=23).x
        der = filter_derivative(REF, x, "b")
        stat = filter_stationary(REF, x)
        np.testing.assert_array_equal(der.m, stat.m)
        np.testing.assert_array_equal(der.innovations, stat.innovations)

    def test_unknown_coordinate_rejected(self):
        x = simulate(REF, 50, seed=24).x
        for wrt in ("zz", "Sigma2", ""):
            with pytest.raises(UnsupportedCoordinate):
                filter_derivative(REF, x, wrt)


class TestScoreIncrements:
    def test_columns_are_the_score_of_filter_derivative(self):
        # Each column is g_s = r_s Mdot_{s-1} / P + (r_s^2 - P) Pdot / (2 P^2)
        # on filter_derivative's tracks over x[tau:], bit for bit.
        rng = np.random.default_rng(211)
        for unknown in ALL_SETS:
            params = random_params(rng)
            x = simulate(params, 300, seed=int(rng.integers(1 << 30))).x
            tau = 40
            got = _score_increments(params, x, tau, unknown)
            p = stationary(params).p
            for j, coord in enumerate(unknown):
                trace = filter_derivative(params, x[tau:], coord)
                m_prev = trace.m[:-1]
                resid = x[tau + 1 :] - params.f * m_prev
                mdot = params.f * trace.dm[coord][:-1]
                if coord == "f":
                    mdot = mdot + m_prev
                d_p = stationary_gradient(params, coord).d_p
                want = resid * mdot / p + (resid * resid - p) * (d_p / (2.0 * p * p))
                np.testing.assert_array_equal(got[:, j], want, err_msg=f"{unknown} {coord}")


class TestFilterCsv:
    def test_roundtrip(self, tmp_path):
        x = simulate(REF, 30, seed=25).x
        trace = filter_derivative(REF, x, "b")
        argv = ["filter", "--T", "30", "--seed", "25", "--wrt", "b", "--out", str(tmp_path)]
        assert main(argv) == 0
        path = tmp_path / "filter.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 31
        got_m = np.array([float(r["m"]) for r in rows])
        np.testing.assert_allclose(got_m, trace.m, rtol=0, atol=1e-12)
        got_dm = np.array([float(r["dm_b"]) for r in rows])
        np.testing.assert_allclose(got_dm, trace.dm["b"], rtol=0, atol=1e-12)
