"""Acceptance gate: eleven numbered criteria, one verdict line each.

Every test prints (and registers for the terminal summary) a line

    CRITERION nn PASS/FAIL - detail

so the full gate can be audited from a single pytest run. Monte Carlo
criteria use pinned seeds; the runtime budget, where one applies, is
asserted from wall-clock measurements that include any shared fixture
work the criterion depends on.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hidden_ar.adaptive import adaptive_filter, s_star_limit
from hidden_ar.harness import ExperimentConfig, run_monte_carlo, run_replication
from hidden_ar.kalman import filter_derivative, filter_stationary
from hidden_ar.model_core import (
    ModelParams,
    ParamProblem,
    fisher_info,
    stationary,
    stationary_gradient,
)
from hidden_ar.moments import MomentStats, _invert, phi
from hidden_ar.onestep import _score_increments, one_step
from hidden_ar.simulator import simulate

import conftest
from conftest import REF, problem_for, random_params, running_update

ALL_SETS = (
    ("f",),
    ("b",),
    ("a",),
    ("sigma2",),
    ("f", "a"),
    ("a", "f", "sigma2"),
    ("a", "b", "sigma2"),
)

PROB_B = ParamProblem(
    unknown=("b",),
    bounds={"b": (0.1, 5.0)},
    known={"a": 0.5, "f": 1.0, "sigma2": 1.0},
)
PROB_FA = ParamProblem(
    unknown=("f", "a"),
    bounds={"f": (0.1, 5.0), "a": (-0.9, 0.9)},
    known={"b": 1.0, "sigma2": 1.0},
)


def _record(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


@contextmanager
def criterion(num: int, budget: float | None = None, shared: float = 0.0):
    """Record one verdict line; fail the test on any error or budget miss.

    shared: wall time already spent in a fixture this criterion depends on,
    counted toward its budget.
    """
    box = {"detail": ""}
    start = time.perf_counter()
    try:
        yield box
    except BaseException as exc:
        _record(num, False, f"{box['detail']} {type(exc).__name__}: {exc}".strip())
        raise
    elapsed = time.perf_counter() - start + shared
    detail = box["detail"]
    if budget is not None:
        detail += f" [{elapsed:.1f}s of {budget:.0f}s budget]"
        if elapsed > budget:
            _record(num, False, detail)
            pytest.fail(f"criterion {num} exceeded runtime budget: {elapsed:.1f}s")
    _record(num, True, detail)


def _bump(params: ModelParams, wrt: str, h: float) -> ModelParams:
    return dataclasses.replace(params, **{wrt: getattr(params, wrt) + h})


def _fd(fun, params: ModelParams, wrt: str):
    h = 1e-5 * max(1.0, abs(getattr(params, wrt)))
    return (fun(_bump(params, wrt, h)) - fun(_bump(params, wrt, -h))) / (2.0 * h)


@pytest.fixture(scope="module")
def reference_run():
    """The reference experiment shared by criteria 7, 9, and 11."""
    config = ExperimentConfig(
        params=REF,
        problem=PROB_B,
        horizons=(10000,),
        replications=2000,
        delta=0.6,
        checkpoints=(0.5, 1.0),
        seed=0,
        estimators=("onestep", "adaptive"),
    )
    start = time.perf_counter()
    report = run_monte_carlo(config)
    return config, report, time.perf_counter() - start


def test_criterion_01_stationary_gain():
    rng = np.random.default_rng(3)
    with criterion(1, budget=1.0) as box:
        worst_resid = 0.0
        worst_a = 0.0
        for _ in range(1000):
            params = random_params(rng)
            sq = stationary(params)
            # One application of the variance recursion to the closed form.
            mapped = params.b**2 + (
                params.a**2 * params.sigma2 * sq.gamma_star
            ) / (params.sigma2 + params.f**2 * sq.gamma_star)
            worst_resid = max(worst_resid, abs(mapped - sq.gamma_star))
            worst_a = max(worst_a, abs(sq.a_coef))
            assert abs(sq.a_coef) < 1.0
        assert worst_resid < 1e-10
        box["detail"] = (
            f"1000 points: max riccati residual {worst_resid:.2e}, "
            f"max |A| {worst_a:.6f}"
        )


def test_criterion_02_derivative_suite():
    rng = np.random.default_rng(11)
    with criterion(2, budget=10.0) as box:
        worst_scalar = 0.0
        worst_track = 0.0
        for i in range(100):
            params = random_params(rng)
            for wrt in ("f", "b", "a", "sigma2"):
                grad = stationary_gradient(params, wrt)
                checks = [
                    (grad.d_gamma_star, _fd(lambda q: stationary(q).gamma_star, params, wrt)),
                    (grad.d_p, _fd(lambda q: stationary(q).p, params, wrt)),
                    (
                        grad.d_b_coef,
                        math.sqrt(stationary(params).p)
                        * _fd(
                            lambda q: q.a * q.f * stationary(q).gamma_star / stationary(q).p,
                            params,
                            wrt,
                        ),
                    ),
                ]
                for got, want in checks:
                    err = abs(got - want) / max(1.0, abs(want))
                    worst_scalar = max(worst_scalar, err)
                    assert err < 1e-5
            x = simulate(params, 300, 2, stream=i).x
            for wrt in ("f", "b", "a"):
                dm = filter_derivative(params, x, wrt).dm[wrt]
                h = 1e-5 * max(1.0, abs(getattr(params, wrt)))
                fd = (
                    filter_stationary(_bump(params, wrt, h), x).m
                    - filter_stationary(_bump(params, wrt, -h), x).m
                ) / (2.0 * h)
                err = float(np.max(np.abs(dm - fd))) / max(1.0, float(np.max(np.abs(dm))))
                worst_track = max(worst_track, err)
                assert err < 1e-4
        box["detail"] = (
            f"100 configs: scalar rel err {worst_scalar:.2e} (tol 1e-5), "
            f"m-track rel err {worst_track:.2e} (tol 1e-4)"
        )


def test_criterion_03_mme_round_trip():
    rng = np.random.default_rng(7)
    with criterion(3, budget=1.0) as box:
        worst = 0.0
        for _ in range(1000):
            params = random_params(rng, a_min=0.1)
            stats = MomentStats(*phi(params), t_used=10**9)
            for unknown in ALL_SETS:
                problem = problem_for(params, unknown)
                values, degenerate = _invert(stats, problem)
                assert degenerate == []
                for name in unknown:
                    err = abs(values[name] - getattr(params, name))
                    worst = max(worst, err)
                    assert err < 1e-10
        box["detail"] = f"1000 points x 7 unknown sets: max |invert(phi)-theta| {worst:.2e}"


def test_criterion_04_preliminary_rate():
    with criterion(4, budget=30.0) as box:
        from hidden_ar.moments import mme

        risks = []
        for horizon in (1000, 4000, 16000):
            devs = np.array(
                [
                    mme(simulate(REF, horizon, 101, stream=r).x, PROB_B).values[0] - 1.0
                    for r in range(200)
                ]
            )
            risks.append(horizon * float(np.mean(devs * devs)))
        r21 = risks[1] / risks[0]
        r32 = risks[2] / risks[1]
        assert all(np.isfinite(risks))
        assert 0.4 <= r21 <= 2.5
        assert 0.4 <= r32 <= 2.5
        box["detail"] = (
            f"T*risk = {risks[0]:.3f}/{risks[1]:.3f}/{risks[2]:.3f} at T=1e3/4e3/1.6e4, "
            f"adjacent ratios {r21:.3f}, {r32:.3f}"
        )


def test_criterion_05_innovation_whiteness():
    with criterion(5, budget=5.0) as box:
        x = simulate(REF, 200000, 0).x
        z = filter_stationary(REF, x).innovations
        mean = float(z.mean())
        var = float(z.var())
        centered = z - mean
        denom = float(centered @ centered)
        acs = [float(centered[:-k] @ centered[k:]) / denom for k in range(1, 6)]
        worst_ac = max(abs(a) for a in acs)
        assert abs(mean) < 0.01
        assert abs(var - 1.0) < 0.01
        assert worst_ac < 0.01
        box["detail"] = (
            f"T=2e5: |mean| {abs(mean):.5f}, var {var:.5f}, max |lag1..5 ac| {worst_ac:.5f}"
        )


def test_criterion_06_fisher_identity():
    with criterion(6, budget=60.0) as box:
        reps, horizon = 500, 10000
        scores = np.empty((reps, 3))
        for r in range(reps):
            x = simulate(REF, horizon, 4, stream=r).x
            scores[r] = _score_increments(REF, x, 0, ("b", "f", "a")).sum(axis=0)
        targets = np.array([fisher_info(REF, (c,))[0, 0] for c in ("b", "f", "a")])
        scalar_rel = np.abs(scores.var(axis=0, ddof=1) / horizon / targets - 1.0)
        pair_cov = np.cov(scores[:, 1:].T) / horizon
        pair_info = fisher_info(REF, PROB_FA.unknown)
        pair_rel = float(np.abs(pair_cov / pair_info - 1.0).max())
        assert float(scalar_rel.max()) < 0.05
        assert pair_rel < 0.10
        box["detail"] = (
            f"R=500, T=1e4: scalar rel dev (b,f,a) = "
            f"{scalar_rel[0]:.4f}/{scalar_rel[1]:.4f}/{scalar_rel[2]:.4f} (tol 0.05), "
            f"pair entrywise {pair_rel:.4f} (tol 0.10)"
        )


def test_criterion_07_onestep_efficiency(reference_run):
    _, report, run_time = reference_run
    with criterion(7, budget=90.0, shared=run_time) as box:
        cells = {
            c["v"]: c
            for c in report.cells
            if c["estimator"] == "onestep" and c["coord"] == "b"
        }
        for v in (0.5, 1.0):
            assert cells[v]["failures"] == 0
            assert 0.90 <= cells[v]["ratio"] <= 1.10
            assert cells[v]["ks_pvalue"] > 0.01
        box["detail"] = (
            f"R=2000, T=1e4: t*Var/I^-1 = {cells[0.5]['ratio']:.4f} (v=0.5), "
            f"{cells[1.0]['ratio']:.4f} (v=1.0); KS p = "
            f"{cells[0.5]['ks_pvalue']:.3f}, {cells[1.0]['ks_pvalue']:.3f}"
        )


def test_criterion_08_mle_bayes_efficiency():
    with criterion(8, budget=300.0) as box:
        config = ExperimentConfig(
            params=REF,
            problem=PROB_B,
            horizons=(10000,),
            replications=500,
            delta=0.6,
            checkpoints=(1.0,),
            seed=7,
            estimators=("onestep", "mle", "bayes"),
        )
        report = run_monte_carlo(config)
        ratios = {
            c["estimator"]: c["ratio"]
            for c in report.cells
            if c["estimator"] in ("mle", "bayes")
        }
        assert set(ratios) == {"mle", "bayes"}
        for name, ratio in ratios.items():
            assert 0.90 <= ratio <= 1.10, name
        by_rep: dict[int, dict[str, float]] = {}
        for row in report.replications:
            by_rep.setdefault(row["rep"], {})[row["estimator"]] = row["value"]
        gaps = np.array([abs(d["mle"] - d["onestep"]) for d in by_rep.values()])
        join = float(math.sqrt(10000.0) * gaps.mean())
        assert len(gaps) == 500
        assert join < 0.2
        box["detail"] = (
            f"R=500, T=1e4: T*Var/I^-1 = {ratios['mle']:.4f} (mle), "
            f"{ratios['bayes']:.4f} (bayes); mean sqrt(T)|mle-onestep| = {join:.4f}"
        )


def test_criterion_09_adaptive_risk(reference_run):
    _, report, run_time = reference_run
    with criterion(9, budget=120.0, shared=run_time) as box:
        m_cell = next(
            c
            for c in report.cells
            if c["estimator"] == "adaptive" and c["coord"] == "m" and c["v"] == 1.0
        )
        target = s_star_limit(REF, ("b",))
        assert m_cell["failures"] == 0
        assert abs(m_cell["norm_risk"] / target - 1.0) <= 0.15
        y_sq = np.array(
            [
                row["value"] ** 2
                for row in report.replications
                if row["estimator"] == "adaptive"
                and row["coord"] == "y"
                and row["v"] == 1.0
            ]
        )
        t = 10000
        y_target = stationary(REF).gamma_star + target / t
        se = float(y_sq.std(ddof=1)) / math.sqrt(len(y_sq))
        y_dev = abs(float(y_sq.mean()) - y_target)
        assert len(y_sq) == 2000
        assert y_dev <= 3.0 * se
        box["detail"] = (
            f"R=2000, v=1: t*MSE(m*-m)/S*2 = {m_cell['norm_risk'] / target:.4f} "
            f"(tol 0.15); mean(m*-Y)^2 dev {y_dev:.4f} vs 3SE {3 * se:.4f}"
        )


def test_criterion_10_batch_recurrent_and_reduction():
    rng = np.random.default_rng(13)
    with criterion(10) as box:
        sets = (("b",), ("f",), ("a",), ("f", "a"))
        worst = 0.0
        paths = 0
        cases = [(random_params(rng, a_min=0.1), sets[i % 4], 600) for i in range(30)]
        cases += [(REF, ("b",), 10000) for _ in range(5)]
        for i, (params, unknown, horizon) in enumerate(cases):
            problem = problem_for(params, unknown)
            x = simulate(params, horizon, 23, stream=i).x
            trace = one_step(x, problem)
            running, _ = running_update(trace, x, problem)
            diff = float(np.max(np.abs(trace.path - running)))
            worst = max(worst, diff)
            assert diff < 1e-10
            frozen = adaptive_filter(x, problem, frozen_at=params)
            oracle = filter_stationary(params, x[frozen.tau :], m0=0.0).m[1:]
            assert np.array_equal(frozen.m_star, oracle)
            paths += 1
        box["detail"] = (
            f"{paths} paths (scalar+pair, T up to 1e4): max gap to the running update "
            f"{worst:.2e}; frozen-filter reduction bit-exact on all"
        )


def test_criterion_11_determinism(reference_run):
    config, report, _ = reference_run
    with criterion(11) as box:
        baseline = report.to_json()
        repeat = run_monte_carlo(config).to_json()
        assert repeat == baseline
        # Any replication reproduces in isolation from its stream id.
        reps = (0, 1, 999, 1999)
        for rep in reps:
            alone = run_replication(config, 0, rep)
            in_report = [row for row in report.replications if row["stream"] == rep]
            assert alone and alone == in_report
        box["detail"] = (
            f"reference config rerun byte-identical ({len(baseline)} bytes of JSON); "
            f"replications {reps} alone equal their report rows"
        )
