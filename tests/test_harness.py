"""Monte Carlo harness: determinism, aggregation, failure capture, export."""

import csv
import dataclasses
import json
import math
import os
import pathlib
import types
import weakref

import numpy as np
import pytest
from scipy import stats

from hidden_ar import (
    EstimatorTrace,
    ExperimentConfig,
    HorizonTooShort,
    ModelParams,
    ObservationsOverflow,
    ParamProblem,
    UnsupportedSet,
    adaptive_filter,
    bayes,
    export,
    filter_stationary,
    fisher_info,
    learning_interval,
    mle,
    one_step,
    run_monte_carlo,
    run_replication,
    s_star_limit,
    simulate,
    stationary,
)
import hidden_ar.harness as harness_mod
import hidden_ar.likelihood as likelihood_mod
import hidden_ar.model_core as model_core_mod
from hidden_ar.adaptive import _checkpoint_means, _plug_in
from hidden_ar.harness import _checkpoint_times, _ks_pvalues, _ks_statistic, _targets, write_columns
from hidden_ar.model_core import _largest_a, _memory

from conftest import ALL_SETS, REF, problem_for


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        params=REF,
        problem=ParamProblem(unknown=("b",), bounds={"b": (0.1, 5.0)}),
        horizons=(400,),
        replications=8,
        delta=0.6,
        checkpoints=(0.5, 1.0),
        seed=17,
        estimators=("onestep", "adaptive"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


_B = ParamProblem(unknown=("b",), bounds={"b": (0.1, 5.0)})
# A narrower a box keeps the lag count, and so the 512^2 grid, cheap.
_FA = ParamProblem(unknown=("f", "a"), bounds={"f": (0.1, 5.0), "a": (-0.6, 0.6)})


class TestConfig:
    def test_roundtrip(self):
        config = small_config()
        clone = ExperimentConfig.from_dict(config.to_dict())
        assert clone.to_dict() == config.to_dict()
        assert clone.params == config.params
        assert clone.problem.unknown == config.problem.unknown
        assert clone.problem.is_complete()

    def test_delta_checked_for_every_estimator(self):
        # delta is range-checked even when no estimator uses it, so an
        # mme-only config cannot write a report that from_dict rejects.
        for delta in (float("nan"), 5.0, 0.5, 1.0, 0.3):
            with pytest.raises(ValueError, match="delta"):
                small_config(horizons=(10,), estimators=("mme",), delta=delta)
        config = small_config(
            horizons=(10,), checkpoints=(1.0,), estimators=("mme",), replications=2, delta=0.7
        )
        document = json.loads(run_monte_carlo(config).to_json())["config"]
        assert ExperimentConfig.from_dict(document).to_dict() == config.to_dict()

    def test_from_dict_checks_fields(self):
        doc = small_config().to_dict()
        for key, value in (
            ("replications", 2.5),
            ("horizons", [400.7]),
            ("seed", True),
            ("horizons", 300),
            ("problem", ["b"]),
            ("params", {"a": 0.5}),
            ("estimators", "mme"),
            # Numbers must be real numbers, not strings or booleans.
            ("delta", "0.6"),
            ("delta", True),
            ("checkpoints", ["1.0"]),
            ("checkpoints", [True]),
        ):
            with pytest.raises(ValueError, match=key):
                ExperimentConfig.from_dict(dict(doc, **{key: value}))
        for bounds in (["0.1", 5], [True, 5]):
            with pytest.raises(ValueError, match="bounds of b must be a real number"):
                ExperimentConfig.from_dict(dict(doc, problem={"unknown": ["b"], "bounds": {"b": bounds}}))
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict(dict(doc, replicas=3))
        for key in ("params", "problem", "horizons", "replications"):
            partial = {k: v for k, v in doc.items() if k != key}
            with pytest.raises(ValueError, match=f"missing config fields \\['{key}'\\]"):
                ExperimentConfig.from_dict(partial)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(horizons=())
        with pytest.raises(ValueError):
            small_config(horizons=(0,))
        with pytest.raises(ValueError):
            small_config(replications=0)
        with pytest.raises(ValueError):
            small_config(checkpoints=(1.5,))
        with pytest.raises(ValueError):
            small_config(checkpoints=())
        with pytest.raises(ValueError):
            small_config(estimators=("glm",))
        # Horizon below the learning-interval minimum, delta out of range.
        with pytest.raises(HorizonTooShort):
            small_config(horizons=(10,))
        with pytest.raises(ValueError):
            small_config(delta=0.3)
        # At T=1000, tau=63: t=10 precedes it for both estimators.
        with pytest.raises(ValueError):
            small_config(horizons=(1000,), checkpoints=(0.01, 1.0))
        with pytest.raises(ValueError):
            small_config(horizons=(1000,), checkpoints=(0.01, 1.0), estimators=("onestep",))
        # t = tau is enough for onestep; adaptive needs t >= tau + 1.
        small_config(horizons=(1000,), checkpoints=(0.063, 1.0), estimators=("onestep",))
        with pytest.raises(ValueError):
            small_config(horizons=(1000,), checkpoints=(0.063, 1.0))
        small_config(horizons=(1000,), checkpoints=(0.064, 1.0))
        # Estimators without a learning interval keep short horizons.
        small_config(horizons=(10,), estimators=("mme",))
        # mme needs t >= 3, mle and bayes need t >= 1.
        with pytest.raises(ValueError):
            small_config(horizons=(1000,), checkpoints=(0.002, 1.0), estimators=("mme",))
        small_config(horizons=(1000,), checkpoints=(0.003, 1.0), estimators=("mme",))
        for name in ("mle", "bayes"):
            with pytest.raises(ValueError):
                small_config(horizons=(10,), checkpoints=(0.05, 1.0), estimators=(name,))
            small_config(horizons=(10,), checkpoints=(0.1, 1.0), estimators=(name,))
        # mme, onestep and adaptive take all seven unknown sets; the
        # likelihood grid of mle and bayes takes at most two unknowns.
        bounds = {"a": (-0.9, 0.9), "b": (0.1, 5.0), "f": (0.1, 5.0), "sigma2": (0.1, 5.0)}
        for unknown in (
            ("f",), ("b",), ("a",), ("sigma2",), ("f", "a"), ("a", "f", "sigma2"), ("a", "b", "sigma2")
        ):
            problem = ParamProblem(unknown=unknown, bounds={k: bounds[k] for k in unknown})
            small_config(problem=problem, estimators=("mme", "onestep", "adaptive"))
            for name in ("mle", "bayes"):
                if len(unknown) <= 2:
                    small_config(problem=problem, estimators=(name,))
                else:
                    with pytest.raises(UnsupportedSet, match=f"{name} takes at most 2 unknowns"):
                        small_config(problem=problem, estimators=(name,))
        # Whole numbers only for horizons, replications and seed; seed >= 0.
        for bad in (
            {"replications": 2.5},
            {"replications": True},
            {"horizons": (400.7,)},
            {"horizons": (True,)},
            {"seed": 1.5},
            {"seed": -1},
            {"seed": 2**64},
            {"estimators": ()},
            # Repeated entries would pool duplicated or foreign rows into one cell.
            {"horizons": (400, 400)},
            {"checkpoints": (1.0, 1)},
            {"estimators": ("onestep", "onestep")},
            # outputs is a directory path or None.
            {"outputs": 5},
            {"outputs": b"out"},
        ):
            with pytest.raises(ValueError):
                small_config(**bad)
        assert small_config(outputs=pathlib.Path("runs") / "a").outputs == os.path.join("runs", "a")
        coerced = small_config(horizons=(400.0,), replications=np.int64(3), seed=2.0)
        assert coerced.horizons == (400,) and type(coerced.horizons[0]) is int
        assert type(coerced.replications) is int and type(coerced.seed) is int

    def test_checkpoint_time_does_not_dip_below_its_decimal(self):
        # 0.57 * 10000 = 5699.999... and 0.29 * 100 = 28.999... in floating
        # point; t is the whole number the decimal names.
        assert 0.57 * 10000 < 5700 and 0.29 * 100 < 29
        assert _checkpoint_times(10000, (0.57, 0.5, 1.0)) == [(0.57, 5700), (0.5, 5000), (1.0, 10000)]
        assert _checkpoint_times(100, (0.29,)) == [(0.29, 29)]
        # At T = 100 and delta = 0.73, tau = 28: adaptive needs t >= 29,
        # which v = 0.29 meets and v = 0.28 does not.
        config = small_config(horizons=(100,), checkpoints=(0.29, 1.0), delta=0.73, estimators=("adaptive",))
        assert learning_interval(100, 0.73) == 28
        assert {r["t"] for r in run_replication(config, 0, 0)} == {29, 100}
        with pytest.raises(ValueError, match="gives t=28"):
            small_config(horizons=(100,), checkpoints=(0.28, 1.0), delta=0.73, estimators=("adaptive",))

    def test_params_and_problem_must_be_built(self):
        # A JSON document goes through from_dict; the constructor itself
        # takes the built objects.
        doc = small_config().to_dict()
        for name in ("params", "problem"):
            with pytest.raises(ValueError, match=f"{name} must be a"):
                small_config(**{name: doc[name]})

    def test_problem_completed_at_construction(self):
        config = small_config()
        assert config.problem.known == {"a": 0.5, "f": 1.0, "sigma2": 1.0}


class TestReplication:
    def test_pure_function_of_indices(self):
        config = small_config()
        one = run_replication(config, 0, 3)
        two = run_replication(config, 0, 3)
        assert one == two

    def test_row_schema(self):
        config = small_config()
        rows = run_replication(config, 0, 2)
        for row in rows:
            assert set(row) == {
                "estimator",
                "coord",
                "T",
                "v",
                "t",
                "rep",
                "stream",
                "value",
            }
            assert row["T"] == 400
            assert row["rep"] == 2
            assert row["stream"] == 2
        kinds = {(r["estimator"], r["coord"]) for r in rows}
        assert kinds == {("onestep", "b"), ("adaptive", "m"), ("adaptive", "y")}
        times = sorted({r["t"] for r in rows})
        assert times == [200, 400]

    def test_stream_layout(self):
        config = small_config(horizons=(400, 500), replications=8)
        rows = run_replication(config, 1, 3)
        assert all(r["stream"] == 8 + 3 for r in rows)
        assert all(r["T"] == 500 for r in rows)

    def test_indices_outside_config_rejected(self):
        # Out-of-range indices would run another replication's stream, or
        # one that belongs to none, under the wrong labels.
        config = small_config(horizons=(300, 400), replications=2)
        for indices in ((0, 2), (1, -1), (2, 0), (-1, 0)):
            with pytest.raises(ValueError, match="outside the config"):
                run_replication(config, *indices)

    def test_indices_must_be_whole_numbers(self):
        # True would otherwise index horizon 1; an integral float is a count.
        config = small_config(horizons=(300, 400), replications=2)
        for indices, name in (((True, 0), "horizon_index"), ((0.5, 0), "horizon_index"), ((0, "1"), "rep")):
            with pytest.raises(ValueError, match=f"{name} must be a whole number"):
                run_replication(config, *indices)
        assert run_replication(config, 1.0, 0) == run_replication(config, 1, 0)

    def test_onestep_rows_same_with_and_without_adaptive(self):
        # With adaptive selected, the onestep rows come from the track the
        # adaptive filter fitted; without it, from one_step directly.
        both = run_replication(small_config(), 0, 5)
        alone = run_replication(small_config(estimators=("onestep",)), 0, 5)
        assert [r for r in both if r["estimator"] == "onestep"] == alone

    @pytest.mark.parametrize(
        "problem, estimators",
        [
            pytest.param(_B, ("mle", "bayes"), id="b"),
            pytest.param(_FA, ("mle", "bayes"), id="f,a"),
            pytest.param(_B, ("mle",), id="b-mle"),
            pytest.param(_B, ("bayes",), id="b-bayes"),
            pytest.param(_FA, ("mle",), id="f,a-mle"),
            pytest.param(_FA, ("bayes",), id="f,a-bayes"),
            # The reference experiment selects neither: no surface at all.
            pytest.param(_B, ("onestep", "adaptive"), id="b-no-grid-estimator"),
        ],
    )
    def test_grid_estimators_share_one_surface_per_prefix(self, problem, estimators, monkeypatch):
        # mle, bayes or both read one surface per checkpoint prefix: the lag
        # statistics run once per prefix, and every row equals the
        # estimator run alone on that prefix, bit for bit.
        config = small_config(problem=problem, estimators=estimators, replications=1)
        grid = [name for name in estimators if name in ("mle", "bayes")]
        real = likelihood_mod._lag_statistics
        calls = []

        def counted(x, a_max):
            calls.append(len(x) - 1)
            return real(x, a_max)

        monkeypatch.setattr(likelihood_mod, "_lag_statistics", counted)
        rows = run_replication(config, 0, 0)
        assert calls == ([200, 400] if grid else [])
        monkeypatch.setattr(likelihood_mod, "_lag_statistics", real)
        x = simulate(REF, 400, config.seed, stream=0).x
        for name in grid:
            estimator = mle if name == "mle" else bayes
            for t in (200, 400):
                got = [r["value"] for r in rows if (r["estimator"], r["t"]) == (name, t)]
                assert got == estimator(x[: t + 1], config.problem).tolist()

    @pytest.mark.parametrize(
        "poisoned, estimators, message",
        [
            # bayes's grid at t = 200, mle's at t = 400: the checkpoint decides.
            pytest.param({200: (512,), 400: (256,)}, ("mle", "bayes"), "1 of 512 grid nodes", id="by-checkpoint"),
            pytest.param({200: (512,), 400: (256,)}, ("bayes", "mle"), "1 of 512 grid nodes", id="by-checkpoint-reversed"),
        ],
    )
    def test_replication_fails_with_first_error_by_checkpoint(self, poisoned, estimators, message, monkeypatch):
        # One node value is not finite on each poisoned grid (named by its
        # size) at its checkpoint. The replication raises the first error in
        # (checkpoint, estimator) order, counting that grid's own nodes; each
        # estimator alone still raises its own grid's error.
        self._assert_first_error(poisoned, estimators, message, monkeypatch)

    @pytest.mark.parametrize(
        "estimators, message",
        [(("mle", "bayes"), "1 of 256 grid nodes"), (("bayes", "mle"), "1 of 512 grid nodes")],
    )
    def test_shared_surface_fails_as_separate_calls(self, estimators, message, monkeypatch):
        # One node value is not finite on both grids at t = 200. The shared
        # surface raises the error of the first estimator in order, counting
        # its own grid's nodes, as separate calls in that order do.
        self._assert_first_error({200: (256, 512)}, estimators, message, monkeypatch)

    @staticmethod
    def _assert_first_error(poisoned, estimators, message, monkeypatch):
        config = small_config(estimators=estimators, replications=1)
        lo, hi = config.problem.bounds["b"]
        nodes = {t: [np.linspace(lo, hi, size)[1] for size in sizes] for t, sizes in poisoned.items()}
        real = likelihood_mod._evaluate

        def evaluate(stats, a, b, f, sigma2):
            value = real(stats, a, b, f, sigma2)
            if isinstance(value, np.ndarray):
                value = np.where(np.isin(b, nodes.get(stats.horizon, [])), np.nan, value)
            return value

        monkeypatch.setattr(likelihood_mod, "_evaluate", evaluate)
        with pytest.raises(ObservationsOverflow, match=message):
            run_replication(config, 0, 0)
        for name, size in (("mle", 256), ("bayes", 512)):
            with pytest.raises(ObservationsOverflow, match=f"1 of {size} grid nodes"):
                run_replication(small_config(estimators=(name,), replications=1), 0, 0)

    def test_one_surface_alive_at_a_time(self, monkeypatch):
        # Each checkpoint prefix's surface is released before the next
        # prefix's is built, and none outlives the replication.
        config = small_config(estimators=("mle", "bayes"), replications=1)
        assert config.checkpoints == (0.5, 1.0)
        real = likelihood_mod._Surface.for_estimators
        built, alive = [], []

        def for_estimators(x, problem, names):
            alive.append(sum(ref() is not None for ref in built))
            surface = real(x, problem, names)
            built.append(weakref.ref(surface))
            return surface

        monkeypatch.setattr(likelihood_mod._Surface, "for_estimators", for_estimators)
        run_replication(config, 0, 0)
        assert alive == [0, 0]
        assert [ref() for ref in built] == [None, None]


def _adaptive_config(problem: ParamProblem, horizon: int) -> ExperimentConfig:
    return small_config(problem=problem, horizons=(horizon,), replications=1, estimators=("adaptive",))


def _whole_track_rows(config: ExperimentConfig) -> tuple[list[float], list[float]]:
    """The adaptive m and y row values of replication 0 from adaptive_filter's
    whole tracks."""
    horizon = config.horizons[0]
    traj = simulate(config.params, horizon, config.seed, keep_hidden=True, stream=0)
    trace = adaptive_filter(traj.x, config.problem, config.delta, truth=config.params)
    times = [math.floor(v * horizon) for v in config.checkpoints]
    m_rows = [trace.m_star_at(t) - float(trace.oracle_m[t]) for t in times]
    y_rows = [trace.m_star_at(t) - float(traj.y[t]) for t in times]
    return m_rows, y_rows


def _adaptive_rows(config: ExperimentConfig) -> tuple[list[float], list[float]]:
    """The harness's adaptive m and y row values of replication 0."""
    rows = run_replication(config, 0, 0)
    return tuple([r["value"] for r in rows if r["coord"] == coord] for coord in ("m", "y"))


class TestAdaptiveWindow:
    """run_replication reads m*_t and the oracle m_t(theta_0) from runs over
    the last J = _memory(a_max) steps before each checkpoint."""

    @pytest.mark.parametrize("unknown", ALL_SETS, ids=",".join)
    def test_rows_match_the_whole_track(self, unknown):
        # a's box is narrowed to +-0.6 (J = 76) so that at T = 2000 both
        # windows start well after tau + 1 and after step 1.
        problem = problem_for(REF, unknown)
        if "a" in unknown:
            problem = ParamProblem(unknown=unknown, bounds=dict(problem.bounds, a=(-0.6, 0.6)))
        config = _adaptive_config(problem, 2000)
        memory = _memory(_largest_a(config.problem))
        assert learning_interval(2000, config.delta) + 1 < 1000 - memory + 1
        m_rows, y_rows = _adaptive_rows(config)
        want_m, want_y = _whole_track_rows(config)
        np.testing.assert_allclose(m_rows, want_m, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(y_rows, want_y, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("unknown", [s for s in ALL_SETS if "a" in s], ids=",".join)
    def test_window_reaching_the_learning_interval_is_the_whole_track(self, unknown):
        # J = 44316 at a box of +-0.999: at T = 2000 the adaptive window
        # starts at tau + 1 and the oracle's at step 1, and both rows equal
        # the whole tracks' bit for bit.
        problem = ParamProblem(unknown=unknown, bounds=dict(problem_for(REF, unknown).bounds, a=(-0.999, 0.999)))
        config = _adaptive_config(problem, 2000)
        assert _memory(0.999) > 2000
        assert _adaptive_rows(config) == _whole_track_rows(config)

    def test_truth_outside_the_a_box(self):
        # The box's J = 56 would cut the oracle, whose |A(theta_0)| = 0.904 at
        # a = 0.99: J is taken at the truth's |a| as well (4183 > T), so the
        # windows are the whole tracks.
        config = small_config(
            params=REF.replace(a=0.99, b=0.1),
            problem=ParamProblem(unknown=("a",), bounds={"a": (-0.5, 0.5)}),
            horizons=(4000,),
            replications=1,
            seed=0,
            estimators=("adaptive",),
        )
        assert _memory(_largest_a(config.problem)) == 56 and _memory(0.99) > 4000
        assert _adaptive_rows(config) == _whole_track_rows(config)

    @pytest.mark.parametrize(
        "unknown, a_max",
        [(unknown, 0.6) for unknown in ALL_SETS] + [(unknown, 0.999) for unknown in ALL_SETS if "a" in unknown],
        ids=lambda p: ",".join(p) if isinstance(p, tuple) else str(p),
    )
    def test_one_solve_equals_each_window(self, unknown, a_max):
        # One solve per replication (_checkpoint_means) gives every
        # checkpoint's pair, and so its rows, bit for bit as _plug_in and
        # filter_stationary give them over its windows alone.
        # At T = 2000 (tau = 95) the windows of t = 1000 and 1040 overlap and
        # that of t = 140 starts at tau + 1; with an a box of +-0.999
        # (J = 44316) every plug-in window starts there.
        problem = problem_for(REF, unknown)
        if "a" in unknown:
            problem = ParamProblem(unknown=unknown, bounds=dict(problem.bounds, a=(-a_max, a_max)))
        config = small_config(
            problem=problem, horizons=(2000,), replications=1, checkpoints=(0.07, 0.5, 0.52), estimators=("adaptive",)
        )
        problem = config.problem
        traj = simulate(config.params, 2000, config.seed, keep_hidden=True, stream=0)
        track = one_step(traj.x, problem, config.delta)
        memory = _memory(_largest_a(problem))
        assert track.tau == 95 and 1040 - memory + 1 < 1000
        pairs, want = [], []
        for t in (140, 1000, 1040):
            m_star = float(_plug_in(traj.x, problem, [(track, max(track.tau + 1, t - memory + 1), t)])[1][-1])
            oracle = float(filter_stationary(config.params, traj.x[max(0, t - memory) : t + 1]).m[-1])
            pairs.append((m_star, oracle))
            want += [m_star - oracle, m_star - float(traj.y[t])]
        assert _checkpoint_means(traj.x, problem, track, config.params, (140, 1000, 1040)) == pairs
        rows = run_replication(config, 0, 0)
        assert [r["t"] for r in rows] == [140, 140, 1000, 1000, 1040, 1040]
        assert [r["value"] for r in rows] == want

    @pytest.mark.parametrize("a", [0.5, -0.9, 0.999])
    def test_oracle_window(self, a):
        # filter_stationary over x[t - J : t + 1] from m = 0 is the whole
        # filter's m_t to 1e-13, and bit for bit once t <= J.
        params = REF.replace(a=a)
        x = simulate(params, 2000, seed=5).x
        whole = filter_stationary(params, x).m
        memory = _memory(abs(a))
        for t in (3, 60, 400, 1000, 2000):
            window = filter_stationary(params, x[max(0, t - memory) : t + 1]).m[-1]
            if t <= memory:
                assert window == whole[t]
            else:
                assert abs(window - whole[t]) <= 1e-13


class TestDeterminism:
    def test_repeated_runs_identical(self):
        config = small_config()
        assert run_monte_carlo(config).to_json() == run_monte_carlo(config).to_json()

    def test_threads_other_than_one_rejected(self):
        config = small_config(replications=1)
        for threads in (0, 2):
            with pytest.raises(ValueError, match="threads must be 1"):
                run_monte_carlo(config, threads=threads)
        for threads in (True, 1.5):
            with pytest.raises(ValueError, match="threads must be a whole number"):
                run_monte_carlo(config, threads=threads)


class TestAggregation:
    def test_onestep_cell_matches_raw_rows(self):
        config = small_config(replications=16)
        report = run_monte_carlo(config)
        raw = [
            r["value"]
            for r in report.replications
            if r["estimator"] == "onestep" and r["v"] == 1.0
        ]
        cell = next(
            c
            for c in report.cells
            if c["estimator"] == "onestep" and c["v"] == 1.0
        )
        values = np.array(raw)
        assert cell["n"] == 16
        assert cell["t"] == 400
        assert cell["mean"] == pytest.approx(float(values.mean()), rel=1e-12)
        assert cell["var"] == pytest.approx(float(values.var(ddof=1)), rel=1e-12)
        centered = values - REF.b
        assert cell["norm_risk"] == pytest.approx(
            400 * float((centered * centered).mean()), rel=1e-12
        )
        inverse = np.linalg.inv(fisher_info(REF, config.problem.unknown))
        assert cell["target"] == pytest.approx(inverse, rel=1e-12)
        assert cell["ratio"] == pytest.approx(
            400 * cell["var"] / inverse, rel=1e-12
        )
        assert 0.0 <= cell["ks_pvalue"] <= 1.0

    def test_adaptive_cells(self):
        config = small_config(replications=16)
        report = run_monte_carlo(config)
        m_cell = next(
            c
            for c in report.cells
            if c["estimator"] == "adaptive" and c["coord"] == "m" and c["v"] == 1.0
        )
        assert m_cell["target"] == pytest.approx(s_star_limit(REF, ("b",)), rel=1e-12)
        raw = np.array(
            [
                r["value"]
                for r in report.replications
                if r["estimator"] == "adaptive"
                and r["coord"] == "m"
                and r["v"] == 1.0
            ]
        )
        assert m_cell["norm_risk"] == pytest.approx(
            400 * float((raw * raw).mean()), rel=1e-12
        )

        y_cell = next(
            c
            for c in report.cells
            if c["estimator"] == "adaptive" and c["coord"] == "y" and c["v"] == 1.0
        )
        want_target = stationary(REF).gamma_star + s_star_limit(REF, ("b",)) / 400
        assert y_cell["target"] == pytest.approx(want_target, rel=1e-12)
        assert y_cell["ks_pvalue"] is None
        raw_y = np.array(
            [
                r["value"]
                for r in report.replications
                if r["estimator"] == "adaptive"
                and r["coord"] == "y"
                and r["v"] == 1.0
            ]
        )
        assert y_cell["norm_risk"] == pytest.approx(
            float((raw_y * raw_y).mean()), rel=1e-12
        )

    def test_all_estimators_run(self):
        config = small_config(
            replications=3,
            estimators=("mme", "onestep", "mle", "bayes", "adaptive"),
            horizons=(300,),
        )
        report = run_monte_carlo(config)
        names = {c["estimator"] for c in report.cells}
        assert names == {"mme", "onestep", "mle", "bayes", "adaptive"}
        mme_cell = next(c for c in report.cells if c["estimator"] == "mme")
        assert mme_cell["target"] is None and mme_cell["ratio"] is None
        for name in ("mle", "bayes"):
            cell = next(c for c in report.cells if c["estimator"] == name)
            assert cell["target"] == pytest.approx(
                np.linalg.inv(fisher_info(REF, config.problem.unknown)), rel=1e-12
            )

    def test_sets_with_sigma2_get_onestep_targets(self):
        # Every set has a Fisher information, so onestep cells carry the
        # inverse-information target and adaptive cells carry S*^2.
        bounds = {"a": (-0.9, 0.9), "b": (0.1, 5.0), "f": (0.1, 5.0), "sigma2": (0.1, 5.0)}
        for unknown in (("sigma2",), ("a", "f", "sigma2"), ("a", "b", "sigma2")):
            problem = ParamProblem(unknown=unknown, bounds={k: bounds[k] for k in unknown})
            report = run_monte_carlo(small_config(problem=problem, replications=3, horizons=(2000,)))
            assert all(cell["failures"] == 0 for cell in report.cells)
            targets = np.linalg.inv(fisher_info(REF, unknown)).diagonal()
            for k, coord in enumerate(unknown):
                cells = [c for c in report.cells if (c["estimator"], c["coord"]) == ("onestep", coord)]
                assert len(cells) == 2 and all(c["target"] == targets[k] for c in cells)
            m_cells = [c for c in report.cells if (c["estimator"], c["coord"]) == ("adaptive", "m")]
            assert len(m_cells) == 2 and all(c["target"] == s_star_limit(REF, unknown) for c in m_cells)

    @pytest.mark.parametrize("estimators", [("onestep", "adaptive"), ("onestep",)])
    def test_targets_evaluate_the_information_once(self, estimators, monkeypatch):
        # With or without the adaptive target, one report evaluates the
        # track moments and the information once, and the targets equal
        # the public functions' values bit for bit.
        unknown = ("f", "a")
        problem = ParamProblem(unknown=unknown, bounds={"f": (0.1, 5.0), "a": (-0.9, 0.9)})
        config = small_config(problem=problem, estimators=estimators)
        calls = []

        def counting(name, real):
            def counted(*args):
                calls.append(name)
                return real(*args)

            return counted

        for name in ("_track_moments", "_information"):
            monkeypatch.setattr(model_core_mod, name, counting(name, getattr(model_core_mod, name)))
        targets = _targets(config)
        assert sorted(calls) == ["_information", "_track_moments"]
        monkeypatch.undo()
        inv_diagonal = np.linalg.inv(fisher_info(REF, unknown)).diagonal()
        assert [targets[("onestep", coord)] for coord in unknown] == inv_diagonal.tolist()
        if "adaptive" in estimators:
            assert targets[("adaptive", "m")] == s_star_limit(REF, unknown)

    def test_singular_information_gives_no_targets(self):
        # At a = 0 a triple's information is singular: neither the onestep
        # cells nor the adaptive cells get a target.
        problem = ParamProblem(
            unknown=("a", "b", "sigma2"), bounds={"a": (-0.9, 0.9), "b": (0.1, 5.0), "sigma2": (0.1, 5.0)}
        )
        config = small_config(params=REF.replace(a=0.0), problem=problem)
        targets = _targets(config)
        assert set(targets) == {("onestep", "a"), ("onestep", "b"), ("onestep", "sigma2"), ("adaptive", "m")}
        assert all(target is None for target in targets.values())

    def test_zero_adaptive_target(self):
        # At a = 0 the derivative of m in b vanishes and S*^2 is exactly 0:
        # the m cells keep that target but get no ratio and no KS test; the
        # y cells are scored against gamma* alone.
        params = REF.replace(a=0.0)
        report = run_monte_carlo(small_config(params=params, replications=3))
        m_cells = [c for c in report.cells if (c["estimator"], c["coord"]) == ("adaptive", "m")]
        assert len(m_cells) == 2
        for cell in m_cells:
            assert cell["target"] == 0.0
            assert cell["ratio"] is None and cell["ks_pvalue"] is None
        for cell in (c for c in report.cells if c["coord"] == "y"):
            assert cell["target"] == stationary(params).gamma_star
            assert cell["ratio"] == cell["norm_risk"] / cell["target"]
        json.loads(report.to_json())

    @pytest.mark.parametrize("replications", [1, 3])
    def test_in_memory_report_equals_json(self, replications):
        report = run_monte_carlo(small_config(replications=replications))
        doc = {"config": report.config, "cells": report.cells, "replications": report.replications}
        assert json.loads(report.to_json()) == doc

    def test_single_replication_var_is_sanitized(self):
        config = small_config(replications=1)
        report = run_monte_carlo(config)
        doc = json.loads(report.to_json())  # allow_nan=False must not throw
        cell = doc["cells"][0]
        assert cell["var"] is None


class TestKsNormal:
    def test_matches_scipy_kstest_bitwise(self):
        rng = np.random.default_rng(23)
        samples, wants = [], []
        for n in range(2, 65):
            scale = float(rng.uniform(0.1, 10.0))
            plain = scale * rng.standard_normal(n)
            tied = plain.copy()
            tied[: n // 2 + 1] = tied[0]
            tails = plain.copy()
            tails[0], tails[-1] = -60.0 * scale, 1e6 * scale  # ndtr gives exactly 0 and 1
            shifted = plain + 3.0 * scale  # tiny p-values
            for values in (plain, tied, tails, shifted, np.full(n, 0.25 * scale)):
                want = stats.kstest(values, "norm", args=(0.0, scale))
                samples.append((values, scale))
                wants.append((float(want.statistic), float(want.pvalue)))
        # Every sample's p-value comes from the one batched call.
        d = [_ks_statistic(values, scale) for values, scale in samples]
        pvalues = _ks_pvalues(d, [len(values) for values, _ in samples])
        assert list(zip(d, pvalues)) == wants

    def test_report_with_unequal_cell_sizes(self, monkeypatch):
        # One replication fails at the first of two horizons, so that
        # horizon's cells hold n = 4 and the other's n = 5: every KS entry
        # of the report still equals kstest on the cell's own sample.
        config = small_config(horizons=(400, 600), replications=5)
        real = harness_mod.one_step

        def broken(x, problem, delta=0.6, prelim=None):
            broken.calls += 1
            if broken.calls == 3:
                raise RuntimeError("synthetic failure")
            return real(x, problem, delta, prelim)

        broken.calls = 0
        monkeypatch.setattr(harness_mod, "one_step", broken)
        report = run_monte_carlo(config)
        targets = _targets(config)
        tested = [cell for cell in report.cells if cell["ks_stat"] is not None]
        assert {(cell["T"], cell["n"]) for cell in tested} == {(400, 4), (600, 5)}
        assert {(c["estimator"], c["coord"]) for c in tested} == {("onestep", "b"), ("adaptive", "m")}
        for cell in tested:
            values = np.array(
                [
                    r["value"]
                    for r in report.replications
                    if (r["estimator"], r["coord"], r["T"], r["v"])
                    == (cell["estimator"], cell["coord"], cell["T"], cell["v"])
                ]
            )
            if cell["estimator"] == "onestep":
                values = values - REF.b
            scale = np.sqrt(targets[(cell["estimator"], cell["coord"])])
            want = stats.kstest(np.sqrt(cell["t"]) * values, "norm", args=(0.0, scale))
            assert (cell["ks_stat"], cell["ks_pvalue"]) == (float(want.statistic), float(want.pvalue))


class TestFailureCapture:
    def test_error_rows_recorded(self, monkeypatch):
        config = small_config(replications=6)
        real = harness_mod.one_step
        target = run_replication(config, 0, 4)[0]["stream"]

        def broken(x, problem, delta=0.6, prelim=None):
            if broken.calls == 4:
                broken.calls += 1
                raise RuntimeError("synthetic failure")
            broken.calls += 1
            return real(x, problem, delta, prelim)

        broken.calls = 0
        monkeypatch.setattr(harness_mod, "one_step", broken)
        report = run_monte_carlo(config)
        errors = [r for r in report.replications if r["estimator"] == "error"]
        assert len(errors) == 1
        assert errors[0]["rep"] == 4
        assert errors[0]["stream"] == target
        assert "synthetic failure" in errors[0]["message"]
        for cell in report.cells:
            assert cell["failures"] == 1
            assert cell["n"] == 5

    def test_non_finite_estimate_fails_its_replication(self, monkeypatch):
        # Calls run rep by rep, t = 200 then t = 400: the 4th call is rep 1
        # at t = 400, the 7th rep 3 at t = 200, which ends rep 3.
        config = small_config(replications=4, estimators=("mme",))
        real = harness_mod.mme
        calls = []

        def nan_on_some(x, problem):
            calls.append(len(x) - 1)
            if len(calls) in (4, 7):
                return types.SimpleNamespace(values=np.array([np.nan]))
            return real(x, problem)

        monkeypatch.setattr(harness_mod, "mme", nan_on_some)
        report = run_monte_carlo(config)
        errors = [r for r in report.replications if r["estimator"] == "error"]
        assert [(r["rep"], r["message"]) for r in errors] == [
            (1, "ArithmeticError: mme:b at t=400 is not finite: nan"),
            (3, "ArithmeticError: mme:b at t=200 is not finite: nan"),
        ]
        assert calls == [200, 400] * 3 + [200]
        assert {r["rep"] for r in report.replications if r["estimator"] == "mme"} == {0, 2}
        assert len(report.cells) == 2
        for cell in report.cells:
            assert cell["failures"] == 2
            assert cell["n"] == 2
        json.loads(report.to_json())

    @pytest.mark.parametrize(
        "estimators, poisoned_t, mme_fails_at, message",
        [
            pytest.param(("mme", "adaptive"), 399, 200, "mme failed", id="mme-at-first-checkpoint"),
            pytest.param(("adaptive", "mme"), 399, 400, "adaptive:m at t=400", id="adaptive-first-at-T"),
            pytest.param(("mme", "adaptive"), 399, 400, "mme failed", id="mme-first-at-T"),
            pytest.param(("mme", "adaptive"), 199, 400, "adaptive:m at t=200", id="adaptive-at-first-checkpoint"),
        ],
    )
    def test_adaptive_error_surfaces_at_its_checkpoint(self, monkeypatch, estimators, poisoned_t, mme_fails_at, message):
        # A NaN in theta*_{t,T} poisons only step t + 1: t = 399 fails the
        # adaptive window of t = T = 400 and not that of t = 200, t = 199
        # fails the window of t = 200. One solve runs every window before the
        # checkpoint loop, and a NaN spreads through all of it, yet the
        # replication raises the first error in (checkpoint, estimator) order.
        # The row is poisoned as it is read: a NaN in the stored sums would
        # be clipped to the lower bound like any NaN row.
        config = small_config(replications=1, estimators=estimators)
        real_one_step, real_mme = harness_mod.one_step, harness_mod.mme

        class Poisoned(EstimatorTrace):
            def rows(self, start, stop):
                values, clipped = super().rows(start, stop)
                if start <= poisoned_t <= stop:
                    values = values.copy()
                    values[poisoned_t - start] = np.nan
                return values, clipped

        def poisoned(x, problem, delta=0.6, prelim=None):
            track = real_one_step(x, problem, delta, prelim)
            return Poisoned(**{f.name: getattr(track, f.name) for f in dataclasses.fields(track)})

        def mme(x, problem):
            if len(x) - 1 == mme_fails_at:
                raise ValueError("mme failed")
            return real_mme(x, problem)

        monkeypatch.setattr(harness_mod, "one_step", poisoned)
        monkeypatch.setattr(harness_mod, "mme", mme)
        with pytest.raises((ValueError, ArithmeticError), match=message):
            run_replication(config, 0, 0)

    def test_overflowing_information_fails_every_replication(self):
        # P^2 overflows at sigma2 = 1e155: each replication's one-step fit
        # fails with FisherSingular, and the targets are None, where _targets
        # raised a bare OverflowError after the replications.
        config = small_config(
            params=ModelParams(a=0.999, b=1.0, f=1.0, sigma2=1e155), horizons=(2000,), replications=2
        )
        assert set(_targets(config).values()) == {None}
        report = run_monte_carlo(config)
        assert report.cells == []
        messages = [r["message"] for r in report.replications]
        assert len(messages) == 2
        assert all(m.startswith("FisherSingular: ") and "overflows" in m for m in messages)


class TestWriteColumns:
    def test_cell_format(self, tmp_path):
        path = tmp_path / "cols.csv"
        floats = [0.1, -0.0, 1e-300, 5e-324]
        write_columns(
            str(path),
            {"z": [1, 2, 3, 4], "a": floats, "gap": [None, 2.5, None, -1.0], "n": [0, 1, -7, 10**20]},
        )
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["z", "a", "gap", "n"]
        body = rows[1:]
        assert [r[0] for r in body] == ["1", "2", "3", "4"]
        got = [float(r[1]) for r in body]
        assert [np.float64(v).tobytes() for v in got] == [np.float64(v).tobytes() for v in floats]
        assert [r[2] for r in body] == ["", "2.5", "", "-1.0"]
        assert [r[3] for r in body] == ["0", "1", "-7", str(10**20)]

    def test_unequal_lengths_raise(self, tmp_path):
        with pytest.raises(ValueError):
            write_columns(str(tmp_path / "bad.csv"), {"t": [0, 1, 2], "innovation": [0.5, 0.25]})


class TestExport:
    def test_written_files(self, tmp_path):
        config = small_config(replications=4)
        report = run_monte_carlo(config)
        paths = export(report, str(tmp_path))
        with open(paths["csv"], newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = list(reader)
        assert header == [
            "estimator",
            "T",
            "v",
            "mean",
            "var",
            "norm_risk",
            "target",
            "ratio",
            "ks",
        ]
        assert len(body) == len(report.cells)
        labels = {row[0] for row in body}
        assert labels == {"onestep:b", "adaptive:m", "adaptive:y"}
        with open(paths["json"]) as fh:
            doc = json.load(fh)
        assert doc == json.loads(report.to_json())
