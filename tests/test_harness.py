"""Monte Carlo harness: determinism, aggregation, failure capture, export."""

import csv
import json
import os
import pathlib

import numpy as np
import pytest

from hidden_ar import (
    ExperimentConfig,
    HorizonTooShort,
    ParamProblem,
    UnsupportedSet,
    export,
    fisher_info,
    run_monte_carlo,
    run_replication,
    s_star_limit,
    stationary,
)
import hidden_ar.harness as harness_mod
from hidden_ar.harness import write_columns

from conftest import REF


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


class TestConfig:
    def test_roundtrip(self):
        config = small_config()
        clone = ExperimentConfig.from_dict(config.to_dict())
        assert clone.to_dict() == config.to_dict()
        assert clone.params == config.params
        assert clone.problem.unknown == config.problem.unknown
        assert clone.problem.is_complete()

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
        ):
            with pytest.raises(ValueError, match=key):
                ExperimentConfig.from_dict(dict(doc, **{key: value}))
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
        small_config(horizons=(10,), estimators=("mme",), delta=0.3)
        # mme needs t >= 3, mle and bayes need t >= 1.
        with pytest.raises(ValueError):
            small_config(horizons=(1000,), checkpoints=(0.002, 1.0), estimators=("mme",))
        small_config(horizons=(1000,), checkpoints=(0.003, 1.0), estimators=("mme",))
        for name in ("mle", "bayes"):
            with pytest.raises(ValueError):
                small_config(horizons=(10,), checkpoints=(0.05, 1.0), estimators=(name,))
            small_config(horizons=(10,), checkpoints=(0.1, 1.0), estimators=(name,))
        # Unknown sets an estimator cannot run on; mme takes all seven.
        sigma2 = ParamProblem(unknown=("sigma2",), bounds={"sigma2": (0.1, 5.0)})
        triple = ParamProblem(
            unknown=("a", "f", "sigma2"),
            bounds={"a": (-0.9, 0.9), "f": (0.1, 5.0), "sigma2": (0.1, 5.0)},
        )
        for name in ("onestep", "adaptive"):
            for problem in (sigma2, triple):
                with pytest.raises(UnsupportedSet):
                    small_config(problem=problem, estimators=(name,))
        for name in ("mle", "bayes"):
            small_config(problem=sigma2, estimators=(name,))
            with pytest.raises(UnsupportedSet):
                small_config(problem=triple, estimators=(name,))
        bounds = {"a": (-0.9, 0.9), "b": (0.1, 5.0), "f": (0.1, 5.0), "sigma2": (0.1, 5.0)}
        for unknown in (
            ("f",), ("b",), ("a",), ("sigma2",), ("f", "a"), ("a", "f", "sigma2"), ("a", "b", "sigma2")
        ):
            problem = ParamProblem(unknown=unknown, bounds={k: bounds[k] for k in unknown})
            small_config(problem=problem, estimators=("mme",))
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


class TestDeterminism:
    def test_repeated_runs_identical(self):
        config = small_config()
        assert run_monte_carlo(config).to_json() == run_monte_carlo(config).to_json()

    def test_threads_other_than_one_rejected(self):
        config = small_config(replications=1)
        for threads in (0, 2):
            with pytest.raises(ValueError, match="threads must be 1"):
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

    def test_single_replication_var_is_sanitized(self):
        config = small_config(replications=1)
        report = run_monte_carlo(config)
        doc = json.loads(report.to_json())  # allow_nan=False must not throw
        cell = doc["cells"][0]
        assert cell["var"] is None


class TestFailureCapture:
    def test_error_rows_recorded(self, monkeypatch):
        config = small_config(replications=6)
        real = harness_mod.one_step
        target = run_replication(config, 0, 4)[0]["stream"]

        def broken(x, problem, delta=0.6, method="batch", prelim=None):
            if broken.calls == 4:
                broken.calls += 1
                raise RuntimeError("synthetic failure")
            broken.calls += 1
            return real(x, problem, delta, method, prelim)

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
