"""Command-line interface: subcommands, files, and exit codes."""

import csv
import json

import numpy as np
import pytest

import hidden_ar.adaptive as adaptive_mod
from hidden_ar.cli import main

from conftest import REF_VALUES, write_series_csv


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    lines = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, lines, out.err


class TestSimulate:
    def test_writes_trajectory(self, capsys, tmp_path):
        code, lines, _ = run_cli(
            capsys, ["simulate", "--T", "50", "--seed", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        assert lines[-1]["T"] == 50
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 51
        assert all(r["y"] != "" for r in rows)

    def test_no_hidden(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            ["simulate", "--T", "20", "--no-hidden", "--out", str(tmp_path)],
        )
        assert code == 0
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["y"] == "" for r in rows)

    def test_invalid_params_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["simulate", "--a", "1.5", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error" in err

    def test_negative_seed_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["simulate", "--seed", "-1", "--out", str(tmp_path)])
        assert code == 2
        assert "seed must lie in" in err
        assert not (tmp_path / "trajectory.csv").exists()


class TestFilter:
    def test_innovations_white(self, capsys, tmp_path):
        code, lines, _ = run_cli(
            capsys, ["filter", "--T", "5000", "--seed", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        assert abs(lines[-1]["innovation_mean"]) < 0.1
        assert abs(lines[-1]["innovation_var"] - 1.0) < 0.1
        assert (tmp_path / "filter.csv").exists()

    def test_derivative_track(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            ["filter", "--T", "200", "--wrt", "b", "--out", str(tmp_path)],
        )
        assert code == 0
        with open(tmp_path / "filter.csv", newline="") as fh:
            header = fh.readline().strip().split(",")
        assert "dm_b" in header

    def test_reads_data_csv(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        data = tmp_path / "x.csv"
        write_series_csv(data, rng.standard_normal(500))
        code, lines, _ = run_cli(
            capsys, ["filter", "--data", str(data), "--out", str(tmp_path)]
        )
        assert code == 0

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            ["filter", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)],
        )
        assert code == 2

    def test_non_finite_data_exit_2(self, capsys, tmp_path):
        values = np.random.default_rng(8).standard_normal(500)
        values[250] = np.nan
        data = tmp_path / "x.csv"
        write_series_csv(data, values)
        for argv in (["filter", "--out", str(tmp_path)], ["mme"], ["mle"]):
            code, _, err = run_cli(capsys, argv + ["--data", str(data)])
            assert code == 2
            assert "x[250]" in err

    def test_missing_x_column_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        with open(bad, "w") as fh:
            fh.write("t,value\n0,1.0\n1,2.0\n")
        code, _, _ = run_cli(
            capsys, ["filter", "--data", str(bad), "--out", str(tmp_path)]
        )
        assert code == 2


class TestEstimators:
    def test_mme(self, capsys, tmp_path):
        code, lines, _ = run_cli(capsys, ["mme", "--T", "5000", "--seed", "6"])
        assert code == 0
        assert abs(lines[-1]["estimate"]["b"] - 1.0) < 0.3
        assert len(lines[-1]["s_statistics"]) == 3

    def test_onestep(self, capsys, tmp_path):
        code, lines, _ = run_cli(
            capsys,
            ["onestep", "--T", "2000", "--seed", "6", "--out", str(tmp_path)],
        )
        assert code == 0
        summary = lines[-1]
        assert summary["tau"] == 95  # floor(2000**0.6)
        assert abs(summary["final"]["b"] - 1.0) < 0.3
        assert (tmp_path / "estimator.csv").exists()

    def test_onestep_pair(self, capsys, tmp_path):
        code, lines, _ = run_cli(
            capsys,
            [
                "onestep",
                "--T",
                "2000",
                "--seed",
                "6",
                "--unknown",
                "f,a",
                "--out",
                str(tmp_path),
            ],
        )
        assert code == 0
        assert set(lines[-1]["final"]) == {"f", "a"}

    def test_mle(self, capsys):
        code, lines, _ = run_cli(capsys, ["mle", "--T", "2000", "--seed", "6"])
        assert code == 0
        assert abs(lines[-1]["estimate"]["b"] - 1.0) < 0.3
        assert lines[-1]["loglik"] < 0.0

    def test_bayes(self, capsys):
        code, lines, _ = run_cli(
            capsys, ["bayes", "--T", "2000", "--seed", "6", "--grid-size", "128"]
        )
        assert code == 0
        assert abs(lines[-1]["estimate"]["b"] - 1.0) < 0.3

    def test_bayes_bad_grid_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, ["bayes", "--T", "100", "--grid-size", "8"]
        )
        assert code == 2

    def test_singular_information_exit_1(self, capsys, tmp_path):
        # A constant-free near-zero series drives the moment preliminary to
        # the lower bound; at b ~ 1e-9 the information underflows the
        # singularity guard, a runtime failure rather than a usage error.
        data = tmp_path / "flat.csv"
        write_series_csv(data, np.zeros(100))
        code, _, err = run_cli(
            capsys,
            [
                "onestep",
                "--data",
                str(data),
                "--bounds",
                "b=1e-9:5",
                "--out",
                str(tmp_path),
            ],
        )
        assert code == 1
        assert "error" in err


class TestAdaptive:
    def test_simulated_run_reports_errors(self, capsys, tmp_path):
        code, lines, _ = run_cli(
            capsys,
            ["adaptive", "--T", "2000", "--seed", "8", "--out", str(tmp_path)],
        )
        assert code == 0
        summary = lines[-1]
        assert summary["s_star_limit"] == pytest.approx(
            REF_VALUES["s_star_sq"], rel=1e-12
        )
        assert summary["normalized_filter_error"] >= 0.0
        assert summary["normalized_estimator_error"] >= 0.0
        assert (tmp_path / "adaptive.csv").exists()

    def test_data_run_has_no_oracle(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        data = tmp_path / "x.csv"
        write_series_csv(data, rng.standard_normal(2000) * 1.5)
        code, lines, _ = run_cli(
            capsys, ["adaptive", "--data", str(data), "--out", str(tmp_path)]
        )
        assert code == 0
        assert "normalized_filter_error" not in lines[-1]


class TestMonteCarlo:
    def test_inline_flags(self, capsys, tmp_path):
        code, lines, _ = run_cli(
            capsys,
            [
                "montecarlo",
                "--T",
                "300",
                "--replications",
                "4",
                "--out",
                str(tmp_path),
            ],
        )
        assert code == 0
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.json").exists()
        cell_lines = [l for l in lines if "estimator" in l]
        assert {l["estimator"] for l in cell_lines} == {
            "onestep:b",
            "adaptive:m",
            "adaptive:y",
        }

    def test_config_file_with_seed_override(self, capsys, tmp_path):
        config = {
            "params": {"a": 0.5, "b": 1.0, "f": 1.0, "sigma2": 1.0},
            "problem": {"unknown": ["b"], "bounds": {"b": [0.1, 5.0]}},
            "horizons": [300],
            "replications": 3,
            "estimators": ["onestep"],
            "checkpoints": [1.0],
            "seed": 5,
        }
        cfg_path = tmp_path / "config.json"
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        code, _, _ = run_cli(
            capsys,
            [
                "montecarlo",
                "--config",
                str(cfg_path),
                "--seed",
                "11",
                "--out",
                str(tmp_path),
            ],
        )
        assert code == 0
        with open(tmp_path / "report.json") as fh:
            doc = json.load(fh)
        assert doc["config"]["seed"] == 11
        assert doc["config"]["replications"] == 3

    def test_unknown_estimator_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            [
                "montecarlo",
                "--T",
                "300",
                "--replications",
                "2",
                "--estimators",
                "glm",
                "--out",
                str(tmp_path),
            ],
        )
        assert code == 2

    def test_horizon_shorter_than_learning_interval_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["montecarlo", "--T", "10", "--replications", "2", "--out", str(tmp_path)],
        )
        assert code == 2
        assert "T >= 16" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--unknown", "sigma2", "--bounds", "sigma2=0.1:5"], "onestep supports the unknown sets"),
            (["--seed", "-1"], "seed must lie in"),
        ],
    )
    def test_config_rejected_before_running_exit_2(self, capsys, tmp_path, flags, message):
        code, _, err = run_cli(
            capsys,
            ["montecarlo", "--T", "400", "--replications", "2", "--out", str(tmp_path)] + flags,
        )
        assert code == 2
        assert message in err
        assert not (tmp_path / "report.json").exists()

    def test_every_replication_failed_exit_1(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(adaptive_mod, "one_step_scalar", broken)
        code, _, err = run_cli(
            capsys,
            ["montecarlo", "--T", "300", "--replications", "2", "--out", str(tmp_path)],
        )
        assert code == 1
        assert "every replication failed" in err
        with open(tmp_path / "report.json") as fh:
            doc = json.load(fh)
        assert doc["cells"] == []
        assert {row["estimator"] for row in doc["replications"]} == {"error"}
