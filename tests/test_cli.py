"""Command-line interface: subcommands, files, and exit codes."""

import argparse
import csv
import json

import numpy as np
import pytest

import hidden_ar.harness as harness_mod
from hidden_ar import s_star_limit, simulate
from hidden_ar.cli import build_parser, main

from conftest import REF, REF_VALUES, write_series_csv


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    lines = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, lines, out.err


_MODEL = {"--a", "--b", "--f", "--sigma2"}
_INPUT = _MODEL | {"--T", "--seed", "--data"}
_PROBLEM = {"--unknown", "--bounds"}


class TestParser:
    # mme, mle and bayes print and write nothing, so take no --out;
    # simulate and montecarlo always simulate, so take no --data.
    @pytest.mark.parametrize(
        "command, options",
        [
            ("simulate", _MODEL | {"--T", "--seed", "--no-hidden", "--out"}),
            ("filter", _INPUT | {"--wrt", "--out"}),
            ("mme", _INPUT | _PROBLEM),
            ("onestep", _INPUT | _PROBLEM | {"--delta", "--out"}),
            ("mle", _INPUT | _PROBLEM),
            ("bayes", _INPUT | _PROBLEM | {"--grid-size"}),
            ("adaptive", _INPUT | _PROBLEM | {"--delta", "--out"}),
            (
                "montecarlo",
                _MODEL
                | _PROBLEM
                | {"--config", "--T", "--seed", "--out"}
                | {"--delta", "--replications", "--checkpoints", "--estimators"},
            ),
        ],
    )
    def test_options(self, command, options):
        (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        parser = commands.choices[command]
        got = {flag for action in parser._actions for flag in action.option_strings}
        assert got - {"-h", "--help"} == options


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

    @pytest.mark.parametrize(
        "argv, coordinate",
        [
            (["filter", "--T", "200", "--f", "1e-200"], "f"),
            (["filter", "--T", "200", "--f", "1e200"], "f"),
            (["filter", "--T", "200", "--b", "1e200"], "b"),
            (["adaptive", "--T", "2000", "--sigma2", "1e300"], "sigma2"),
            (["bayes", "--T", "100", "--unknown", "f,a", "--bounds", "f=1e-200:2e-200,a=0:1e-130"], "f"),
            (["mle", "--T", "100", "--unknown", "f,a", "--bounds", "f=1e-200:2e-200,a=0:1e-130"], "f"),
            (["onestep", "--T", "100", "--unknown", "f,a", "--bounds", "f=1e-200:2e-200,a=0:1e-130"], "f"),
            # Every corner is fine; the filter overflows at a = 0, f = 5e-78.
            (["mle", "--T", "200", "--unknown", "f,a", "--bounds", "f=5e-78:1,a=-0.9:0.9"], "f"),
        ],
    )
    def test_point_or_box_the_filter_cannot_evaluate_exit_2(self, capsys, tmp_path, monkeypatch, argv, coordinate):
        monkeypatch.chdir(tmp_path)
        code, lines, err = run_cli(capsys, argv)
        assert code == 2
        assert err.startswith(f"error: {coordinate}: ")
        assert lines == [] and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("item", ["a=0.5", "a", "a=:0.9", "a=-0.9:", "=-0.9:0.9", "a=low:0.9"])
    def test_malformed_bounds_exit_2(self, capsys, item):
        # float('') used to escape as "could not convert string to float: ''".
        code, lines, err = run_cli(capsys, ["mme", "--T", "200", "--unknown", "a", "--bounds", item])
        assert code == 2 and lines == []
        assert err == f"error: --bounds item {item!r} is not of the form name=lo:hi\n"

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
        for wrt in ("b", "sigma2"):
            code, _, _ = run_cli(
                capsys,
                ["filter", "--T", "200", "--wrt", wrt, "--out", str(tmp_path)],
            )
            assert code == 0
            with open(tmp_path / "filter.csv", newline="") as fh:
                header = fh.readline().strip().split(",")
            assert f"dm_{wrt}" in header

    def test_unknown_derivative_coordinate_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["filter", "--T", "200", "--wrt", "zz", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "unknown coordinate 'zz'" in err
        assert not list(tmp_path.iterdir())

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

    def test_overflowing_data_exit_2(self, capsys, tmp_path):
        # Finite values whose squares overflow: an input error, with
        # nothing (no NaN log-likelihood, no estimate on a bound) on stdout.
        data = tmp_path / "x.csv"
        write_series_csv(data, simulate(REF, 2000, seed=9).x * 1e160)
        for argv in (["mle"], ["bayes", "--grid-size", "64"], ["mme"], ["onestep", "--out", str(tmp_path)]):
            code, lines, err = run_cli(capsys, argv + ["--data", str(data)])
            assert code == 2
            assert lines == []
            assert "overflow" in err

    def test_likelihood_overflowing_at_grid_nodes_exit_2(self, capsys, tmp_path):
        # S0 is finite, but the likelihood overflows at some of a's grid
        # nodes; mle used to print a = 0.56 for this file.
        data = tmp_path / "x.csv"
        write_series_csv(data, simulate(REF, 2000, seed=3).x * 1.7e152)
        for argv in (["mle"], ["bayes", "--grid-size", "64"]):
            code, lines, err = run_cli(capsys, argv + ["--unknown", "a", "--data", str(data)])
            assert code == 2
            assert lines == []
            assert "not finite at" in err

    def test_non_numeric_x_cell_exit_2(self, capsys, tmp_path):
        # The error names the file and the line of the cell, not only
        # float()'s "could not convert string to float: ''".
        data = tmp_path / "x.csv"
        for body, line, cell in (("0,1.0\n1,\n2,3.0\n", 3, "''"), ("0,1.0\n1,2.0\n2,abc\n", 4, "'abc'"), ("0,1.0\n1\n", 3, "None")):
            data.write_text("t,x\n" + body)
            code, lines, err = run_cli(capsys, ["filter", "--data", str(data), "--out", str(tmp_path / "out")])
            assert code == 2 and lines == []
            assert f"{data} line {line}: x value {cell} is not a number" in err

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

    def test_mme_other_units(self, capsys):
        # x in units 1e-6 puts S1 - 2 sigma2 near 1e-12; the near-zero rule
        # is relative to S1, so a comes out as at unit scale.
        argv = ["mme", "--T", "2000", "--unknown", "a,f,sigma2"]
        _, unit, _ = run_cli(capsys, argv + ["--bounds", "f=5e-2:5,sigma2=5e-2:5"])
        code, lines, _ = run_cli(
            capsys, argv + ["--f", "1e-6", "--sigma2", "1e-12", "--bounds", "f=5e-8:5e-6,sigma2=5e-14:5e-12"]
        )
        assert code == 0
        assert lines[-1]["degenerate"] == []
        assert lines[-1]["estimate"]["a"] == pytest.approx(unit[-1]["estimate"]["a"], rel=1e-9)

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["onestep", "--unknown", "sigma2", "--f", "1000", "--sigma2", "1e6", "--bounds", "sigma2=5e4:5e6"],
            [
                "adaptive",
                "--unknown",
                "a,f,sigma2",
                "--f",
                "0.001",
                "--sigma2",
                "1e-6",
                "--bounds",
                "f=1e-4:5e-3,sigma2=5e-8:5e-6",
            ],
        ],
    )
    def test_other_units_run(self, capsys, tmp_path, argv):
        # x measured in other units: the information is no more singular
        # than at f = sigma2 = 1.
        code, lines, _ = run_cli(capsys, argv + ["--T", "2000", "--out", str(tmp_path)])
        assert code == 0
        assert lines

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

    @pytest.mark.parametrize("command", ["onestep", "adaptive"])
    def test_set_without_information_exit_2(self, capsys, tmp_path, command):
        # Only a set ParamProblem rejects has no Fisher information.
        code, _, err = run_cli(
            capsys, [command, "--T", "500", "--unknown", "a,b", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "unsupported unknown set" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["onestep", "adaptive"])
    @pytest.mark.parametrize("unknown", ["sigma2", "a,f,sigma2", "a,b,sigma2"])
    def test_sets_with_sigma2_run(self, capsys, tmp_path, command, unknown):
        code, lines, _ = run_cli(
            capsys, [command, "--T", "2000", "--unknown", unknown, "--out", str(tmp_path)]
        )
        assert code == 0
        assert len(list(tmp_path.iterdir())) == 1
        if command == "onestep":
            assert list(lines[-1]["final"]) == unknown.split(",")


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
        # The model flags are only defaults for a data run, not the point the
        # data came from: no limit at them, only tau and the written file.
        rng = np.random.default_rng(9)
        data = tmp_path / "x.csv"
        write_series_csv(data, rng.standard_normal(2000) * 1.5)
        code, lines, _ = run_cli(
            capsys, ["adaptive", "--data", str(data), "--out", str(tmp_path)]
        )
        assert code == 0
        assert set(lines[-1]) == {"tau", "written"}
        assert (tmp_path / "adaptive.csv").exists()

    @pytest.mark.parametrize("source", ["simulated", "data"])
    def test_singular_flags(self, capsys, tmp_path, source):
        # At a = 0 the triple's information is singular. A simulated run is
        # scored at the flags and fails; a data run never evaluates them.
        out = tmp_path / "out"
        argv = ["adaptive", "--a", "0", "--unknown", "a,b,sigma2", "--out", str(out)]
        if source == "data":
            data = tmp_path / "x.csv"
            write_series_csv(data, simulate(REF, 2000, seed=3).x)
            argv += ["--data", str(data)]
        else:
            argv += ["--T", "2000"]
        code, lines, err = run_cli(capsys, argv)
        if source == "data":
            assert code == 0
            assert set(lines[-1]) == {"tau", "written"}
            assert (out / "adaptive.csv").exists()
        else:
            assert code == 1
            assert "singular" in err
            assert not out.exists()

    def test_s_star_limit_outside_b(self, capsys, tmp_path):
        code, lines, _ = run_cli(
            capsys, ["adaptive", "--T", "600", "--unknown", "f,a", "--out", str(tmp_path)]
        )
        assert code == 0
        assert lines[-1]["s_star_limit"] == s_star_limit(REF, ("f", "a"))

    @pytest.mark.parametrize("command", ["onestep", "adaptive"])
    def test_overflowing_information_exit_1(self, capsys, tmp_path, command):
        # P^2 overflows at sigma2 = 1e155: a typed error, not "OverflowError".
        argv = [command, "--T", "2000", "--a", "0.999", "--sigma2", "1e155", "--out", str(tmp_path)]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err.startswith("error: information for ('b',) overflows")


_SMALL_CONFIG = {
    "params": {"a": 0.5, "b": 1.0, "f": 1.0, "sigma2": 1.0},
    "problem": {"unknown": ["b"], "bounds": {"b": [0.1, 5.0]}},
    "horizons": [300],
    "replications": 3,
    "estimators": ["onestep"],
    "checkpoints": [1.0],
    "seed": 5,
}


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

    def test_inline_defaults_without_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, lines, _ = run_cli(capsys, ["montecarlo", "--T", "300", "--replications", "2"])
        assert code == 0
        assert lines[-1]["written"] == ["./report.csv", "./report.json"]
        with open(tmp_path / "report.json") as fh:
            config = json.load(fh)["config"]
        assert config["outputs"] == "."
        assert config["seed"] == 0

    def test_config_file_bad_outputs_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with open("config.json", "w") as fh:
            json.dump(dict(_SMALL_CONFIG, outputs=5), fh)
        code, _, err = run_cli(capsys, ["montecarlo", "--config", "config.json"])
        assert code == 2
        assert "outputs must be a directory path" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({k: v for k, v in _SMALL_CONFIG.items() if k != "params"}, "missing config fields ['params']"),
            (dict(_SMALL_CONFIG, horizons=300), "horizons must be a list"),
            (dict(_SMALL_CONFIG, problem=["b"]), "problem must be an object"),
            (dict(_SMALL_CONFIG, estimators="mme"), "estimators must be a list"),
            ([_SMALL_CONFIG], "must hold a JSON object"),
            (dict(_SMALL_CONFIG, delta="0.6"), "delta must be a real number"),
            (
                dict(_SMALL_CONFIG, problem=dict(_SMALL_CONFIG["problem"], known=[1])),
                "known must map coordinate names to values",
            ),
        ],
    )
    def test_config_file_bad_field_exit_2(self, capsys, tmp_path, doc, message):
        cfg_path = tmp_path / "config.json"
        with open(cfg_path, "w") as fh:
            json.dump(doc, fh)
        code, _, err = run_cli(capsys, ["montecarlo", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        assert message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_config_file_with_seed_override(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        with open(cfg_path, "w") as fh:
            json.dump(_SMALL_CONFIG, fh)
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

    def test_config_file_outputs_honored(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = dict(_SMALL_CONFIG, outputs="results_dir")
        with open("config.json", "w") as fh:
            json.dump(config, fh)
        code, lines, _ = run_cli(capsys, ["montecarlo", "--config", "config.json"])
        assert code == 0
        assert lines[-1]["written"] == ["results_dir/report.csv", "results_dir/report.json"]
        assert not (tmp_path / "report.json").exists()
        with open(tmp_path / "results_dir" / "report.json") as fh:
            assert json.load(fh)["config"]["outputs"] == "results_dir"
        # --out, when given, still overrides the file.
        code, lines, _ = run_cli(capsys, ["montecarlo", "--config", "config.json", "--out", "other"])
        assert code == 0
        assert (tmp_path / "other" / "report.json").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--T", "5000"),
            ("--replications", "7"),
            ("--estimators", "onestep"),
            ("--a", "0.3"),
            ("--delta", "0.6"),
        ],
    )
    def test_config_with_experiment_flag_exit_2(self, capsys, tmp_path, flag, value):
        cfg_path = tmp_path / "config.json"
        with open(cfg_path, "w") as fh:
            json.dump(_SMALL_CONFIG, fh)
        code, _, err = run_cli(
            capsys, ["montecarlo", "--config", str(cfg_path), "--out", str(tmp_path), flag, value]
        )
        assert code == 2
        assert f"{flag} cannot be combined with --config" in err
        assert not (tmp_path / "report.json").exists()

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
            (["--unknown", "a,f,sigma2", "--estimators", "onestep,mle"], "at most 2 unknowns"),
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

    def test_single_replication_stdout_is_strict_json(self, capsys, tmp_path):
        # With n = 1 a cell's var and ratio are undefined: null, never NaN.
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        argv = ["montecarlo", "--T", "300", "--replications", "1", "--estimators", "onestep"]
        code = main(argv + ["--out", str(tmp_path)])
        out = capsys.readouterr().out
        lines = [json.loads(line, parse_constant=reject) for line in out.splitlines()]
        assert code == 0
        cells = [line for line in lines if "estimator" in line]
        assert len(cells) == 2 and all(line["ratio"] is None for line in cells)

    def test_overflowing_information_exit_1(self, capsys, tmp_path):
        # P^2 overflows at sigma2 = 1e155: the report is written with one
        # FisherSingular row per replication, and the run exits 1.
        argv = ["montecarlo", "--T", "2000", "--replications", "2", "--a", "0.999", "--sigma2", "1e155"]
        code, _, err = run_cli(capsys, argv + ["--out", str(tmp_path)])
        assert code == 1
        assert "every replication failed" in err
        with open(tmp_path / "report.json") as fh:
            doc = json.load(fh)
        assert doc["cells"] == []
        messages = [row["message"] for row in doc["replications"]]
        assert len(messages) == 2 and all(m.startswith("FisherSingular: ") for m in messages)

    def test_every_replication_failed_exit_1(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness_mod, "one_step", broken)
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
