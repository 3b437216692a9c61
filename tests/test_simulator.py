"""Trajectory generation: determinism, stream independence, moments, CSV."""

import csv

import numpy as np
import pytest

from hidden_ar import InvalidSeed, ZeroHorizon, simulate
from hidden_ar.cli import main

from conftest import REF


class TestSimulate:
    def test_shapes_and_horizon(self):
        traj = simulate(REF, 50, seed=1)
        assert traj.horizon == 50
        assert len(traj.x) == 51
        assert len(traj.y) == 51
        assert traj.seed == 1 and traj.stream == 0
        assert traj.params == REF

    def test_zero_horizon_rejected(self):
        with pytest.raises(ZeroHorizon):
            simulate(REF, 0, seed=1)
        with pytest.raises(ZeroHorizon):
            simulate(REF, -3, seed=1)

    def test_whole_horizon_required(self):
        # A fractional or boolean horizon is an error, never truncated.
        for bad in (10.7, True):
            with pytest.raises(ValueError):
                simulate(REF, bad, seed=1)
        assert simulate(REF, 12.0, seed=1).horizon == 12

    def test_seed_and_stream_outside_key_range_rejected(self):
        for seed, stream in ((-1, 0), (2**64, 0), (0, -1), (0, 2**64)):
            with pytest.raises(InvalidSeed):
                simulate(REF, 10, seed=seed, stream=stream)
        simulate(REF, 10, seed=2**64 - 1, stream=2**64 - 1)

    def test_deterministic_by_seed_and_stream(self):
        one = simulate(REF, 100, seed=7, stream=3)
        two = simulate(REF, 100, seed=7, stream=3)
        np.testing.assert_array_equal(one.x, two.x)
        np.testing.assert_array_equal(one.y, two.y)

    def test_streams_differ(self):
        one = simulate(REF, 100, seed=7, stream=0)
        two = simulate(REF, 100, seed=7, stream=1)
        other_seed = simulate(REF, 100, seed=8, stream=0)
        assert not np.array_equal(one.x, two.x)
        assert not np.array_equal(one.x, other_seed.x)

    def test_keep_hidden_does_not_change_x(self):
        with_y = simulate(REF, 200, seed=5, stream=2)
        without_y = simulate(REF, 200, seed=5, stream=2, keep_hidden=False)
        assert without_y.y is None
        np.testing.assert_array_equal(with_y.x, without_y.x)

    def test_prefix_property(self):
        # A longer horizon extends the path; the draw layout is one block of
        # 2T+3 normals, so prefixes are not required to match across T. This
        # pins the layout instead: the same (seed, stream, T) always yields
        # the same block.
        a = simulate(REF, 64, seed=9, stream=4)
        b = simulate(REF, 64, seed=9, stream=4)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_stationary_moments(self):
        # Var(Y) = b^2/(1-a^2), Var(X) = f^2*Var(Y) + sigma2,
        # Cov(X_t, X_{t+1}) = f^2*a*Var(Y) (X_t = f*Y_{t-1} + noise).
        traj = simulate(REF, 400000, seed=11)
        x, y = traj.x, traj.y
        var_y = REF.b**2 / (1.0 - REF.a**2)
        var_x = REF.f**2 * var_y + REF.sigma2
        assert abs(y.var() - var_y) < 0.03 * var_y
        assert abs(x.var() - var_x) < 0.03 * var_x
        assert abs(x.mean()) < 0.02
        cov1 = float(np.mean(x[1:] * x[:-1]) - x.mean() ** 2)
        assert abs(cov1 - REF.f**2 * REF.a * var_y) < 0.05 * var_y

    def test_observation_equation(self):
        # x_t - f*y_{t-1} must be i.i.d. N(0, sigma2) given the hidden path.
        traj = simulate(REF, 200000, seed=12)
        w = traj.x[1:] - REF.f * traj.y[:-1]
        assert abs(w.mean()) < 0.01
        assert abs(w.var() - REF.sigma2) < 0.02
        corr = float(np.mean(w[1:] * w[:-1]))
        assert abs(corr) < 0.01


class TestTrajectoryCsv:
    def test_roundtrip(self, tmp_path):
        traj = simulate(REF, 20, seed=3)
        assert main(["simulate", "--T", "20", "--seed", "3", "--out", str(tmp_path)]) == 0
        path = tmp_path / "trajectory.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21
        got_x = np.array([float(r["x"]) for r in rows])
        got_y = np.array([float(r["y"]) for r in rows])
        np.testing.assert_allclose(got_x, traj.x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_y, traj.y, rtol=0, atol=1e-12)

    def test_hidden_column_blank_when_dropped(self, tmp_path):
        argv = ["simulate", "--T", "20", "--seed", "3", "--no-hidden", "--out", str(tmp_path)]
        assert main(argv) == 0
        path = tmp_path / "trajectory.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["y"] == "" for r in rows)
        assert all(r["x"] != "" for r in rows)
