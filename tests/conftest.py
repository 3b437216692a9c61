"""Shared fixtures: the reference parameter point, standard problems, and
a random admissible-parameter generator used by the property suites."""

import csv

import numpy as np
import pytest

from hidden_ar import ModelParams, ParamProblem, fisher_info, stationary_from
from hidden_ar.onestep import _score_increments

# Every unknown set ParamProblem accepts, in canonical order.
ALL_SETS = (("b",), ("f",), ("a",), ("sigma2",), ("f", "a"), ("a", "f", "sigma2"), ("a", "b", "sigma2"))

# Reference point used throughout the verification experiments.
REF = ModelParams(a=0.5, b=1.0, f=1.0, sigma2=1.0)

# Closed-form values at REF, computed independently (quadratic for gamma*,
# then the information formulas evaluated by hand).
REF_VALUES = {
    "gamma_star": 1.1327822185373186,
    "p": 2.1327822185373186,
    "a_coef": 0.2344355629253626,
    "info_b": 0.5495692855644929,
    "inv_info_b": 1.8196067834701586,
    "info_a": 0.6211186967479703,
    "info_fa_offdiag": 0.2940453427268868,
    "s_star_sq": 0.22222222222222218,
    "phi": (10.0 / 3.0, -4.0 / 3.0, -1.0 / 6.0),
}


def random_params(rng: np.random.Generator, a_min: float = 0.0) -> ModelParams:
    """Draw an admissible point with coordinates of moderate size.

    a_min > 0 keeps |a| away from zero for inversions with an a*(a-1) pole.
    """
    a = float(rng.uniform(a_min, 0.9)) * float(rng.choice([-1.0, 1.0]))
    b = float(rng.uniform(0.2, 2.5))
    f = float(rng.uniform(0.2, 2.5))
    sigma2 = float(rng.uniform(0.2, 2.5))
    return ModelParams(a=a, b=b, f=f, sigma2=sigma2)


def problem_for(params: ModelParams, unknown, margin: float = 4.0) -> ParamProblem:
    """A problem whose bounds comfortably contain the given point."""
    names = (unknown,) if isinstance(unknown, str) else tuple(unknown)
    bounds = {}
    for name in names:
        value = getattr(params, name)
        if name == "a":
            bounds[name] = (-0.99, 0.99)
        elif name == "f":
            lo, hi = (0.01, margin * abs(value))
            bounds[name] = (lo, hi) if value > 0 else (-hi, -lo)
        else:
            bounds[name] = (min(0.01, value / margin), margin * value)
    known = {
        name: getattr(params, name)
        for name in ("a", "b", "f", "sigma2")
        if name not in names
    }
    return ParamProblem(unknown=names, bounds=bounds, known=known)


def recursion_loop(a_coef, drive) -> np.ndarray:
    """m_t = a_coef_t m_{t-1} + drive_t from m_0 = 0, one Python step at a
    time: the oracle for the adaptive filter's bidiagonal solve."""
    m = []
    prev = 0.0
    for a, d in zip(a_coef.tolist(), drive.tolist()):
        prev = a * prev + d
        m.append(prev)
    return np.array(m)


def plugged_recursion(trace, x) -> np.ndarray:
    """recursion_loop on an adaptive trace's own plug-in values."""
    sq = stationary_from(**trace.problem.coordinates(trace.theta_plug.T))
    return recursion_loop(sq.a_coef, sq.gain * x[trace.tau + 1 :])


def running_update(trace, x, problem) -> tuple[np.ndarray, np.ndarray]:
    """A one-step trace's path and clipped flags rebuilt from its own tau and
    preliminary by the running update

        u_t = u_{t-1} + (I^{-1} g_t - u_{t-1}) / (t - tau),   u_tau = 0,

    one Python step at a time: the oracle for one_step's cumulative sums."""
    params = problem.point(trace.prelim)
    inv = np.linalg.inv(fisher_info(params, problem.unknown))
    corr = _score_increments(params, x, trace.tau, problem.unknown) @ inv
    u = []
    prev = np.zeros(problem.dim)
    for step, c in enumerate(corr, start=1):
        prev = prev + (c - prev) / step
        u.append(prev)
    path, side = problem.clip(trace.prelim + np.array(u[1:]))  # t = tau+2 .. T
    return path, side.any(axis=1)


def write_series_csv(path, values):
    """An observation file as the CLI's --data flag reads it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x"])
        for t, v in enumerate(values):
            writer.writerow([t, repr(float(v))])


@pytest.fixture
def ref_params() -> ModelParams:
    return REF


@pytest.fixture
def problem_b() -> ParamProblem:
    return ParamProblem(
        unknown=("b",),
        bounds={"b": (0.1, 5.0)},
        known={"a": 0.5, "f": 1.0, "sigma2": 1.0},
    )


@pytest.fixture
def problem_f() -> ParamProblem:
    return ParamProblem(
        unknown=("f",),
        bounds={"f": (0.1, 5.0)},
        known={"a": 0.5, "b": 1.0, "sigma2": 1.0},
    )


@pytest.fixture
def problem_a() -> ParamProblem:
    return ParamProblem(
        unknown=("a",),
        bounds={"a": (-0.9, 0.9)},
        known={"b": 1.0, "f": 1.0, "sigma2": 1.0},
    )


@pytest.fixture
def problem_fa() -> ParamProblem:
    return ParamProblem(
        unknown=("f", "a"),
        bounds={"f": (0.1, 5.0), "a": (-0.9, 0.9)},
        known={"b": 1.0, "sigma2": 1.0},
    )


# One line per acceptance criterion, echoed after the run summary so the
# verdicts survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
