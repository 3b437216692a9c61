"""Parameter validation, stationary quantities, gradients, information."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from hidden_ar import (
    COORDINATES,
    ConditionA0Violated,
    FisherSingular,
    ForbiddenPair,
    ModelParams,
    ParamProblem,
    StationaryQuantities,
    UnsupportedCoordinate,
    UnsupportedSet,
    fisher_info,
    riccati_map,
    s_star_limit,
    stationary,
    stationary_from,
    stationary_gradient,
    validate,
)
from hidden_ar.model_core import _track_moments

from conftest import ALL_SETS, REF, REF_VALUES, random_params


def riccati_fixed_point(params: ModelParams) -> float:
    """Independent oracle: iterate the variance recursion to convergence.

    The stop rule is relative; near the fixed point the iterates can cycle
    by one ulp, which for large gamma exceeds any absolute threshold.
    """
    gamma = 0.0
    for _ in range(100000):
        nxt = riccati_map(params, gamma)
        if nxt == gamma or abs(nxt - gamma) < 1e-13 * max(1.0, abs(nxt)):
            return nxt
        gamma = nxt
    raise AssertionError("Riccati iteration did not converge")


def central_fd(fun, value: float, h: float) -> float:
    return (fun(value + h) - fun(value - h)) / (2.0 * h)


def assert_close_rel(got: float, want: float, rel: float, abs_tol: float = 1e-8):
    assert abs(got - want) <= max(abs_tol, rel * abs(want)), (got, want)


class TestModelParams:
    def test_accepts_reference_point(self):
        assert REF.as_dict() == {"a": 0.5, "b": 1.0, "f": 1.0, "sigma2": 1.0}

    @pytest.mark.parametrize(
        "changes",
        [
            {"a": 1.0},
            {"a": -1.0},
            {"a": 1.7},
            {"b": 0.0},
            {"b": -0.3},
            {"f": 0.0},
            {"sigma2": 0.0},
            {"sigma2": -1.0},
            {"a": float("nan")},
            {"b": float("inf")},
        ],
    )
    def test_rejects_inadmissible(self, changes):
        with pytest.raises(ConditionA0Violated):
            REF.replace(**changes)

    # Points that pass the A0 inequalities but overflow or underflow the
    # stationary filter in float64: f^2 underflows to 0, or gamma*, P or
    # the gain come out infinite or NaN.
    @pytest.mark.parametrize(
        "changes, coordinate",
        [({"f": 1e-200}, "f"), ({"f": 1e200}, "f"), ({"b": 1e200}, "b"), ({"sigma2": 1e300}, "sigma2")],
        ids=["tiny f", "huge f", "huge b", "huge sigma2"],
    )
    def test_rejects_points_the_filter_cannot_evaluate(self, changes, coordinate):
        with pytest.raises(ConditionA0Violated, match=f"^{coordinate}: ") as info:
            REF.replace(**changes)
        assert info.value.coordinate == coordinate

    @pytest.mark.parametrize("changes", [{"b": 1e-300}, {"sigma2": 1e-300}, {"a": 1e-300}])
    def test_tiny_values_stay_admissible(self, changes):
        sq = stationary(REF.replace(**changes))
        assert all(math.isfinite(v) for v in dataclasses.astuple(sq))

    def test_rejects_non_numeric(self):
        with pytest.raises(ConditionA0Violated):
            ModelParams(a=0.5, b="one", f=1.0, sigma2=1.0)
        with pytest.raises(ConditionA0Violated):
            ModelParams(a=True, b=1.0, f=1.0, sigma2=1.0)

    def test_replace_returns_new_point(self):
        other = REF.replace(b=2.0)
        assert other.b == 2.0 and REF.b == 1.0
        assert other.a == REF.a


class TestParamProblem:
    def test_canonical_order(self):
        prob = ParamProblem(
            unknown=("a", "f"), bounds={"f": (0.1, 5.0), "a": (-0.9, 0.9)}
        )
        assert prob.unknown == ("f", "a")
        assert prob.dim == 2

    def test_forbidden_pair(self):
        with pytest.raises(ForbiddenPair):
            ParamProblem(unknown=("f", "b"), bounds={"f": (0.1, 5.0), "b": (0.1, 5.0)})

    def test_unsupported_set(self):
        with pytest.raises(UnsupportedSet):
            ParamProblem(unknown=("a", "b"), bounds={"a": (-0.9, 0.9), "b": (0.1, 5.0)})

    def test_duplicate_coordinate(self):
        with pytest.raises(UnsupportedSet):
            ParamProblem(unknown=("b", "b"), bounds={"b": (0.1, 5.0)})

    def test_unknown_name_rejected(self):
        with pytest.raises(UnsupportedSet):
            ParamProblem(unknown=("c",), bounds={"c": (0.1, 5.0)})

    def test_missing_bounds(self):
        with pytest.raises(ValueError):
            ParamProblem(unknown=("b",), bounds={})

    def test_extra_bounds(self):
        with pytest.raises(ValueError):
            ParamProblem(unknown=("b",), bounds={"b": (0.1, 5.0), "f": (0.1, 5.0)})

    def test_inadmissible_bounds(self):
        with pytest.raises(ConditionA0Violated):
            ParamProblem(unknown=("a",), bounds={"a": (-1.2, 0.5)})
        with pytest.raises(ConditionA0Violated):
            ParamProblem(unknown=("b",), bounds={"b": (-0.1, 5.0)})
        with pytest.raises(ConditionA0Violated):
            ParamProblem(unknown=("f",), bounds={"f": (-1.0, 1.0)})

    def test_rejects_a_box_the_filter_cannot_evaluate(self):
        # f^2 underflows to 0 at the f corners; a complete problem says so
        # when built, an incomplete one when validate completes it.
        bounds = {"f": (1e-200, 2e-200), "a": (0.0, 1e-130)}
        with pytest.raises(ConditionA0Violated, match=r"^f: at the bounds point \(1e-200, 0.0\)") as info:
            ParamProblem(unknown=("f", "a"), bounds=bounds, known={"b": 1.0, "sigma2": 1.0})
        assert info.value.coordinate == "f"
        problem = ParamProblem(unknown=("f", "a"), bounds=bounds)
        with pytest.raises(ConditionA0Violated, match="^f: "):
            validate(REF, problem)
        with pytest.raises(ConditionA0Violated, match="^b: "):
            validate(REF, ParamProblem(unknown=("b",), bounds={"b": (0.1, 1e200)}))
        # Every corner of this box is admissible, but at a = 0, where
        # c = sigma2 (1 - a^2) / f^2 - b^2 is largest, c^2 overflows.
        with pytest.raises(ConditionA0Violated, match=r"^f: at the bounds point \(5e-78, 0.0\)"):
            ParamProblem(unknown=("f", "a"), bounds={"f": (5e-78, 1.0), "a": (-0.9, 0.9)}, known={"b": 1.0, "sigma2": 1.0})
        # Tiny b and sigma2 corners stay admissible.
        for name in ("b", "sigma2"):
            assert validate(REF, ParamProblem(unknown=(name,), bounds={name: (1e-300, 5.0)})).is_complete()

    def test_known_conflicts(self):
        with pytest.raises(ValueError):
            ParamProblem(unknown=("b",), bounds={"b": (0.1, 5.0)}, known={"b": 1.0})
        with pytest.raises(ValueError):
            ParamProblem(unknown=("b",), bounds={"b": (0.1, 5.0)}, known={"zz": 1.0})
        for bad in ("0.5", True):
            with pytest.raises(ValueError, match="known value of a must be a real number"):
                ParamProblem(unknown=("b",), bounds={"b": (0.1, 5.0)}, known={"a": bad})

    def test_non_mapping_fields_rejected(self):
        for bad in ([1], "a", (("a", 0.5),)):
            with pytest.raises(ValueError, match="known must map coordinate names"):
                ParamProblem(unknown=("b",), bounds={"b": (0.1, 5.0)}, known=bad)
        for bad in ([(0.1, 5.0)], None):
            with pytest.raises(ValueError, match="bounds must map coordinate names"):
                ParamProblem(unknown=("b",), bounds=bad)
        # An omitted known (None or empty) is filled by validate later.
        assert ParamProblem(unknown=("b",), bounds={"b": (0.1, 5.0)}, known=None).known == {}

    def test_malformed_unknown_and_bounds_rejected(self):
        for bad in (None, 5, 1.5):
            with pytest.raises(ValueError, match="unknown must be a coordinate name or a list"):
                ParamProblem(unknown=bad, bounds={"b": (0.1, 5.0)})
        for bad in (5, (0.1, 1.0, 2.0), (0.1,), "0.1:5", None):
            with pytest.raises(ValueError, match="bounds of b must be a \\(lo, hi\\) pair"):
                ParamProblem(unknown=("b",), bounds={"b": bad})

    def test_point_and_values_roundtrip(self, problem_fa):
        params = problem_fa.point(np.array([1.3, -0.2]))
        assert params.f == 1.3 and params.a == -0.2
        assert params.b == 1.0 and params.sigma2 == 1.0
        np.testing.assert_array_equal(
            problem_fa.values_of(params), np.array([1.3, -0.2])
        )

    def test_coordinates_merge_floats_and_columns(self, problem_fa):
        assert problem_fa.coordinates((1.3, -0.2)) == {"a": -0.2, "b": 1.0, "f": 1.3, "sigma2": 1.0}
        block = np.array([[1.3, -0.2], [2.0, 0.4], [0.7, 0.1]])
        coords = problem_fa.coordinates(block.T)
        assert coords["b"] == 1.0 and coords["sigma2"] == 1.0
        np.testing.assert_array_equal(coords["f"], block[:, 0])
        np.testing.assert_array_equal(coords["a"], block[:, 1])

    def test_clip(self, problem_fa):
        values, side = problem_fa.clip(np.array([7.0, -0.95]))
        np.testing.assert_array_equal(values, np.array([5.0, -0.9]))
        assert side.dtype == np.int8
        np.testing.assert_array_equal(side, np.array([1, -1]))
        values, side = problem_fa.clip(np.array([1.0, 0.0]))
        np.testing.assert_array_equal(side, np.array([0, 0]))
        np.testing.assert_array_equal(values, np.array([1.0, 0.0]))
        # NaN goes to the lower bound and counts as raised.
        values, side = problem_fa.clip(np.array([np.nan, 0.95]))
        np.testing.assert_array_equal(values, np.array([0.1, 0.9]))
        np.testing.assert_array_equal(side, np.array([-1, 1]))
        with pytest.raises(ValueError):
            problem_fa.clip(np.array([1.0, 0.0, 0.5]))

    def test_clip_block_equals_rows(self, problem_fa):
        rng = np.random.default_rng(7)
        block = np.column_stack([rng.uniform(-1.0, 7.0, 50), rng.uniform(-1.2, 1.2, 50)])
        block[3, 0] = np.nan
        block[8] = [0.1, 0.9]  # exactly on the bounds: not moved
        values, side = problem_fa.clip(block)
        assert values.shape == block.shape and side.shape == block.shape
        for i, row in enumerate(block):
            row_values, row_side = problem_fa.clip(row)
            np.testing.assert_array_equal(values[i], row_values)
            np.testing.assert_array_equal(side[i], row_side)
        assert side[3, 0] == -1 and not side[8].any()
        assert (side != 0).any(axis=1).sum() > 10

    def test_validate_fills_known(self):
        prob = ParamProblem(unknown=("b",), bounds={"b": (0.1, 5.0)})
        assert prob.known == {}
        assert not prob.is_complete()
        full = validate(REF, prob)
        assert full.known == {"a": 0.5, "f": 1.0, "sigma2": 1.0}
        assert full.is_complete()
        full.require_complete()

    def test_require_complete_raises(self):
        prob = ParamProblem(unknown=("b",), bounds={"b": (0.1, 5.0)})
        with pytest.raises(ValueError):
            prob.require_complete()


class TestStationary:
    def test_reference_values(self):
        sq = stationary(REF)
        assert_close_rel(sq.gamma_star, REF_VALUES["gamma_star"], 1e-14)
        assert_close_rel(sq.p, REF_VALUES["p"], 1e-14)
        assert_close_rel(sq.a_coef, REF_VALUES["a_coef"], 1e-14)
        assert sq.big_gamma == REF.f * REF.f * sq.gamma_star
        assert sq.p == REF.sigma2 + sq.big_gamma

    def test_fixed_point_against_iteration(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            params = random_params(rng)
            sq = stationary(params)
            oracle = riccati_fixed_point(params)
            assert_close_rel(sq.gamma_star, oracle, 1e-9)
            residual = riccati_map(params, sq.gamma_star) - sq.gamma_star
            assert abs(residual) < 1e-10 * max(1.0, sq.gamma_star)
            assert abs(sq.a_coef) < 1.0
            assert sq.gamma_star > 0.0

    @pytest.mark.parametrize("b", [1e-4, 1e-8, 1e-10])
    def test_root_is_a_fixed_point_for_small_b(self, b):
        # With 4d << c^2 the form (sqrt(c^2 + 4d) - c)/2 cancels: at b = 1e-10
        # it gave gamma* = 0. The root is a fixed point of the recursion to
        # rounding, on the float and the array path alike.
        params = REF.replace(b=b)
        gamma = stationary(params).gamma_star
        assert abs(riccati_map(params, gamma) - gamma) / gamma < 1e-12
        columns = {name: np.array([getattr(params, name)]) for name in COORDINATES}
        assert stationary_from(**columns).gamma_star[0] == gamma

    def test_riccati_map_for_large_gamma(self):
        # a^2 sigma2 gamma / (sigma2 + f^2 gamma) + b^2 tends to a^2 sigma2 / f^2 + b^2
        # = 1.25 at REF; the expanded form gave 1.0 at 1e16 and 0.0 at 1e150.
        for gamma in (1e16, 1e150, 1e300):
            assert riccati_map(REF, gamma) == 1.25

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "params, gamma",
        [
            # a^2 sigma2 gamma overflows: the map returned inf.
            pytest.param(REF.replace(a=0.999, sigma2=1e154), 1e300, id="sigma2-gamma-overflows"),
            # sigma2 + f^2 gamma overflows: the fraction read 0.
            pytest.param(REF.replace(f=1e10), 1e290, id="f2-gamma-overflows"),
            pytest.param(REF.replace(f=1e10), 0.0, id="gamma-0"),
            pytest.param(REF, 1e300, id="REF"),
        ],
    )
    def test_riccati_map_against_mpmath(self, params, gamma):
        # Above _large_variance the map is divided through by gamma; it
        # neither overflows nor warns, and at gamma = 0 it is b^2.
        with mpmath.workdps(60):
            a, b, f, s2, g = map(mpmath.mpf, (params.a, params.b, params.f, params.sigma2, gamma))
            want = float(a * a * s2 * g / (s2 + f * f * g) + b * b)
        assert riccati_map(params, gamma) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_array_function_matches_scalar(self):
        rng = np.random.default_rng(103)
        points = [random_params(rng) for _ in range(200)]
        columns = {name: np.array([getattr(p, name) for p in points]) for name in COORDINATES}
        block = stationary_from(**columns)
        for field in dataclasses.fields(StationaryQuantities):
            want = np.array([getattr(stationary(p), field.name) for p in points])
            assert np.array_equal(getattr(block, field.name), want), field.name
        # E = a Gamma / P and B = a Gamma / sqrt(P) are formed from the fields
        # by their users (B in _track_moments); they match bit for bit too.
        derived = {
            "E": lambda a, sq, sqrt: a * sq.big_gamma / sq.p,
            "B": lambda a, sq, sqrt: a * sq.big_gamma / sqrt(sq.p),
        }
        for name, form in derived.items():
            want = np.array([form(p.a, stationary(p), math.sqrt) for p in points])
            assert np.array_equal(form(columns["a"], block, np.sqrt), want), name
        # A float coordinate broadcasts against the array ones.
        mixed = stationary_from(**dict(columns, sigma2=1.0))
        want = np.array([stationary(p.replace(sigma2=1.0)).gain for p in points])
        assert np.array_equal(mixed.gain, want)

    def test_scalar_path_stays_on_floats(self):
        sq = stationary(REF)
        for field in dataclasses.fields(StationaryQuantities):
            assert type(getattr(sq, field.name)) is float, field.name

    def test_coefficient_identities(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            params = random_params(rng)
            sq = stationary(params)
            e_coef = params.a * sq.big_gamma / sq.p
            # A + E = a exactly in real arithmetic.
            assert abs(sq.a_coef + e_coef - params.a) < 1e-12
            # e = E / f in real arithmetic.
            assert_close_rel(sq.gain, e_coef / params.f, 1e-12)
            # _track_moments forms B = a Gamma / sqrt(P): mu = B^2 / (1 - a^2).
            b_coef = params.a * sq.big_gamma / math.sqrt(sq.p)
            mu = _track_moments(params, ("b",))[4]
            assert mu == b_coef * b_coef / (1.0 - params.a * params.a)


class TestStationaryGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            params = random_params(rng)
            for wrt in ("b", "f", "a", "sigma2"):
                grad = stationary_gradient(params, wrt)
                v = getattr(params, wrt)
                h = 1e-5 * max(1.0, abs(v))

                def at(x, field):
                    sq = stationary(params.replace(**{wrt: x}))
                    if field == "gain":
                        return (
                            params.replace(**{wrt: x}).a
                            * params.replace(**{wrt: x}).f
                            * sq.gamma_star
                            / sq.p
                        )
                    return getattr(sq, field)

                assert_close_rel(
                    grad.d_gamma_star, central_fd(lambda x: at(x, "gamma_star"), v, h), 1e-5
                )
                assert_close_rel(grad.d_p, central_fd(lambda x: at(x, "p"), v, h), 1e-5)
                assert_close_rel(
                    grad.d_a_coef, central_fd(lambda x: at(x, "a_coef"), v, h), 1e-5
                )
                assert_close_rel(
                    grad.d_gain, central_fd(lambda x: at(x, "gain"), v, h), 1e-5
                )
                # The innovation-response sensitivity is sqrt(P) times the
                # gain derivative by definition; check the identity exactly.
                sq0 = stationary(params)
                assert_close_rel(grad.d_b_coef, math.sqrt(sq0.p) * grad.d_gain, 1e-12)

    def test_b_coef_closed_form_for_b(self):
        rng = np.random.default_rng(104)
        for _ in range(50):
            params = random_params(rng)
            grad = stationary_gradient(params, "b")
            sq = stationary(params)
            want = (
                params.a
                * params.f
                * params.sigma2
                * grad.d_gamma_star
                / sq.p ** 1.5
            )
            assert_close_rel(grad.d_b_coef, want, 1e-12)

    def test_unknown_coordinate_rejected(self):
        with pytest.raises(UnsupportedCoordinate):
            stationary_gradient(REF, "zz")


class TestFisherInfo:
    def test_reference_values(self):
        info_b = fisher_info(REF, ("b",))
        assert_close_rel(info_b[0, 0], REF_VALUES["info_b"], 1e-13)
        assert_close_rel(np.linalg.inv(info_b)[0, 0], REF_VALUES["inv_info_b"], 1e-13)
        info_f = fisher_info(REF, ("f",))
        assert_close_rel(info_f[0, 0], REF_VALUES["info_b"], 1e-13)  # b=f=1 symmetry
        info_a = fisher_info(REF, ("a",))
        assert_close_rel(info_a[0, 0], REF_VALUES["info_a"], 1e-13)
        for info in (info_b, info_f, info_a):
            assert info.shape == (1, 1)
        pair = fisher_info(REF, ("f", "a"))
        assert pair.shape == (2, 2)
        assert_close_rel(pair[0, 0], REF_VALUES["info_b"], 1e-13)
        assert_close_rel(pair[1, 1], REF_VALUES["info_a"], 1e-13)
        assert_close_rel(pair[0, 1], REF_VALUES["info_fa_offdiag"], 1e-13)
        assert pair[0, 1] == pair[1, 0]

    def test_scalar_matches_matrix_and_helper(self):
        rng = np.random.default_rng(105)
        for _ in range(50):
            params = random_params(rng)
            for unknown in (("f", "a"), ("a", "f", "sigma2"), ("a", "b", "sigma2")):
                matrix = fisher_info(params, unknown)
                # One function computes every entry, so each diagonal entry
                # is that coordinate's scalar information bit for bit.
                for k, coord in enumerate(unknown):
                    assert matrix[k, k] == fisher_info(params, (coord,))[0, 0]
                # Positive definiteness.
                assert np.linalg.eigvalsh(matrix).min() > 0.0

    def test_unsupported_sets(self):
        # Supported sets given out of canonical order, the unidentifiable
        # pair and sets ParamProblem does not accept.
        for unknown in (("a", "f"), ("b", "f"), ("sigma2", "a", "f"), ("a", "b"), ("b", "sigma2"), ("zz",)):
            with pytest.raises(UnsupportedSet):
                fisher_info(REF, unknown)

    def test_list_form_of_each_set(self):
        # A list in canonical order is read as its tuple, bit for bit.
        for unknown in ALL_SETS:
            np.testing.assert_array_equal(fisher_info(REF, list(unknown)), fisher_info(REF, unknown))
            assert s_star_limit(REF, list(unknown)) == s_star_limit(REF, unknown)
        for unknown in (["a", "f"], ["sigma2", "a", "f"], ["a", "b"]):
            with pytest.raises(UnsupportedSet):
                fisher_info(REF, unknown)

    def test_matches_whittle_spectral_formula(self):
        # Independent oracle: for a stationary Gaussian series with spectral
        # density S, Whittle's formula gives the information per observation
        #     I_ij = (1/4pi) int_{-pi}^{pi} d_iS d_jS / S^2 dw,
        # here with S(w) = f^2 b^2 / |1 - a e^{-iw}|^2 + sigma2. The integrand
        # is smooth and 2pi-periodic, so the trapezoid rule on equally spaced
        # nodes (equal weights) converges geometrically.
        w = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        cos = np.cos(w)
        rng = np.random.default_rng(108)
        for _ in range(300):
            params = random_params(rng)
            a, b, f = params.a, params.b, params.f
            d = 1.0 - 2.0 * a * cos + a * a
            spec = f * f * b * b / d + params.sigma2
            d_spec = {
                "b": 2.0 * f * f * b / d,
                "f": 2.0 * f * b * b / d,
                "a": f * f * b * b * (2.0 * cos - 2.0 * a) / (d * d),
                "sigma2": 1.0,
            }
            for unknown in ALL_SETS:
                want = np.array(
                    [[np.mean(d_spec[i] * d_spec[j] / (spec * spec)) / 2.0 for j in unknown] for i in unknown]
                )
                try:
                    got = fisher_info(params, unknown)
                except FisherSingular:
                    # Near a = 0 the series is almost white noise, whose law
                    # pins the triples' coordinates only through Var(X).
                    assert len(unknown) == 3 and np.linalg.cond(want) > 1e10, (params, unknown)
                    continue
                scale = np.sqrt(np.outer(np.diag(got), np.diag(got)))
                assert (np.abs(got - want) <= 1e-10 * scale).all(), (params, unknown, got, want)

    def test_singularity_rule_is_scale_free(self):
        # The cutoff is on det/trace^dim, which has degree 0 in I: a
        # triple's verdict follows its conditioning, not its scale.
        accepted = ModelParams(a=-0.725, b=0.258, f=0.052, sigma2=0.083)
        info = fisher_info(accepted, ("a", "b", "sigma2"))
        assert np.linalg.cond(info) < 1e7
        rejected = ModelParams(a=0.043, b=0.121, f=0.242, sigma2=19.646)
        with pytest.raises(FisherSingular):
            fisher_info(rejected, ("a", "b", "sigma2"))

    @pytest.mark.parametrize("unknown", ALL_SETS)
    def test_overflowing_prediction_variance_is_singular(self, unknown):
        # The point is admissible, but P^2 overflows; (a sigma2)^2 raised a
        # bare OverflowError before the guard.
        params = ModelParams(a=0.999, b=1.0, f=1.0, sigma2=1e155)
        with pytest.raises(FisherSingular, match="overflows"):
            fisher_info(params, unknown)
        with pytest.raises(FisherSingular, match="overflows"):
            s_star_limit(params, unknown)

    def test_positive_on_admissible_points(self):
        # The scalar informations stay strictly positive over the admissible
        # region (they vanish only in the b -> 0 or degenerate-float limits).
        rng = np.random.default_rng(106)
        for _ in range(50):
            params = random_params(rng)
            for coord in COORDINATES:
                assert fisher_info(params, (coord,))[0, 0] > 0.0

    def test_all_coordinates_present(self):
        assert COORDINATES == ("a", "b", "f", "sigma2")
