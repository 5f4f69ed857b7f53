import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdepca.model import (
    DissipativityParams,
    SdepcaProblem,
    check_ergodicity_condition,
    check_moment_condition,
    contraction_rates,
    probe_dissipativity,
)
from sdepca.problems import (
    BUILTINS,
    cubic_multiplicative,
    cubic_multiplicative_dissipativity,
    default_dissipativity,
    linear_additive,
    linear_additive_dissipativity,
    make_problem,
)


def params(l1, l2, l3, f00=0.0, g00=0.0):
    return DissipativityParams(l1, l2, l3, f00, g00)


class TestConditions:
    def test_ergodicity_cubic_constants(self):
        assert check_ergodicity_condition(params(10, 4, 2)) is True

    def test_ergodicity_all_ones(self):
        assert check_ergodicity_condition(params(1, 1, 1)) is False

    def test_ergodicity_boundary_is_strict(self):
        assert check_ergodicity_condition(params(4, 1, 1)) is False

    def test_moment_condition_p1(self):
        assert check_moment_condition(params(10, 4, 2), 1) is True

    def test_moment_condition_p2_fails(self):
        assert check_moment_condition(params(10, 4, 2), 2) is False

    def test_moment_condition_small_lambda3(self):
        assert check_moment_condition(params(10, 4, 0.01), 4) is True

    def test_moment_condition_rejects_p0(self):
        with pytest.raises(ValueError):
            check_moment_condition(params(10, 4, 2), 0)

    @given(
        l1=st.floats(0.1, 50),
        l2=st.floats(1e-6, 20),
        l3=st.floats(1e-6, 20),
    )
    def test_p1_reduces_to_ergodicity(self, l1, l2, l3):
        p = params(l1, l2, l3)
        assert check_moment_condition(p, 1) == check_ergodicity_condition(p)

    def test_lambda_positivity_enforced(self):
        with pytest.raises(ValueError):
            DissipativityParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DissipativityParams(1.0, 1.0, 1.0, f00_norm_sq=-1.0)

    @pytest.mark.parametrize(
        "field", ["lambda1", "lambda2", "lambda3", "f00_norm_sq", "g00_norm_sq"]
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_constants_must_be_finite(self, field, value):
        values = dict(lambda1=1.0, lambda2=1.0, lambda3=1.0, f00_norm_sq=0.0, g00_norm_sq=0.0)
        values[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}"):
            DissipativityParams(**values)


class TestContractionRates:
    def test_weakly_coupled_scalar_case(self):
        # near-pure mean reversion: alpha ~ 5, r(1) ~ e^-5
        r = contraction_rates(params(3.0, 1e-9, 1e-9), 1)
        assert r.alpha == pytest.approx(5.0, rel=1e-8)
        assert r.beta == pytest.approx(4e-9, rel=1e-12)
        assert r.r_one == pytest.approx(math.exp(-5.0), rel=1e-6)

    def test_cubic_constants_half_step(self):
        r = contraction_rates(params(10, 4, 2), 2)
        assert r.alpha2 == pytest.approx(17.0 / 10.5, rel=1e-14)
        assert r.beta2 == pytest.approx(6.0 / 10.5, rel=1e-14)
        ratio = r.beta2 / r.alpha2
        expected = ratio + (1.0 - ratio) * math.exp(-17.0 / 10.5)
        assert r.rbar1_block == pytest.approx(expected, rel=1e-14)

    def test_fields_match_independent_evaluation(self):
        l1, l2, l3, f00, g00 = 6.0, 1.5, 0.5, 0.3, 0.7
        m = 8
        delta = 1.0 / m
        r = contraction_rates(params(l1, l2, l3, f00, g00), m)
        denom = 1.0 + (2 * l1 - 1) * delta
        assert r.alpha == 2 * l1 - 2 * l3 - 1
        assert r.beta == 2 * (l2 + l3)
        assert r.gamma == 2 * (f00 + g00)
        assert r.alpha1 == pytest.approx((2 * l1 - 2 * l3 - 1) / denom, rel=1e-14)
        assert r.beta1 == pytest.approx(2 * (l2 + l3) / denom, rel=1e-14)
        assert r.gamma1 == pytest.approx(2 * (f00 + g00) / denom, rel=1e-14)
        assert r.alpha2 == pytest.approx((2 * l1 - l3 - 1) / denom, rel=1e-14)
        assert r.beta2 == pytest.approx((l2 + l3) / denom, rel=1e-14)
        assert r.rbar_one == pytest.approx(
            r.beta / (2 * r.alpha) + (1 - r.beta / (2 * r.alpha)) * math.exp(-r.alpha),
            rel=1e-14,
        )

    @given(
        l1=st.floats(1.2, 40),
        l2=st.floats(1e-6, 5),
        l3=st.floats(1e-6, 5),
        log2m=st.integers(0, 10),
    )
    @settings(max_examples=200)
    def test_block_factor_in_unit_interval(self, l1, l2, l3, log2m):
        p = params(l1, l2, l3)
        if not check_ergodicity_condition(p):
            return
        m = 2**log2m
        r = contraction_rates(p, m)
        assert 0.0 < r.beta / r.alpha < 1.0
        assert 0.0 < r.r_one < 1.0
        assert 0.0 < r.rbar1_block < 1.0

    def test_rbar1_strictly_decreasing_in_l(self):
        r = contraction_rates(params(10, 4, 2), 16)
        values = [r.rbar1_at(l) for l in range(16)]
        assert all(0.0 < v < 1.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(r.rbar1_block, rel=1e-14)

    def test_r1_at_matches_block_constants(self):
        r = contraction_rates(params(10, 4, 2), 4)
        ratio = r.beta1 / r.alpha1
        assert r.r1_at(2) == pytest.approx(
            ratio + (1 - ratio) * math.exp(-r.alpha1 * 3 * 0.25), rel=1e-14
        )

    def test_rejects_violated_preconditions(self):
        with pytest.raises(ValueError):
            contraction_rates(params(1, 1, 1), 2)  # not ergodic
        with pytest.raises(ValueError, match="^m must be a positive integer, got 0"):
            contraction_rates(params(10, 4, 2), 0)

    def test_deterministic_and_pure(self):
        p = params(10, 4, 2, 1.0, 0.0)
        assert contraction_rates(p, 8) == contraction_rates(p, 8)


class TestProbe:
    def test_cubic_constants_hold_on_ball(self):
        problem = cubic_multiplicative(1.0, 1.0)
        report = probe_dissipativity(
            problem, cubic_multiplicative_dissipativity(1.0, 1.0), 10_000, 5.0, seed=11
        )
        assert report.passed
        assert report.monotone_violations == 0
        assert report.drift_anchor_violations == 0
        assert report.diffusion_violations == 0

    def test_anti_dissipative_drift_is_caught(self):
        problem = SdepcaProblem(
            dim_state=1,
            dim_noise=1,
            drift=lambda x, y: x,
            diffusion=lambda x, y: np.zeros(np.shape(x)[:-1] + (1, 1)),
            initial_state=[0.0],
        )
        report = probe_dissipativity(problem, params(1.0, 1e-9, 1e-9), 1000, 2.0, seed=3)
        assert report.monotone_violations > 0
        assert not report.passed

    def test_exact_equality_case_passes_with_tiny_margin(self):
        lam = 2.5
        problem = SdepcaProblem(
            dim_state=1,
            dim_noise=1,
            drift=lambda x, y: -lam * x,
            diffusion=lambda x, y: np.zeros(np.shape(x)[:-1] + (1, 1)),
            initial_state=[0.0],
        )
        report = probe_dissipativity(problem, params(lam, 1e-12, 1e-12), 2000, 3.0, seed=5)
        assert report.monotone_violations == 0
        assert abs(report.worst_monotone_margin) <= 1e-10

    def test_bitwise_reproducible(self):
        problem = cubic_multiplicative(1.0, 0.5)
        p = cubic_multiplicative_dissipativity(1.0, 0.5)
        a = probe_dissipativity(problem, p, 500, 4.0, seed=77)
        b = probe_dissipativity(problem, p, 500, 4.0, seed=77)
        assert a == b
        c = probe_dissipativity(problem, p, 500, 4.0, seed=78)
        assert c.worst_monotone_margin != a.worst_monotone_margin

    def test_rejects_zero_probes(self):
        problem = linear_additive(3.0, 1.0)
        with pytest.raises(ValueError):
            probe_dissipativity(problem, params(3.0, 1.0, 1e-9), 0, 1.0, seed=0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_radius_that_is_not_positive_and_finite(self, radius):
        problem = linear_additive(3.0, 1.0)
        with pytest.raises(ValueError, match="^radius must be positive and finite"):
            probe_dissipativity(problem, params(3.0, 1.0, 1e-9), 10, radius, seed=0)

    @pytest.mark.parametrize("radius", [1e100, 1e300])
    def test_coefficients_that_overflow_on_the_ball_raise(self, radius):
        # the margins came out NaN or -inf, and the report said passed
        problem = cubic_multiplicative(1.0, 1.0)
        with pytest.raises(ValueError, match="^the coefficients overflow on the ball of radius"):
            probe_dissipativity(problem, cubic_multiplicative_dissipativity(1.0, 1.0), 100, radius, seed=0)

    @pytest.mark.parametrize(
        "problem, constants, named",
        [
            (linear_additive(3.0, 1.0), (1e308, 1.0, 1e-9), "lambda1"),
            (linear_additive(3.0, 1.0), (3.0, 1e308, 1e-9), "lambda2"),
            (linear_additive(3.0, 1.0), (3.0, 1.0, 1e308), "lambda3"),
            (cubic_multiplicative(1.0, 1.0), (1e308, 4.0, 2.0), "lambda1"),
        ],
        ids=["linear-lambda1", "linear-lambda2", "linear-lambda3", "cubic-lambda1"],
    )
    def test_constants_that_overflow_on_the_ball_are_named(self, problem, constants, named):
        # finite coefficients: the constant times a squared distance overflows
        with pytest.raises(
            ValueError,
            match=f"^the constants overflow on the ball of radius 5.0: a probe margin with {named} is",
        ):
            probe_dissipativity(problem, params(*constants), 100, 5.0, seed=0)


class TestProblems:
    @pytest.mark.parametrize(
        "problem",
        [linear_additive(3.0, 1.0), cubic_multiplicative(1.0, 1.0), cubic_multiplicative(0.5, 2.0)],
    )
    def test_jacobian_matches_central_differences(self, problem):
        rng = np.random.default_rng(9)
        for _ in range(25):
            x = rng.uniform(-4, 4, size=(1,))
            y = rng.uniform(-4, 4, size=(1,))
            h = 1e-6 * (1 + abs(x[0]))
            fd = (problem.drift(x + h, y) - problem.drift(x - h, y)) / (2 * h)
            analytic = problem.drift_jacobian_x(x, y)[0, 0]
            assert analytic == pytest.approx(fd[0], rel=1e-5, abs=1e-8)

    def test_registry_round_trip(self):
        p = make_problem("linear-additive", theta1=2.5, theta2=-1.0, x0=0.5)
        assert p.initial_state[0] == 0.5
        with pytest.raises(KeyError):
            make_problem("unknown-problem")

    @pytest.mark.parametrize(
        "name, kwargs, message",
        [
            *[("linear-additive", {"theta1": v, "theta2": 1.0}, "theta1 must be positive and finite")
              for v in (math.nan, math.inf, -math.inf, 0.0, -1.0)],
            *[("linear-additive", {"theta1": 3.0, "theta2": v}, "theta2 and x0 must be finite")
              for v in (math.nan, math.inf, -math.inf)],
            *[("cubic-multiplicative", {"a": v, "b": 1.0}, "a and b must be finite")
              for v in (math.nan, math.inf, -math.inf)],
            *[("cubic-multiplicative", {"a": 1.0, "b": v}, "a and b must be finite")
              for v in (math.nan, math.inf, -math.inf)],
            *[("linear-additive", {"theta1": 3.0, "theta2": 1.0, "x0": v}, "theta2 and x0 must be finite")
              for v in (math.nan, math.inf)],
            *[("cubic-multiplicative", {"a": 1.0, "b": 1.0, "x0": v}, "x0 must be finite")
              for v in (math.nan, math.inf, -math.inf)],
        ],
    )
    def test_builders_reject_parameters_naming_them(self, name, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            make_problem(name, **kwargs)

    def test_default_dissipativity_is_the_family_constants(self):
        assert default_dissipativity("linear-additive", theta1=2.5, theta2=-1.5) == (
            linear_additive_dissipativity(2.5, -1.5)
        )
        assert default_dissipativity("cubic-multiplicative", a=0.5, b=-2.0) == (
            cubic_multiplicative_dissipativity(0.5, -2.0)
        )
        # exactly the family's parameters: x0 is not one of them
        with pytest.raises(TypeError):
            default_dissipativity("linear-additive", theta1=2.5, theta2=1.0, x0=1.0)

    def test_unknown_name_lists_the_builtins(self):
        assert set(BUILTINS) == {"linear-additive", "cubic-multiplicative"}
        for lookup in (make_problem, default_dissipativity):
            with pytest.raises(KeyError, match="'linear-additive', 'cubic-multiplicative'"):
                lookup("fancy")

    def test_coefficients_are_total_and_batchable(self):
        for problem in (linear_additive(3.0, 1.0), cubic_multiplicative(1.0, 1.0)):
            x = np.array([[1.0], [-2.0], [1e6]])
            y = np.array([[0.0], [3.0], [-1e6]])
            f = problem.drift(x, y)
            g = problem.diffusion(x, y)
            assert f.shape == (3, 1)
            assert g.shape == (3, 1, 1)
            assert np.all(np.isfinite(f)) and np.all(np.isfinite(g))

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            SdepcaProblem(0, 1, lambda x, y: x, lambda x, y: x, [1.0])
        with pytest.raises(ValueError):
            SdepcaProblem(1, 1, lambda x, y: x, lambda x, y: x, [float("nan")])
