import math

import mpmath
import numpy as np
import pytest

from sdepca.brownian import generate_path
from sdepca.linear_analytic import (
    LinearAdditiveParams,
    exact_finals_batch,
    exact_mean,
    exact_sample_integer,
    exact_variance,
    law,
)

PARAMS = LinearAdditiveParams(theta1=3.0, theta2=1.0, x0=1.0)


def mp_law(theta1, theta2, dps=50):
    """High-precision oracle for mu(1), sigma(1) and the stationary variance."""
    with mpmath.workdps(dps):
        t1 = mpmath.mpf(theta1)
        t2 = mpmath.mpf(theta2)
        mu = t2 / t1 + (1 - t2 / t1) * mpmath.e ** (-t1)
        sigma = (1 - mpmath.e ** (-2 * t1)) / (2 * t1)
        stationary = sigma / (1 - mu**2)
        return float(mu), float(sigma), float(stationary)


class TestLaw:
    def test_against_high_precision_oracle(self):
        mu, sigma, stationary = mp_law(3.0, 1.0)
        lw = law(PARAMS)
        assert lw.mu_one == pytest.approx(mu, rel=1e-12)
        assert lw.sigma_one == pytest.approx(sigma, rel=1e-12)
        assert lw.stationary_variance == pytest.approx(stationary, rel=1e-12)
        assert lw.stationary_mean == 0.0
        # frozen values from the oracle above
        assert lw.mu_one == pytest.approx(0.36652471224524263, rel=1e-12)
        assert lw.sigma_one == pytest.approx(0.16625354130388895, rel=1e-12)
        assert lw.stationary_variance == pytest.approx(0.19205416831486186, rel=1e-12)

    def test_boundary_multiplier_one(self):
        lw = law(LinearAdditiveParams(2.0, 2.0))
        assert lw.mu_one == 1.0
        assert lw.stationary_variance is None
        assert not lw.is_stationary

    def test_pure_mean_reversion(self):
        lw = law(LinearAdditiveParams(2.0, 0.0))
        assert lw.mu_one == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_theta1_must_be_positive(self):
        with pytest.raises(ValueError):
            LinearAdditiveParams(0.0, 1.0)


class TestParams:
    @pytest.mark.parametrize(
        "theta1, theta2, x0, message",
        [
            (0.0, 1.0, 1.0, "theta1"),
            (math.inf, 1.0, 1.0, "theta1"),
            (math.nan, 1.0, 1.0, "theta1"),
            (3.0, math.nan, 1.0, "theta2 and x0"),
            (3.0, -math.inf, 1.0, "theta2 and x0"),
            (3.0, 1.0, math.nan, "theta2 and x0"),
            (3.0, 1.0, math.inf, "theta2 and x0"),
        ],
    )
    def test_non_finite_or_non_positive_values_are_rejected(self, theta1, theta2, x0, message):
        with pytest.raises(ValueError, match=f"^{message} must be"):
            LinearAdditiveParams(theta1, theta2, x0)


class TestExactMoments:
    def test_mean_at_zero_is_initial_value(self):
        assert exact_mean(PARAMS, 0.0) == PARAMS.x0

    def test_mean_at_integers_is_power_law(self):
        mu = law(PARAMS).mu_one
        for k in range(6):
            assert exact_mean(PARAMS, float(k)) == pytest.approx(mu**k, rel=1e-13)

    def test_mean_at_two(self):
        mu = law(PARAMS).mu_one
        assert exact_mean(PARAMS, 2.0) == pytest.approx(mu**2, rel=1e-13)

    def test_variance_at_zero(self):
        assert exact_variance(PARAMS, 0.0) == 0.0

    def test_variance_at_one_is_sigma_one(self):
        assert exact_variance(PARAMS, 1.0) == pytest.approx(law(PARAMS).sigma_one, rel=1e-13)

    def test_variance_converges_to_stationary(self):
        target = law(PARAMS).stationary_variance
        values = [exact_variance(PARAMS, float(k)) for k in range(1, 40)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(target, rel=1e-9)

    def test_variance_nondecreasing_within_first_block(self):
        ts = np.linspace(0.0, 1.0, 101)
        values = [exact_variance(PARAMS, t) for t in ts]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_mean_within_a_block_solves_the_anchored_ode(self):
        # with noise off and the anchor y = E X(k) frozen on [k, k + 1),
        # the mean solves dx/dt = -theta1 x + theta2 y
        from scipy.integrate import solve_ivp

        for t in (0.25, 1.5, 2.75):
            k = math.floor(t)
            y = exact_mean(PARAMS, float(k))
            ode = solve_ivp(
                lambda s, x: -PARAMS.theta1 * x + PARAMS.theta2 * y, (k, t), [y], rtol=1e-12, atol=1e-14
            )
            assert exact_mean(PARAMS, t) == pytest.approx(ode.y[0, -1], rel=1e-9)

    def test_mean_decays_to_zero(self):
        assert abs(exact_mean(PARAMS, 40.0)) < 1e-15

    def test_fractional_and_integer_limits_differ(self):
        # integer-time variances converge, half-integer ones converge to a
        # different limit: the continuous process has no stationary law
        lim_int = exact_variance(PARAMS, 60.0)
        lim_half = exact_variance(PARAMS, 60.5)
        assert abs(exact_variance(PARAMS, 61.0) - lim_int) < 1e-12
        assert abs(exact_variance(PARAMS, 61.5) - lim_half) < 1e-12
        assert abs(lim_half - lim_int) > 1e-3

    def test_unit_multiplier_uses_linear_growth(self):
        boundary = LinearAdditiveParams(2.0, 2.0)
        sigma = law(boundary).sigma_one
        assert exact_variance(boundary, 3.0) == pytest.approx(3 * sigma, rel=1e-13)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            exact_mean(PARAMS, -0.5)


class _ZeroNormal:
    def standard_normal(self):
        return 0.0


class TestExactSamplers:
    def test_integer_sampler_noise_free_recursion(self):
        out = exact_sample_integer(PARAMS, _ZeroNormal(), 5)
        mu = law(PARAMS).mu_one
        np.testing.assert_allclose(out, [mu**k for k in range(6)], rtol=1e-13)

    def test_integer_sampler_monte_carlo_moments(self):
        rng = np.random.default_rng(101)
        n = 100_000
        finals = np.array([exact_sample_integer(PARAMS, rng, 5)[-1] for _ in range(n)])
        mean_se = finals.std(ddof=1) / math.sqrt(n)
        assert abs(finals.mean() - exact_mean(PARAMS, 5.0)) < 4 * mean_se
        var = finals.var(ddof=1)
        var_se = var * math.sqrt(2.0 / (n - 1))
        assert abs(var - exact_variance(PARAMS, 5.0)) < 4 * var_se

    def test_path_sampler_zero_noise_matches_exact_mean(self):
        for K in (1, 2, 3):
            finals = exact_finals_batch(PARAMS, np.zeros((1, K * 2**6)), 2.0**-6, K)
            assert finals[0] == pytest.approx(exact_mean(PARAMS, float(K)), rel=1e-12, abs=1e-15)

    def test_path_and_integer_samplers_agree_in_distribution(self):
        from scipy.stats import ks_2samp

        n = 10_000
        anchors = np.empty(n)
        for lo in range(0, n, 1000):
            incs = np.stack(
                [generate_path(99, i, 5.0, 2.0**-11, 1).increments[:, 0] for i in range(lo, lo + 1000)]
            )
            anchors[lo : lo + 1000] = exact_finals_batch(PARAMS, incs, 2.0**-11, 5)
        rng = np.random.default_rng(5)
        integers = np.array([exact_sample_integer(PARAMS, rng, 5)[-1] for _ in range(n)])
        result = ks_2samp(anchors, integers)
        assert result.pvalue > 0.01

    def test_batch_finals_carry_the_block_noise_variance(self):
        # with theta2 = 0 and x0 = 0, X(1) is sum_j w_j dB_j; unit increments
        # fed one per path read off the weights w_j, and h * sum w_j^2 must
        # equal sigma(1) up to a relative (theta1 h)^2 / 12 = 1.8e-7
        pure = LinearAdditiveParams(3.0, 0.0, x0=0.0)
        weights = exact_finals_batch(pure, np.eye(2048), 2.0**-11, 1)
        variance = 2.0**-11 * np.sum(weights**2)
        assert variance == pytest.approx(law(pure).sigma_one, rel=1e-6)
