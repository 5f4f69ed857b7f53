"""The benchmark's oracles against mpmath and against direct recursions.

    python3 -m pytest bench/test_oracles.py
"""

import math

import mpmath
import pytest

import oracles

THETA1, THETA2 = 3.0, 1.0


def be_recursion(m: int, K: int, x0: float):
    """Mean and variance of BE's anchors, stepped through every substep.

    Within a block the state x and its anchor y are jointly Gaussian and
    x' = rho x + rho delta theta2 y + rho dB, so the first two moments of
    (x, y) follow exactly.
    """
    delta = 1.0 / m
    rho = 1.0 / (1.0 + THETA1 * delta)
    c = rho * delta * THETA2
    mean, var = x0, 0.0
    out = [(mean, var)]
    for _ in range(K):
        y_mean, y_var = mean, var
        x_mean, x_var, cov = mean, var, var
        for _ in range(m):
            x_mean = rho * x_mean + c * y_mean
            x_var = rho**2 * x_var + 2 * rho * c * cov + c**2 * y_var + rho**2 * delta
            cov = rho * cov + c * y_var
        mean, var = x_mean, x_var
        out.append((mean, var))
    return out


@pytest.mark.parametrize("m", [1, 16, 512])
def test_be_law_matches_substep_recursion(m):
    chain = oracles.be_chain(THETA1, THETA2, m)
    for k, (mean, var) in enumerate(be_recursion(m, 8, 1.5)):
        got_mean, got_var = chain.law_at(1.5, k)
        assert got_mean == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert got_var == pytest.approx(var, rel=1e-12, abs=1e-15)


def test_sde_law_against_mpmath():
    with mpmath.workdps(40):
        t1, t2 = mpmath.mpf(THETA1), mpmath.mpf(THETA2)
        # zero-noise block map from x(0) = 1 with the anchor held at 1
        flow = mpmath.odefun(lambda t, x: -t1 * x + t2, 0, 1)
        noise = mpmath.quad(lambda s: mpmath.exp(-2 * t1 * (1 - s)), [0, 1])
        chain = oracles.sde_chain(THETA1, THETA2)
        assert chain.multiplier == pytest.approx(float(flow(1)), rel=1e-14)
        assert chain.noise_variance == pytest.approx(float(noise), rel=1e-14)


@pytest.mark.parametrize("phi", sorted(oracles.PHIS))
@pytest.mark.parametrize("mean,var", [(0.0, 0.16), (0.04, 0.166), (2.0, 0.5), (-0.3, 1e-3)])
def test_gaussian_expectation_against_mpmath(phi, mean, var):
    fns = {
        "sin_sq": lambda x: mpmath.sin(x * x),
        "cos_abs": lambda x: mpmath.cos(abs(x)),
        "atan_abs": lambda x: mpmath.atan(abs(x)),
        "exp_neg_sq": lambda x: mpmath.exp(-x * x),
    }
    with mpmath.workdps(30):
        m, v = mpmath.mpf(mean), mpmath.mpf(var)
        pdf = lambda x: mpmath.exp(-((x - m) ** 2) / (2 * v)) / mpmath.sqrt(2 * mpmath.pi * v)
        sd = mpmath.sqrt(v)
        want = mpmath.quad(lambda x: fns[phi](x) * pdf(x), [m - 40 * sd, 0, m + 40 * sd])
    # rounding level: the weak errors it feeds are 1e-4 and larger
    assert oracles.gaussian_expectation(phi, mean, var) == pytest.approx(float(want), abs=1e-13)


def test_weak_error_is_order_one_in_delta():
    errors = [oracles.linear_weak_error("cos_abs", THETA1, THETA2, 1.0, 5, m) for m in (64, 128, 256, 512)]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(1.9 < r < 2.1 for r in ratios)


def test_contraction_trace_matches_coupled_recursion():
    # with shared noise the two chains differ by a deterministic amount
    m = 16
    delta = 1.0 / m
    rho = 1.0 / (1.0 + THETA1 * delta)
    d = 4.0
    want = [d * d]
    for _ in range(20):
        anchor = d
        for _ in range(m):
            d = rho * (d + delta * THETA2 * anchor)
        want.append(d * d)
    got = oracles.linear_contraction_trace(THETA1, THETA2, m, 2.0, -2.0, 20)
    assert got == pytest.approx(want, rel=1e-12)


def test_be_stationary_moment_against_mpmath():
    with mpmath.workdps(50):
        t1, t2 = mpmath.mpf(THETA1), mpmath.mpf(THETA2)
        delta = mpmath.mpf(1) / 16
        rho = 1 / (1 + t1 * delta)
        mult = rho**16 + (t2 / t1) * (1 - rho**16)
        want = float(delta * rho**2 * (1 - rho**32) / (1 - rho**2) / (1 - mult**2))
    got = oracles.be_stationary_second_moment(THETA1, THETA2, 16)
    assert got == pytest.approx(want, rel=1e-13)
    assert round(got, 6) == 0.176740
    # the far end of the substep recursion from x0 = 1 reaches the same moment
    mean, var = be_recursion(16, 60, 1.0)[-1]
    assert mean**2 + var == pytest.approx(got, rel=1e-12)


def test_stationary_moment_gap_is_order_one():
    target = oracles.sde_chain(THETA1, THETA2).stationary_second_moment()
    gaps = [abs(oracles.be_stationary_second_moment(THETA1, THETA2, m) - target) for m in (64, 128, 256)]
    assert all(1.9 < a / b < 2.1 for a, b in zip(gaps, gaps[1:]))
    assert math.isclose(target, 0.19205, rel_tol=1e-4)
