"""Closed-form oracles for the benchmark's checks, derived apart from sdepca.

Nothing here imports sdepca.  The laws are worked out afresh from the linear
problem dX = (-theta1 X + theta2 X([t])) dt + dB, X(0) = x0.

* The SDE: over one unit block the solution relaxes toward its anchor, so
  the integer-time chain is X(k+1) = mu X(k) + xi_k with
  mu = theta2/theta1 + (1 - theta2/theta1) exp(-theta1) and
  Var xi_k = (1 - exp(-2 theta1)) / (2 theta1).
* Backward Euler (BE) at delta = 1/m: each step is
  x' = rho (x + delta theta2 y + dB) with rho = 1/(1 + theta1 delta), so
  Y(k+1) = M_m Y(k) + sum_l rho^(m-l) dB_l with
  M_m = rho^m + (theta2/theta1)(1 - rho^m) and noise variance
  delta rho^2 (1 - rho^(2m)) / (1 - rho^2).

Both chains are Gaussian AR(1) recursions, so each has a Gaussian law at
every integer time, and E phi under that law is a one-dimensional integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Example 1's test functions, written out again: phi(x) of a scalar state.
PHIS = {
    "sin_sq": lambda x: np.sin(x * x),
    "cos_abs": lambda x: np.cos(np.abs(x)),
    "atan_abs": lambda x: np.arctan(np.abs(x)),
    "exp_neg_sq": lambda x: np.exp(-(x * x)),
}

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(96)
_TAIL_SD = 12.0


@dataclass(frozen=True)
class GaussianAR1:
    """The chain Z(k+1) = multiplier Z(k) + N(0, noise_variance)."""

    multiplier: float
    noise_variance: float

    def law_at(self, x0: float, k: int) -> tuple[float, float]:
        """Mean and variance of Z(k) from Z(0) = x0."""
        a2 = self.multiplier**2
        var = self.noise_variance * (k if a2 == 1.0 else (1.0 - a2**k) / (1.0 - a2))
        return x0 * self.multiplier**k, var

    def stationary_second_moment(self) -> float:
        return self.noise_variance / (1.0 - self.multiplier**2)


def sde_chain(theta1: float, theta2: float) -> GaussianAR1:
    ratio = theta2 / theta1
    mu = ratio + (1.0 - ratio) * math.exp(-theta1)
    return GaussianAR1(mu, -math.expm1(-2.0 * theta1) / (2.0 * theta1))


def be_chain(theta1: float, theta2: float, m: int) -> GaussianAR1:
    delta = 1.0 / m
    rho = 1.0 / (1.0 + theta1 * delta)
    rho_m = rho**m
    mult = rho_m + (theta2 / theta1) * (1.0 - rho_m)
    noise = delta * rho**2 * (1.0 - rho ** (2 * m)) / (1.0 - rho**2)
    return GaussianAR1(mult, noise)


def gaussian_expectation(phi: str, mean: float, var: float) -> float:
    """E phi(Z) for Z ~ N(mean, var).

    Gauss-Legendre on mean +- 12 sd, split at 0 where |x| has its kink, so
    each piece is smooth and the rule converges to rounding level.
    """
    sd = math.sqrt(var)
    lo, hi = mean - _TAIL_SD * sd, mean + _TAIL_SD * sd
    cuts = [lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        x = 0.5 * (b - a) * _NODES + 0.5 * (a + b)
        pdf = np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        total += 0.5 * (b - a) * float(np.dot(_WEIGHTS, PHIS[phi](x) * pdf))
    return total


def linear_weak_error(
    phi: str, theta1: float, theta2: float, x0: float, T: int, m: int
) -> float:
    """|E phi(X(T)) - E phi(Y_T)| for BE at delta = 1/m."""
    exact = gaussian_expectation(phi, *sde_chain(theta1, theta2).law_at(x0, T))
    be = gaussian_expectation(phi, *be_chain(theta1, theta2, m).law_at(x0, T))
    return abs(exact - be)


def linear_contraction_trace(
    theta1: float, theta2: float, m: int, x: float, y: float, K: int
) -> list[float]:
    """E|Y_k^x - Y_k^y|^2 = (x - y)^2 M_m^(2k), k = 0..K: with additive
    noise the coupled chains differ by the deterministic (x - y) M_m^k."""
    mult = be_chain(theta1, theta2, m).multiplier
    return [(x - y) ** 2 * mult ** (2 * k) for k in range(K + 1)]


def be_stationary_second_moment(theta1: float, theta2: float, m: int) -> float:
    """delta rho^2 (1 - rho^(2m)) / (1 - rho^2) / (1 - M_m^2)."""
    return be_chain(theta1, theta2, m).stationary_second_moment()
