"""Closed-form law and exact samplers for the linear additive-noise problem.

For dX = (-theta1*X + theta2*X([t])) dt + dB the solution is Gaussian and
piecewise explicit: on each unit block it relaxes toward the anchor with the
fractional multiplier

    mu(s) = theta2/theta1 + (1 - theta2/theta1) * exp(-theta1*s)

and accumulates the variance sigma(s) = (1 - exp(-2*theta1*s)) / (2*theta1).
The integer-time chain is the AR(1) recursion X(k+1) = mu(1) X(k) + xi_k with
xi_k ~ N(0, sigma(1)); it has a stationary law exactly when |mu(1)| < 1, while
the continuous-time variance keeps oscillating within each block forever.
It samples that chain by :func:`exact_sample_integer`, and the solution on
fine increments by :func:`exact_map`, run by :func:`exact_finals_batch`.

These formulas are the ground-truth oracle for every weak-error and
invariant-measure test in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .brownian import steps_per_unit
from .integrators import BlockMap, Lane, run_lanes


@dataclass(frozen=True)
class LinearAdditiveParams:
    theta1: float
    theta2: float
    x0: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.theta1 < math.inf:
            raise ValueError(f"theta1 must be positive and finite, got {self.theta1}")
        if not (math.isfinite(self.theta2) and math.isfinite(self.x0)):
            raise ValueError(f"theta2 and x0 must be finite, got {self.theta2} and {self.x0}")


@dataclass(frozen=True)
class LinearLaw:
    """First two moments of the block map; stationary fields iff |mu(1)| < 1."""

    mu_one: float
    sigma_one: float
    stationary_mean: Optional[float]
    stationary_variance: Optional[float]

    @property
    def is_stationary(self) -> bool:
        return self.stationary_variance is not None


def mu_fraction(params: LinearAdditiveParams, frac: float) -> float:
    """Deterministic relaxation multiplier over a fraction of a block."""
    if frac == 0.0:
        return 1.0  # exact; avoids ratio + (1 - ratio) rounding
    ratio = params.theta2 / params.theta1
    return ratio + (1.0 - ratio) * math.exp(-params.theta1 * frac)


def sigma_fraction(params: LinearAdditiveParams, frac: float) -> float:
    """Noise variance accumulated over a fraction of a block."""
    return (1.0 - math.exp(-2.0 * params.theta1 * frac)) / (2.0 * params.theta1)


def law(params: LinearAdditiveParams) -> LinearLaw:
    """Closed-form block-map law; stationary fields only when they exist."""
    mu_one = mu_fraction(params, 1.0)
    sigma_one = sigma_fraction(params, 1.0)
    if abs(mu_one) < 1.0:
        stationary_mean = 0.0
        stationary_variance = sigma_one / (1.0 - mu_one**2)
    else:
        stationary_mean = None
        stationary_variance = None
    return LinearLaw(mu_one, sigma_one, stationary_mean, stationary_variance)


def _block_variance(params: LinearAdditiveParams, k: int) -> float:
    """Variance of the integer-time chain after k blocks."""
    mu_one = mu_fraction(params, 1.0)
    sigma_one = sigma_fraction(params, 1.0)
    if abs(mu_one) == 1.0:
        return k * sigma_one  # limit form of the geometric sum
    return (1.0 - mu_one ** (2 * k)) / (1.0 - mu_one**2) * sigma_one


def exact_mean(params: LinearAdditiveParams, t: float) -> float:
    """E X(t) = x0 * mu(1)^floor(t) * mu({t})."""
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    k = int(math.floor(t))
    frac = t - k
    return params.x0 * mu_fraction(params, 1.0) ** k * mu_fraction(params, frac)


def exact_variance(params: LinearAdditiveParams, t: float) -> float:
    """Var X(t): block variance seen through mu({t})^2 plus sigma({t}).

    Derivation from the blockwise solution: with k = floor(t) the state is
    X(t) = X(k)*mu({t}) + integral over [k, t], and the integral is
    independent of X(k), so the block variance is discounted by mu({t})^2 and
    the fresh variance sigma({t}) adds on top.
    """
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    k = int(math.floor(t))
    frac = t - k
    return _block_variance(params, k) * mu_fraction(params, frac) ** 2 + sigma_fraction(
        params, frac
    )


def exact_sample_integer(
    params: LinearAdditiveParams, rng: np.random.Generator | int, K: int
) -> np.ndarray:
    """Sample the exact integer-time chain X(0..K) via the AR(1) recursion."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    mu_one = mu_fraction(params, 1.0)
    noise_sd = math.sqrt(sigma_fraction(params, 1.0))
    out = np.empty(K + 1)
    out[0] = params.x0
    for k in range(K):
        out[k + 1] = mu_one * out[k] + noise_sd * rng.standard_normal()
    return out


def _fine_step_weights(params: LinearAdditiveParams, h: float) -> tuple[float, float]:
    """``(e^{-theta1 h}, c)`` of the fine-step recursion I <- e^{-theta1 h} I + c dB.

    ``c = (1 - e^{-theta1 h}) / (theta1 h)`` is the conditional mean of the
    step's stochastic convolution given its increment dB.  Each step's noise
    variance is then low by a relative (theta1 h)^2 / 12, 1.8e-7 at
    theta1 = 3, h = 2^-11; the left-point weight e^{-theta1 h} leaves it
    low by about theta1 h.
    """
    a = params.theta1 * h
    return math.exp(-a), -math.expm1(-a) / a


def exact_map(params: LinearAdditiveParams) -> BlockMap:
    """The exact solution over one unit block, as a map lane of the runner.

    ``fold`` carries the stochastic convolution ``integral`` over the
    block's fine increments (steps, ...), one step at a time by the
    recursion of :func:`_fine_step_weights`:
    ``integral = decay * integral + weight * dB``; ``finish`` adds the
    anchor's relaxation ``x * mu(1)`` at the block's end.
    """
    mu_one = mu_fraction(params, 1.0)

    def fold(integral: np.ndarray, increments: np.ndarray, fine_step: float) -> np.ndarray:
        decay, weight = _fine_step_weights(params, fine_step)
        for dB in increments:
            integral = decay * integral + weight * dB
        return integral

    return BlockMap(fold=fold, finish=lambda x, integral: x * mu_one + integral)


def exact_finals_batch(
    params: LinearAdditiveParams,
    increments: np.ndarray,
    fine_step: float,
    K: int,
) -> np.ndarray:
    """Solution values X(K) for a batch of fine increment paths.

    ``increments`` has shape (n_paths, >= K/fine_step).  Each unit block is
    advanced by :func:`exact_map`, run as the one lane of
    :func:`~sdepca.integrators.run_lanes` on the increments as one piece,
    so the result consumes exactly the same increments the integrators
    see; its law is exact up to the relative variance error of
    :func:`_fine_step_weights`.
    """
    npu = steps_per_unit(fine_step)
    lane = Lane(exact_map(params), x0=[params.x0])
    (run,) = run_lanes(None, [lane], [increments.T[:, :, None]], increments.shape[0], npu, K)
    return run.anchors[-1, :, 0]
