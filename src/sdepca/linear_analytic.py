"""Closed-form law and exact samplers for the linear additive-noise problem.

For dX = (-theta1*X + theta2*X([t])) dt + dB the solution is Gaussian and
piecewise explicit: on each unit block it relaxes toward the anchor with the
fractional multiplier

    mu(s) = theta2/theta1 + (1 - theta2/theta1) * exp(-theta1*s)

and accumulates the variance sigma(s) = (1 - exp(-2*theta1*s)) / (2*theta1).
The integer-time chain is the AR(1) recursion X(k+1) = mu(1) X(k) + xi_k with
xi_k ~ N(0, sigma(1)); it has a stationary law exactly when |mu(1)| < 1, while
the continuous-time variance keeps oscillating within each block forever.

These formulas are the ground-truth oracle for every weak-error and
invariant-measure test in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .brownian import BrownianGrid
from .integrators import Trajectory


@dataclass(frozen=True)
class LinearAdditiveParams:
    theta1: float
    theta2: float
    x0: float = 1.0

    def __post_init__(self) -> None:
        if not self.theta1 > 0.0:
            raise ValueError(f"theta1 must be positive, got {self.theta1}")


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


def stationary_region(theta1: float) -> tuple[float, float]:
    """Open interval of theta2 for which |mu(1)| < 1, at a given theta1."""
    if theta1 <= 0.0:
        raise ValueError(f"theta1 must be positive, got {theta1}")
    e = math.exp(-theta1)
    return (-theta1 * (1.0 + e) / (1.0 - e), theta1)


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


def exact_finals_batch(
    params: LinearAdditiveParams,
    increments: np.ndarray,
    fine_step: float,
    K: int,
) -> np.ndarray:
    """Solution values X(K) for a batch of fine increment paths.

    ``increments`` has shape (n_paths, >= K/fine_step).  The stochastic
    convolution is built from the fine increments by the recursion of
    :func:`_fine_step_weights`, so the result consumes exactly the same
    increments the integrators see; its law is exact up to that function's
    relative variance error.
    """
    steps_per_unit = 1.0 / fine_step
    npu = int(round(steps_per_unit))
    if abs(steps_per_unit - npu) > 1e-9:
        raise ValueError(f"fine_step {fine_step} does not divide the unit interval")
    if increments.shape[-1] < K * npu:
        raise ValueError("increment array shorter than K unit blocks")
    decay, weight = _fine_step_weights(params, fine_step)
    mu_one = mu_fraction(params, 1.0)
    anchors = np.full(increments.shape[:-1], float(params.x0))
    for k in range(K):
        integral = np.zeros_like(anchors)
        for j in range(npu):
            integral = decay * integral + weight * increments[..., k * npu + j]
        anchors = anchors * mu_one + integral
    return anchors


def exact_sample_path(params: LinearAdditiveParams, grid: BrownianGrid, K: int) -> Trajectory:
    """Solution on the fine grid, driven by the given Brownian path.

    Within block k the deterministic part is anchor * mu(u) and the
    stochastic convolution obeys I(u + dt) = exp(-theta1*dt) * I(u) + c * dB,
    the recursion of :func:`_fine_step_weights`, the same as in
    :func:`exact_finals_batch`.
    """
    if grid.dim_noise != 1:
        raise ValueError("exact sampler requires scalar noise")
    npu = int(round(1.0 / grid.fine_step))
    if abs(1.0 / grid.fine_step - npu) > 1e-9:
        raise ValueError(f"fine_step {grid.fine_step} does not divide the unit interval")
    if grid.n_steps < K * npu:
        raise ValueError(f"horizon {grid.horizon} too short for K={K} blocks")
    dB = grid.increments[: K * npu, 0]
    decay, weight = _fine_step_weights(params, grid.fine_step)
    mu_by_step = np.array(
        [mu_fraction(params, (j + 1) * grid.fine_step) for j in range(npu)]
    )
    states = np.empty(K * npu + 1)
    states[0] = params.x0
    anchor = params.x0
    for k in range(K):
        integral = 0.0
        base = k * npu
        for j in range(npu):
            integral = decay * integral + weight * dB[base + j]
            states[base + j + 1] = anchor * mu_by_step[j] + integral
        anchor = states[(k + 1) * npu]
    return Trajectory(
        states=states[:, None],
        m=npu,
        problem_tag="linear-additive-exact",
        path_index=grid.path_index,
    )
