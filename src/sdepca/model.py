"""Problem definitions, dissipativity constants and contraction-rate formulas.

The central object is :class:`SdepcaProblem`: a stochastic system whose drift
and diffusion see both the running state ``x`` and the state ``y`` frozen at
the most recent integer time.  Long-time behaviour of such systems is governed
by three dissipativity constants (``lambda1``, ``lambda2``, ``lambda3``); this
module houses the closed-form conditions and decay rates derived from them,
plus a randomized falsification probe for user-supplied constants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

Coefficient = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Margin beyond which a probed inequality counts as violated; absorbs
#: floating-point noise in exact-equality cases such as f(x, y) = -lambda1*x.
PROBE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class SdepcaProblem:
    """The equation being solved: state-and-anchor drift/diffusion plus start.

    ``drift(x, y)`` maps arrays of shape ``(..., d)`` to ``(..., d)`` and
    ``diffusion(x, y)`` to ``(..., d, r)``; the solvers and estimators call
    them on whole batches of states.  ``drift_jacobian_x``, when given, maps to
    ``(..., d, d)`` and is used by the implicit solver in place of finite
    differences.
    """

    dim_state: int
    dim_noise: int
    drift: Coefficient
    diffusion: Coefficient
    initial_state: np.ndarray
    drift_jacobian_x: Optional[Coefficient] = None
    tag: str = "custom"

    def __post_init__(self) -> None:
        if self.dim_state < 1:
            raise ValueError(f"dim_state must be positive, got {self.dim_state}")
        if self.dim_noise < 1:
            raise ValueError(f"dim_noise must be positive, got {self.dim_noise}")
        x0 = np.asarray(self.initial_state, dtype=float).reshape(self.dim_state)
        if not np.all(np.isfinite(x0)):
            raise ValueError("initial_state must be finite")
        object.__setattr__(self, "initial_state", x0)


@dataclass(frozen=True)
class DissipativityParams:
    """One-sided/Lipschitz constants of the coefficients.

    ``lambda1`` is the one-sided Lipschitz constant of the drift in its first
    argument, ``lambda2`` the squared Lipschitz constant of the drift in the
    anchor argument, ``lambda3`` the squared Lipschitz constant of the
    diffusion in both arguments.  ``f00_norm_sq`` and ``g00_norm_sq`` are the
    squared norms of drift and diffusion at the origin.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    f00_norm_sq: float = 0.0
    g00_norm_sq: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "lambda3"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("f00_norm_sq", "g00_norm_sq"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class ContractionRates:
    """Closed-form decay rates of the continuous flow and of the BE chain.

    ``alpha``/``beta``/``gamma`` and ``r_one``/``rbar_one`` describe the
    continuous-time integer-step contraction; the ``*1``/``*2`` constants are
    their step-size-dependent discrete counterparts, and ``rbar1_block`` is
    the per-integer-step mean-square contraction factor of the BE chain.
    """

    alpha: float
    beta: float
    gamma: float
    r_one: float
    rbar_one: float
    alpha1: float
    beta1: float
    gamma1: float
    alpha2: float
    beta2: float
    rbar1_block: float
    delta: float
    m: int

    def r1_at(self, l: int) -> float:
        """Within-block second-moment factor r1(l), l = 0..m-1."""
        ratio = self.beta1 / self.alpha1
        return ratio + (1.0 - ratio) * math.exp(-self.alpha1 * (l + 1) * self.delta)

    def rbar1_at(self, l: int) -> float:
        """Within-block mean-square contraction factor rbar1(l), l = 0..m-1."""
        ratio = self.beta2 / self.alpha2
        return ratio + (1.0 - ratio) * math.exp(-self.alpha2 * (l + 1) * self.delta)


def check_ergodicity_condition(params: DissipativityParams) -> bool:
    """True iff lambda1 - lambda2 - 2*lambda3 - 1 > 0 (strictly)."""
    return params.lambda1 - params.lambda2 - 2.0 * params.lambda3 - 1.0 > 0.0


def check_moment_condition(params: DissipativityParams, p: int) -> bool:
    """True iff lambda1 - lambda2 - 2*lambda3 - 1 > 4*lambda3*(p - 1).

    The 2p-th moments of the solution and of the BE chain stay uniformly
    bounded under this condition; p = 1 reduces to the ergodicity condition.
    """
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    margin = params.lambda1 - params.lambda2 - 2.0 * params.lambda3 - 1.0
    return margin > 4.0 * params.lambda3 * (p - 1)


def contraction_rates(params: DissipativityParams, delta: float, m: int) -> ContractionRates:
    """Evaluate every closed-form contraction quantity for step size delta = 1/m.

    Requires the ergodicity condition to hold.  delta may be 1 (m = 1); the
    discrete constants remain valid contraction factors for any delta in (0, 1].
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if not (0.0 < delta <= 1.0) or abs(delta * m - 1.0) > 1e-12:
        raise ValueError(f"delta must equal 1/m with delta in (0, 1], got delta={delta}, m={m}")
    if not check_ergodicity_condition(params):
        raise ValueError("ergodicity condition lambda1 - lambda2 - 2*lambda3 - 1 > 0 fails")

    l1, l2, l3 = params.lambda1, params.lambda2, params.lambda3
    alpha = 2.0 * l1 - 2.0 * l3 - 1.0
    beta = 2.0 * (l2 + l3)
    gamma = 2.0 * (params.f00_norm_sq + params.g00_norm_sq)
    r_one = beta / alpha + (1.0 - beta / alpha) * math.exp(-alpha)
    rbar_one = beta / (2.0 * alpha) + (1.0 - beta / (2.0 * alpha)) * math.exp(-alpha)

    denom = 1.0 + (2.0 * l1 - 1.0) * delta
    alpha1 = (2.0 * l1 - 2.0 * l3 - 1.0) / denom
    beta1 = 2.0 * (l2 + l3) / denom
    gamma1 = gamma / denom
    alpha2 = (2.0 * l1 - l3 - 1.0) / denom
    beta2 = (l2 + l3) / denom
    ratio2 = beta2 / alpha2
    rbar1_block = ratio2 + (1.0 - ratio2) * math.exp(-alpha2 * m * delta)

    return ContractionRates(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        r_one=r_one,
        rbar_one=rbar_one,
        alpha1=alpha1,
        beta1=beta1,
        gamma1=gamma1,
        alpha2=alpha2,
        beta2=beta2,
        rbar1_block=rbar1_block,
        delta=delta,
        m=m,
    )


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of randomized falsification of the dissipativity inequalities.

    A clean report is evidence on the probed ball only, not a proof; the
    probing radius is therefore part of the report.
    """

    n_probes: int
    radius: float
    seed: int
    tolerance: float
    monotone_violations: int
    drift_anchor_violations: int
    diffusion_violations: int
    worst_monotone_margin: float
    worst_drift_anchor_margin: float
    worst_diffusion_margin: float

    @property
    def passed(self) -> bool:
        return (
            self.monotone_violations == 0
            and self.drift_anchor_violations == 0
            and self.diffusion_violations == 0
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _uniform_ball(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    v = rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    rad = radius * rng.random(n) ** (1.0 / d)
    return v * rad[:, None]


def probe_dissipativity(
    problem: SdepcaProblem,
    params: DissipativityParams,
    n_probes: int,
    radius: float,
    seed: int,
) -> ProbeReport:
    """Probe the three dissipativity inequalities at random point tuples.

    Draws (x1, x2, y1, y2) uniformly from the ball of the given radius and
    records any tuple whose margin exceeds ``PROBE_TOLERANCE`` for

    * drift monotonicity:  <x1-x2, f(x1,y) - f(x2,y)> <= -lambda1 |x1-x2|^2,
    * drift anchor bound:  |f(x,y1) - f(x,y2)|^2 <= lambda2 |y1-y2|^2,
    * diffusion bound:     |g(x1,y1) - g(x2,y2)|^2
                           <= lambda3 (|x1-x2|^2 + |y1-y2|^2).

    Margins are lhs - rhs, so any positive worst margin above tolerance is a
    counterexample to the supplied constants.
    """
    if n_probes < 1:
        raise ValueError(f"n_probes must be >= 1, got {n_probes}")
    d = problem.dim_state
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    x1 = _uniform_ball(rng, n_probes, d, radius)
    x2 = _uniform_ball(rng, n_probes, d, radius)
    y1 = _uniform_ball(rng, n_probes, d, radius)
    y2 = _uniform_ball(rng, n_probes, d, radius)

    f_x1_y1 = np.asarray(problem.drift(x1, y1))
    f_x2_y1 = np.asarray(problem.drift(x2, y1))
    f_x1_y2 = np.asarray(problem.drift(x1, y2))
    g_x1_y1 = np.asarray(problem.diffusion(x1, y1))
    g_x2_y2 = np.asarray(problem.diffusion(x2, y2))

    dx = x1 - x2
    dy = y1 - y2
    dx_sq = np.sum(dx * dx, axis=1)
    dy_sq = np.sum(dy * dy, axis=1)

    monotone_margin = np.sum(dx * (f_x1_y1 - f_x2_y1), axis=1) + params.lambda1 * dx_sq
    anchor_margin = np.sum((f_x1_y2 - f_x1_y1) ** 2, axis=1) - params.lambda2 * dy_sq
    diff_margin = (
        np.sum((g_x1_y1 - g_x2_y2) ** 2, axis=(1, 2))
        - params.lambda3 * (dx_sq + dy_sq)
    )

    return ProbeReport(
        n_probes=n_probes,
        radius=radius,
        seed=seed,
        tolerance=PROBE_TOLERANCE,
        monotone_violations=int(np.sum(monotone_margin > PROBE_TOLERANCE)),
        drift_anchor_violations=int(np.sum(anchor_margin > PROBE_TOLERANCE)),
        diffusion_violations=int(np.sum(diff_margin > PROBE_TOLERANCE)),
        worst_monotone_margin=float(np.max(monotone_margin)),
        worst_drift_anchor_margin=float(np.max(anchor_margin)),
        worst_diffusion_margin=float(np.max(diff_margin)),
    )
