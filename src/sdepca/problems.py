"""Registry of the built-in experiment problems, addressable by name.

Two families are provided:

* ``linear-additive``: scalar mean-reverting drift with anchor feedback and
  unit additive noise, dX = (-theta1*X + theta2*X([t])) dt + dB.
* ``cubic-multiplicative``: scalar dissipative cubic drift with linear
  multiplicative noise, dX = (-X^3 - 10X + 2*X([t]) + 1) dt
  + (a*X + b*X([t])) dB.

:data:`BUILTINS` alone names them, their parameters with their defaults, and
their weak-order experiments; each builder checks its own parameters.
Custom problems are constructed directly as
:class:`~sdepca.model.SdepcaProblem`.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .linear_analytic import LinearAdditiveParams
from .model import DissipativityParams, SdepcaProblem
from .montecarlo import (
    EXAMPLE1_WEAK_PHIS, EXAMPLE2_WEAK_PHIS, Reference, TestFunction, linear_exact_reference, ssbe_reference,
)

#: Nominal diffusion Lipschitz constant for problems with constant diffusion;
#: lambda3 must be strictly positive but can be taken arbitrarily small.
CONSTANT_DIFFUSION_LAMBDA3 = 1e-9


def linear_additive(theta1: float, theta2: float, x0: float = 1.0) -> SdepcaProblem:
    """Scalar linear problem with additive unit noise."""
    LinearAdditiveParams(theta1, theta2, x0)
    # 0-d arrays, not Python floats: numpy's fixed cost per operation is
    # most of a tick's, and a Python float operand adds to it
    minus_theta1, theta2_ = np.array(-float(theta1)), np.array(float(theta2))

    def drift(x, y):
        return minus_theta1 * x + theta2_ * y

    def diffusion(x, y):
        return np.ones(np.shape(x)[:-1] + (1, 1))

    def jacobian(x, y):
        return np.full(np.shape(x)[:-1] + (1, 1), -theta1)

    def implicit_start(y, delta):
        # the root of x - delta*(-theta1*x + theta2*y) = rhs
        shift, scale = delta * (theta2 * y), 1.0 + delta * theta1
        return lambda rhs: (rhs + shift) / scale

    return SdepcaProblem(
        dim_state=1,
        dim_noise=1,
        drift=drift,
        diffusion=diffusion,
        initial_state=np.array([x0]),
        drift_jacobian_x=jacobian,
        implicit_start=implicit_start,
    )


def cubic_multiplicative(a: float, b: float, x0: float = 2.0) -> SdepcaProblem:
    """Scalar cubic-drift problem with linear multiplicative noise."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"a and b must be finite, got {a} and {b}")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    # 0-d arrays, not Python floats, as in linear_additive
    ten, two, one, a_, b_ = (np.array(float(v)) for v in (10.0, 2.0, 1.0, a, b))

    def drift(x, y):
        # x * x * x, not x**3: numpy's pow takes a slow path for negative
        # bases, which made it most of the implicit solver's time
        return -(x * x * x) - ten * x + two * y + one

    def diffusion(x, y):
        return (a_ * x + b_ * y)[..., None]

    def jacobian(x, y):
        return (-3.0 * x**2 - 10.0)[..., None]

    def implicit_start(y, delta):
        # x - delta*f(x, y) = rhs is x^3 + p x = q, whose one real root is
        # 2 sqrt(p/3) sinh(asinh(3q/(2p) sqrt(3/p)) / 3); sinh and asinh keep
        # their relative accuracy at every q, where Cardano's formula cancels
        p = 1.0 / delta + 10.0
        s = np.sqrt(p / 3.0)
        scale, two_s, two_y = 1.5 / (p * s), 2.0 * s, 2.0 * y
        # arrays, not Python floats, and in place: numpy's fixed cost per
        # operation is most of a step's on a few thousand rows
        one, three = np.ones_like(y), np.full_like(y, 3.0)

        def start(rhs):
            # 2 s sinh(asinh((rhs/delta + 2y + 1) scale) / 3), in that order
            x = rhs / delta
            x += two_y
            x += one
            x *= scale
            np.arcsinh(x, out=x)
            x /= three
            np.sinh(x, out=x)
            x *= two_s
            return x

        return start

    return SdepcaProblem(
        dim_state=1,
        dim_noise=1,
        drift=drift,
        diffusion=diffusion,
        initial_state=np.array([x0]),
        drift_jacobian_x=jacobian,
        implicit_start=implicit_start,
    )


def linear_additive_dissipativity(theta1: float, theta2: float) -> DissipativityParams:
    """Dissipativity constants of the linear problem.

    The drift is exactly -theta1-monotone in x and theta2-Lipschitz in the
    anchor; the diffusion is constant, so any positive lambda3 works and
    ``|g(0,0)|^2 = 1``.
    """
    return DissipativityParams(
        lambda1=theta1,
        lambda2=theta2**2,
        lambda3=CONSTANT_DIFFUSION_LAMBDA3,
        f00_norm_sq=0.0,
        g00_norm_sq=1.0,
    )


def cubic_multiplicative_dissipativity(a: float, b: float) -> DissipativityParams:
    """Dissipativity constants of the cubic problem.

    The cubic term only strengthens monotonicity, so lambda1 = 10 from the
    linear part; the anchor coefficient 2 gives lambda2 = 4; the diffusion
    satisfies |a dx + b dy|^2 <= 2 max(a^2, b^2) (|dx|^2 + |dy|^2).  These
    constants are validated by ``probe_dissipativity`` in the test suite
    before being used anywhere else.
    """
    lambda3 = max(2.0 * max(a**2, b**2), 1e-12)
    return DissipativityParams(
        lambda1=10.0,
        lambda2=4.0,
        lambda3=lambda3,
        f00_norm_sq=1.0,
        g00_norm_sq=0.0,
    )


def _linear_additive_reference(problem: SdepcaProblem, theta1: float, theta2: float) -> Reference:
    """The exact solution of the linear problem from its start."""
    x0 = float(problem.initial_state[0])
    return linear_exact_reference(LinearAdditiveParams(theta1, theta2, x0))


class WeakPreset(NamedTuple):
    """A weak-order experiment: T, path count, test functions, and the
    reference from the problem and its parameters."""

    T: int
    n_paths: int
    phis: tuple[TestFunction, ...]
    reference: Callable[..., Reference]


class Builtin(NamedTuple):
    """A built-in's parameters besides ``x0`` with their defaults, builder,
    dissipativity and weak-order experiment."""

    params: dict[str, float]
    build: Callable[..., SdepcaProblem]
    dissipativity: Callable[..., DissipativityParams]
    weak: WeakPreset


BUILTINS = {
    "linear-additive": Builtin(
        {"theta1": 3.0, "theta2": 1.0}, linear_additive, linear_additive_dissipativity,
        WeakPreset(5, 1000, EXAMPLE1_WEAK_PHIS, _linear_additive_reference),
    ),
    "cubic-multiplicative": Builtin(
        {"a": 1.0, "b": 1.0}, cubic_multiplicative, cubic_multiplicative_dissipativity,
        WeakPreset(6, 2000, EXAMPLE2_WEAK_PHIS, lambda problem, a, b: ssbe_reference(problem)),
    ),
}


def _builtin(name: str) -> Builtin:
    if name not in BUILTINS:
        raise KeyError(f"unknown problem {name!r}; known: {tuple(BUILTINS)}")
    return BUILTINS[name]


def make_problem(name: str, **params: float) -> SdepcaProblem:
    """Build the built-in ``name`` from its parameters and an optional ``x0``."""
    return _builtin(name).build(**params)


def default_dissipativity(name: str, **params: float) -> DissipativityParams:
    """Dissipativity constants of the built-in ``name`` from exactly its parameters."""
    return _builtin(name).dissipativity(**params)
