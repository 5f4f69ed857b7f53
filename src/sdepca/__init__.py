"""Backward Euler simulation and invariant-measure diagnostics for SDEs with
piecewise-constant arguments."""

__version__ = "0.1.0"

from .brownian import BrownianGrid, block_increment, coarsen, generate_path
from .integrators import (
    BeConfig,
    NonConvergenceError,
    NonFiniteError,
    Trajectory,
    be_mean_multiplier,
    be_step,
    simulate_be,
    simulate_em,
    simulate_ssbe,
    solve_implicit,
)
from .linear_analytic import (
    LinearAdditiveParams,
    LinearLaw,
    exact_mean,
    exact_sample_integer,
    exact_sample_path,
    exact_variance,
    law,
    stationary_region,
)
from .model import (
    ContractionRates,
    DissipativityParams,
    ProbeReport,
    SdepcaProblem,
    check_ergodicity_condition,
    check_moment_condition,
    contraction_rates,
    probe_dissipativity,
)
from .montecarlo import (
    ContractionReport,
    ErgodicityReport,
    ExtrapolatedReference,
    MomentReport,
    MonteCarloFailure,
    RecursionBoundReport,
    Reference,
    TestFunction,
    WeakErrorReport,
    check_recursion_bound,
    contraction_estimate,
    ergodic_mean_trace,
    estimate_weak_error,
    estimate_weak_errors,
    fit_order,
    linear_exact_reference,
    moment_estimate,
    ssbe_reference,
    time_average,
)
from .problems import make_problem, default_dissipativity

__all__ = [name for name in dir() if not name.startswith("_")]
