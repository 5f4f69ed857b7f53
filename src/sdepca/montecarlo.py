"""Monte Carlo estimation of weak errors, mixing and contraction diagnostics.

The estimators follow a common-random-numbers protocol: every path index maps
to one fine Brownian lattice (keyed by the master seed), the reference
solution is evaluated on the fine lattice, and each coarse scheme consumes an
exact coarsening of the same increments.  Per-path quantities are computed
independently of how paths are grouped into batches, and reductions run in
path-index order with compensated summation, so results are bit-identical for
any worker count or chunk size.

Expectations are estimated by plain sample means with normal-approximation
95% confidence half-widths (1.96 * sd / sqrt(N)); path counts are >= 1000 in
all shipped experiment presets.
"""

from __future__ import annotations

import enum
import json
import math
import multiprocessing
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .brownian import _is_power_of_two, coarsen_array, generate_increments
from .integrators import BeConfig, Trajectory, run_scheme_batch
from .linear_analytic import LinearAdditiveParams, exact_finals_batch
from .model import DissipativityParams, SdepcaProblem, check_moment_condition

_Z95 = 1.96
#: Mean-square differences below this floor are treated as fully decayed when
#: fitting contraction rates (coupled chains underflow after enough blocks).
_DECAY_FLOOR = 1e-280
#: Share of paths that may fail before an estimate is abandoned.
_MAX_FAILURE_FRACTION = 1e-3


class MonteCarloFailure(RuntimeError):
    """Raised when more paths fail than the failure budget allows."""

    def __init__(self, failures, n_paths):
        self.failures = failures
        # a path can fail at several step sizes, so count paths, not entries
        n_failed = len({entry["path"] for entry in failures})
        super().__init__(
            f"{n_failed} path failures out of {n_paths} exceed the budget; "
            f"first: {failures[0] if failures else None}"
        )


class TestFunction(enum.Enum):
    """Bounded smooth test functions used by the experiment suite."""

    __test__ = False  # keep pytest from collecting this as a test class

    SIN_SQ = "sin_sq"            # sin(|x|^2)
    COS_ABS = "cos_abs"          # cos(|x|)
    ATAN_ABS = "atan_abs"        # arctan(|x|)
    EXP_NEG_SQ = "exp_neg_sq"    # exp(-|x|^2)
    ATAN_SQ = "atan_sq"          # arctan(|x|^2)
    SIN_SQ_SHIFT = "sin_sq_shift"  # sin(|x|^2 + pi/2)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        nrm = np.sqrt(np.sum(x * x, axis=-1))
        if self is TestFunction.SIN_SQ:
            return np.sin(nrm**2)
        if self is TestFunction.COS_ABS:
            return np.cos(nrm)
        if self is TestFunction.ATAN_ABS:
            return np.arctan(nrm)
        if self is TestFunction.EXP_NEG_SQ:
            return np.exp(-(nrm**2))
        if self is TestFunction.ATAN_SQ:
            return np.arctan(nrm**2)
        return np.sin(nrm**2 + 0.5 * math.pi)


#: Test-function presets of the two experiment figures per problem family.
EXAMPLE1_WEAK_PHIS = (
    TestFunction.SIN_SQ,
    TestFunction.COS_ABS,
    TestFunction.ATAN_ABS,
    TestFunction.EXP_NEG_SQ,
)
EXAMPLE2_WEAK_PHIS = (
    TestFunction.SIN_SQ_SHIFT,
    TestFunction.COS_ABS,
    TestFunction.ATAN_SQ,
    TestFunction.EXP_NEG_SQ,
)
EXAMPLE1_ERGODIC_PHIS = (
    TestFunction.ATAN_ABS,
    TestFunction.COS_ABS,
    TestFunction.SIN_SQ,
)
EXAMPLE2_ERGODIC_PHIS = (
    TestFunction.ATAN_ABS,
    TestFunction.SIN_SQ,
    TestFunction.EXP_NEG_SQ,
)


def _kahan_mean(values: np.ndarray) -> float:
    """Compensated mean in index order; order-fixed for reproducibility."""
    total = 0.0
    comp = 0.0
    for v in values:
        y = float(v) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total / len(values)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = _kahan_mean(values)
    n = len(values)
    if n < 2:
        return mean, math.inf
    var = _kahan_mean((values - mean) ** 2) * n / (n - 1)
    return mean, math.sqrt(var / n)


def _count_failed(ok: np.ndarray, failures: list) -> int:
    """Number of failed paths, those False in ``ok``, within the failure budget.

    Raises :class:`MonteCarloFailure` with ``failures``, the run's failure
    records, once more than ``_MAX_FAILURE_FRACTION`` of the paths failed.
    A failed path with no record, such as one whose reference or observable
    went non-finite, is logged by its index alone.
    """
    n_failed = int(ok.size - np.count_nonzero(ok))
    if n_failed > _MAX_FAILURE_FRACTION * ok.size:
        logged = {e["path"] for e in failures}
        unlogged = [{"path": int(p)} for p in np.flatnonzero(~ok) if p not in logged]
        # by path, so the log does not depend on the chunking
        raise MonteCarloFailure(sorted(failures + unlogged, key=lambda e: e["path"]), ok.size)
    return n_failed


def _path_means(values: np.ndarray, failures: list) -> tuple[np.ndarray, np.ndarray, int]:
    """Means and standard errors over the paths, the last axis of ``values``.

    A path with any non-finite entry is dropped from every mean.  Returns
    ``(means, standard_errors, n_failed)``; ``failures`` are the run's
    failure records for :func:`_count_failed`.
    """
    ok = np.all(np.isfinite(values), axis=tuple(range(values.ndim - 1)))
    n_failed = _count_failed(ok, failures)
    kept = values[..., ok]
    means = np.empty(values.shape[:-1])
    ses = np.empty(values.shape[:-1])
    for index in np.ndindex(means.shape):
        means[index], ses[index] = _mean_se(kept[index])
    return means, ses, n_failed


def _run_chunked(n_total: int, chunk_size: int, n_workers: int, worker) -> list:
    """``((lo, hi), worker(lo, hi))`` over consecutive path spans, in span order.

    With several workers the spans run in worker processes, at most one per
    CPU.  Threads do not pay here: the solver steps in Python and holds the
    GIL, so two threads ran the weak-error estimator at half the speed of
    one.  The workers are forked, because ``worker`` closes over problems
    and references whose coefficient functions need not be picklable; only
    the span and the worker's result cross the process boundary.  This
    library starts no threads of its own before forking.  Off Linux, where
    forking a process that has loaded system frameworks is not safe, the
    spans run in turn.
    """
    spans = [(i, min(i + chunk_size, n_total)) for i in range(0, n_total, chunk_size)]
    if hasattr(os, "sched_getaffinity"):
        n_cpus = len(os.sched_getaffinity(0))
    else:
        n_cpus = os.cpu_count() or 1
    n_procs = min(n_workers, len(spans), n_cpus)
    if n_procs <= 1 or not sys.platform.startswith("linux"):
        return [(span, worker(*span)) for span in spans]
    with ProcessPoolExecutor(
        max_workers=n_procs,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install_chunk_worker,
        initargs=(worker,),
    ) as pool:
        return list(zip(spans, pool.map(_call_chunk_worker, spans)))


#: The span worker of a forked pool process, set by its initializer; it
#: stays None in the parent.
_CHUNK_WORKER = None


def _install_chunk_worker(worker) -> None:
    global _CHUNK_WORKER
    _CHUNK_WORKER = worker


def _call_chunk_worker(span: tuple[int, int]):
    return _CHUNK_WORKER(*span)


def _chain_worker(
    problem: SdepcaProblem,
    cfg: BeConfig,
    starts: np.ndarray,
    K: int,
    master_seed: int,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, list]:
    """Block anchors (K+1, n_starts, hi-lo, d) of BE chains on paths lo..hi-1,
    and the run's failure records ``{"path", "start", "k", "l", "kind"}``.

    Each path's increments at step 1/m are regenerated from
    ``(master_seed, path_index)`` and drive every start, and all starts run
    in one batch.
    """
    n_starts, d = starts.shape
    r = problem.dim_noise
    if K > 0:
        incs = np.stack(
            [generate_increments(master_seed, i, float(K), cfg.delta, r) for i in range(lo, hi)]
        )
    else:
        incs = np.zeros((hi - lo, 0, r))
    x0 = np.broadcast_to(starts[:, None, :], (n_starts, hi - lo, d))
    run = run_scheme_batch("be", problem, cfg, incs, x0, K, record="anchors")
    # batch rows are start-major: row s * (hi - lo) + i is start s on path lo + i
    failures = [
        {"path": lo + row % (hi - lo), "start": row // (hi - lo), "k": k, "l": l, "kind": kind}
        for row, k, l, kind in run.failures
    ]
    return run.anchors.reshape(K + 1, n_starts, hi - lo, d), failures


def _chain_anchors(
    problem, cfg, starts, K, n_paths, master_seed, n_workers, chunk_size
) -> tuple[np.ndarray, list]:
    """Block anchors (K+1, n_starts, n_paths, d) of BE chains from each of
    ``starts``, and their failure records."""
    starts = np.asarray(starts, dtype=float)
    anchors = np.empty((K + 1, starts.shape[0], n_paths, starts.shape[1]))
    failures: list = []
    worker = partial(_chain_worker, problem, cfg, starts, K, master_seed)
    for (lo, hi), (out, records) in _run_chunked(n_paths, chunk_size, n_workers, worker):
        anchors[:, :, lo:hi] = out
        failures += records
    return anchors, failures


def fit_order(deltas: Sequence[float], errors: Sequence[float]) -> tuple[float, float]:
    """Ordinary least squares of log(error) against log(delta)."""
    deltas = np.asarray(deltas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(deltas) < 2 or len(deltas) != len(errors):
        raise ValueError("need at least two (delta, error) pairs")
    if np.any(deltas <= 0.0) or np.any(errors <= 0.0):
        raise ValueError("deltas and errors must be strictly positive")
    lx = np.log(deltas)
    ly = np.log(errors)
    xc = lx - lx.mean()
    slope = float(np.dot(xc, ly - ly.mean()) / np.dot(xc, xc))
    intercept = float(ly.mean() - slope * lx.mean())
    return slope, intercept


class _Report:
    """JSON and CSV writers shared by the estimators' report dataclasses."""

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), indent=2) + "\n")


def write_csv(path: str | Path, header: str, *columns) -> None:
    """One row per index of the equally long ``columns``, as round-trip f64 text."""
    rows = (",".join(f"{v:.17g}" for v in row) for row in zip(*columns))
    Path(path).write_text("\n".join([header, *rows]) + "\n")


@dataclass
class WeakErrorReport(_Report):
    """Per-step-size coupled errors E|phi(X(T)) - phi(Y_T)| and weak errors.

    ``errors`` is the pathwise metric, coupled on shared Brownian paths with
    95% half-widths ``half_widths``.  For state-dependent multiplicative
    noise it carries the scheme's strong order (about 1/2), not its weak
    order.  ``mean_gaps`` is the weak error |E phi(X(T)) - E phi(Y_T)|
    estimated on the same runs, with 95% half-widths
    ``mean_gap_half_widths`` from the signed per-path differences and
    ``mean_gap_slope`` its own log-log fit.  It is the pure weak error only
    if the reference's own weak bias is small against the scheme's: far
    below the Monte Carlo error for the linear sampler (see
    :func:`~sdepca.linear_analytic.exact_finals_batch`), O(h^2) for the
    extrapolated split-step reference (see :func:`ssbe_reference`).
    """

    deltas: list
    errors: list
    half_widths: list
    n_paths: int
    fitted_slope: Optional[float]
    fitted_intercept: Optional[float]
    mean_gaps: list
    mean_gap_half_widths: list
    mean_gap_slope: Optional[float]
    n_failed: int
    phi: str
    T: int

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, "delta,error,ci_half_width", self.deltas, self.errors, self.half_widths)


def linear_exact_reference(params: LinearAdditiveParams):
    """Reference sampler evaluating the exact linear solution at time T."""

    def reference(increments: np.ndarray, fine_step: float, T: int) -> np.ndarray:
        finals = exact_finals_batch(params, increments[..., 0], fine_step, T)
        return finals[:, None]

    return reference


@dataclass(frozen=True)
class ExtrapolatedReference:
    """A weak-order-1 reference sampler with its O(h) weak bias cancelled.

    Called on a batch of fine increments at step h, it returns the per-path
    endpoints X_h of ``sampler``; the pathwise metric couples these with the
    scheme under test.  :meth:`coarse` runs ``sampler`` at 2h on pairwise
    sums of the same increments, and :meth:`values` forms the per-path
    2 phi(X_h) - phi(X_{2h}), whose mean estimates E phi(X(T)) with an
    O(h^2) bias (Talay & Tubaro 1990).
    """

    sampler: Callable[[np.ndarray, float, int], np.ndarray]

    def __call__(self, increments: np.ndarray, fine_step: float, T: int) -> np.ndarray:
        return self.sampler(increments, fine_step, T)

    def coarse(self, increments: np.ndarray, fine_step: float, T: int) -> np.ndarray:
        return self.sampler(coarsen_array(increments, 2), 2.0 * fine_step, T)

    @staticmethod
    def values(phi: TestFunction, fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
        return 2.0 * phi(fine) - phi(coarse)


def ssbe_reference(problem: SdepcaProblem) -> ExtrapolatedReference:
    """Split-step backward Euler at the fine step, extrapolated over h and 2h.

    Split-step BE has weak order 1.  On the cubic experiment its bias at
    h = 2^-11 has the opposite sign to BE's and is 35-70% of BE's own weak
    error at delta = 2^-9, so the plain fine-step mean would flatten the
    weak-error curve.  The extrapolation removes that O(h) term.
    """

    def sampler(increments: np.ndarray, fine_step: float, T: int) -> np.ndarray:
        m = int(round(1.0 / fine_step))
        run = run_scheme_batch(
            "ssbe", problem, BeConfig(m=m), increments, problem.initial_state, T, record="final"
        )
        return run.finals

    return ExtrapolatedReference(sampler)


def estimate_weak_errors(
    problem: SdepcaProblem,
    reference: Callable[[np.ndarray, float, int], np.ndarray],
    deltas: Sequence[float],
    n_paths: int,
    T: int,
    phis: Sequence[TestFunction],
    master_seed: int,
    *,
    fine_step: float = 2.0**-11,
    n_workers: int = 1,
    chunk_size: int = 512,
) -> dict[TestFunction, WeakErrorReport]:
    """Coupled weak-error tables for several test functions on shared paths.

    For each path one fine lattice is generated; the reference consumes it
    directly and backward Euler consumes its coarsenings, so all errors are
    measured on the same Brownian path, and every test function is evaluated
    on the same simulated endpoints.  An :class:`ExtrapolatedReference`
    also runs on the pairwise sums of the lattice, and its extrapolated
    values stand for E phi(X(T)) in ``mean_gaps``.  Paths that fail anywhere
    are dropped pairwise across all step sizes, within the failure budget of
    :func:`_count_failed`.
    """
    if int(T) != T or T < 1:
        raise ValueError(f"T must be a positive integer, got {T}")
    T = int(T)
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if not phis:
        raise ValueError("need at least one test function")
    deltas = [float(d) for d in deltas]
    ms = []
    factors = []
    for d in deltas:
        if not _is_power_of_two(d):
            raise ValueError(f"step size {d} is not dyadic")
        if d <= fine_step:
            raise ValueError(f"step size {d} must exceed the fine step {fine_step}")
        m = round(1.0 / d)
        factor = round(d / fine_step)
        if abs(m * d - 1.0) > 1e-12 or abs(factor * fine_step - d) > 1e-18:
            raise ValueError(f"step size {d} is not coarsenable from {fine_step}")
        ms.append(m)
        factors.append(factor)

    r = problem.dim_noise
    d_state = problem.dim_state
    n_deltas = len(deltas)
    extrapolated = isinstance(reference, ExtrapolatedReference)
    ref_finals = np.full((n_paths, d_state), np.nan)
    ref_coarse = np.full((n_paths, d_state), np.nan) if extrapolated else None
    num_finals = np.full((n_deltas, n_paths, d_state), np.nan)

    def worker(lo: int, hi: int):
        incs = np.stack(
            [generate_increments(master_seed, i, float(T), fine_step, r) for i in range(lo, hi)]
        )
        ref = reference(incs, fine_step, T)
        ref_2h = reference.coarse(incs, fine_step, T) if extrapolated else None
        finals = np.empty((n_deltas, hi - lo, d_state))
        failures = []
        for j, (delta, m, factor) in enumerate(zip(deltas, ms, factors)):
            coarse = coarsen_array(incs, factor)
            run = run_scheme_batch(
                "be", problem, BeConfig(m=m), coarse, problem.initial_state, T, record="final"
            )
            for row, k, l, kind in run.failures:
                failures.append({"path": lo + row, "delta": delta, "k": k, "l": l, "kind": kind})
            finals[j] = run.finals
        return ref, ref_2h, finals, failures

    failure_log: list = []
    for (lo, hi), (ref, ref_2h, finals, failures) in _run_chunked(
        n_paths, chunk_size, n_workers, worker
    ):
        ref_finals[lo:hi] = ref
        if extrapolated:
            ref_coarse[lo:hi] = ref_2h
        num_finals[:, lo:hi] = finals
        failure_log += failures

    ok = np.all(np.isfinite(ref_finals), axis=-1) & np.all(
        np.isfinite(num_finals), axis=(0, 2)
    )
    if extrapolated:
        ok &= np.all(np.isfinite(ref_coarse), axis=-1)
    n_failed = _count_failed(ok, failure_log)

    reports: dict[TestFunction, WeakErrorReport] = {}
    for phi in phis:
        pr = phi(ref_finals[ok])
        target = reference.values(phi, ref_finals[ok], ref_coarse[ok]) if extrapolated else pr
        mean_ref = _kahan_mean(target)
        errors = []
        half_widths = []
        mean_gaps = []
        mean_gap_half_widths = []
        for j in range(n_deltas):
            pn = phi(num_finals[j, ok])
            mean, se = _mean_se(np.abs(pr - pn))
            errors.append(mean)
            half_widths.append(_Z95 * se)
            mean_gaps.append(abs(mean_ref - _kahan_mean(pn)))
            mean_gap_half_widths.append(_Z95 * _mean_se(target - pn)[1])

        slope = intercept = None
        if n_deltas >= 2 and all(e > 0.0 for e in errors):
            slope, intercept = fit_order(deltas, errors)
        else:
            warnings.warn("weak-error slope undefined (need >= 2 step sizes with positive errors)")
        gap_slope = None
        if n_deltas >= 2 and all(g > 0.0 for g in mean_gaps):
            gap_slope, _ = fit_order(deltas, mean_gaps)

        reports[phi] = WeakErrorReport(
            deltas=deltas,
            errors=errors,
            half_widths=half_widths,
            n_paths=n_paths,
            fitted_slope=slope,
            fitted_intercept=intercept,
            mean_gaps=mean_gaps,
            mean_gap_half_widths=mean_gap_half_widths,
            mean_gap_slope=gap_slope,
            n_failed=n_failed,
            phi=phi.value,
            T=T,
        )
    return reports


def estimate_weak_error(
    problem: SdepcaProblem,
    reference: Callable[[np.ndarray, float, int], np.ndarray],
    deltas: Sequence[float],
    n_paths: int,
    T: int,
    phi: TestFunction,
    master_seed: int,
    **kwargs,
) -> WeakErrorReport:
    """Single-test-function form of :func:`estimate_weak_errors`."""
    return estimate_weak_errors(
        problem, reference, deltas, n_paths, T, [phi], master_seed, **kwargs
    )[phi]


@dataclass
class ErgodicityReport(_Report):
    """Mean traces of phi(Y_k) from several initial values, plus their spread.

    ``pooled_se[k]`` is sqrt(2) times the root-mean-square standard error
    across initials: the scale of a typical pairwise trace difference if the
    chains were independent (the coupled chains are positively correlated, so
    this is conservative).
    """

    initials: list
    traces: list
    standard_errors: list
    spread: list
    pooled_se: list
    n_paths: int
    n_failed: int
    phi: str

    def to_csv(self, path: str | Path) -> None:
        header = "k," + "".join(f"trace_{i}," for i in range(len(self.initials))) + "spread"
        write_csv(path, header, range(len(self.spread)), *self.traces, self.spread)


def ergodic_mean_trace(
    problem: SdepcaProblem,
    cfg: BeConfig,
    initials: Sequence,
    K: int,
    n_paths: int,
    phi: TestFunction,
    master_seed: int,
    *,
    n_workers: int = 1,
    chunk_size: int = 512,
) -> ErgodicityReport:
    """Estimate E phi(Y_k), k = 0..K, from each initial value.

    All initials are driven by the same family of increment lattices (path
    index i uses the same noise for every initial), so the spread directly
    measures how fast the chains forget their starting point.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    initial_arr = np.atleast_2d(np.asarray(initials, dtype=float))
    if initial_arr.shape[0] == 1 and problem.dim_state == 1 and len(initials) > 1:
        initial_arr = np.asarray(initials, dtype=float)[:, None]
    if not np.all(np.isfinite(initial_arr)):
        raise ValueError("initial values must be finite")
    anchors, failures = _chain_anchors(
        problem, cfg, initial_arr, K, n_paths, master_seed, n_workers, chunk_size
    )
    # a huge state overflows phi; _path_means counts such a path as failed
    with np.errstate(over="ignore", invalid="ignore"):
        values = phi(anchors)
    # (initial, k, path)
    traces, ses, n_failed = _path_means(values.transpose(1, 0, 2), failures)
    spread = traces.max(axis=0) - traces.min(axis=0)
    pooled = np.sqrt(2.0 * np.mean(ses**2, axis=0))

    return ErgodicityReport(
        initials=initial_arr.tolist(),
        traces=traces.tolist(),
        standard_errors=ses.tolist(),
        spread=spread.tolist(),
        pooled_se=pooled.tolist(),
        n_paths=n_paths,
        n_failed=n_failed,
        phi=phi.value,
    )


def time_average(trajectory: Trajectory, phi: Callable[[np.ndarray], np.ndarray]) -> float:
    """Time average (1/K) sum of phi over the anchors Y_0 .. Y_{K-1}.

    ``phi`` is any observable mapping (..., d) states to scalars, e.g. a
    :class:`TestFunction`.
    """
    n_anchors = trajectory.n_anchors
    if n_anchors < 1:
        raise ValueError("trajectory has no anchors")
    if n_anchors == 1:
        return float(phi(trajectory.anchor(0)))
    values = phi(trajectory.anchors()[:-1])
    return _kahan_mean(np.atleast_1d(values))


@dataclass
class ContractionReport(_Report):
    """Empirical mean-square distance of coupled chains, with a decay fit."""

    x: list
    y: list
    mean_sq_diffs: list
    half_widths: list
    fitted_decay_factor: Optional[float]
    decay_factor_se: Optional[float]
    bound: Optional[float]
    n_paths: int
    n_failed: int

    def to_csv(self, path: str | Path) -> None:
        k = range(len(self.mean_sq_diffs))
        write_csv(path, "k,mean_sq_diff,ci_half_width", k, self.mean_sq_diffs, self.half_widths)


def contraction_estimate(
    problem: SdepcaProblem,
    cfg: BeConfig,
    x: np.ndarray | float,
    y: np.ndarray | float,
    n_paths: int,
    K: int,
    master_seed: int,
    *,
    params: Optional[DissipativityParams] = None,
    n_workers: int = 1,
    chunk_size: int = 512,
) -> ContractionReport:
    """Mean-square distance E|Y_k^x - Y_k^y|^2 of noise-coupled chains.

    Each path index drives both chains with identical increments.  The decay
    factor per unit time is fitted on the log of the positive part of the
    trace; when dissipativity constants are supplied, the analytic per-block
    contraction factor is attached for comparison.
    """
    x_arr = np.asarray(x, dtype=float).reshape(problem.dim_state)
    y_arr = np.asarray(y, dtype=float).reshape(problem.dim_state)
    if np.array_equal(x_arr, y_arr):
        raise ValueError("initial values x and y must differ")
    if K < 1:
        raise ValueError("K must be >= 1")

    anchors, failures = _chain_anchors(
        problem, cfg, np.stack([x_arr, y_arr]), K, n_paths, master_seed, n_workers, chunk_size
    )
    # a huge state overflows the square; _path_means counts such a path as failed
    with np.errstate(over="ignore", invalid="ignore"):
        diff = anchors[:, 0] - anchors[:, 1]
        sq_diffs = np.sum(diff * diff, axis=-1)
    msd, ses, n_failed = _path_means(sq_diffs, failures)
    hw = _Z95 * ses

    usable = np.flatnonzero(np.isfinite(msd) & (msd > _DECAY_FLOOR))
    factor = factor_se = None
    if usable.size >= 2:
        ks = usable.astype(float)
        ly = np.log(msd[usable])
        kc = ks - ks.mean()
        slope = float(np.dot(kc, ly - ly.mean()) / np.dot(kc, kc))
        resid = ly - (ly.mean() + slope * kc)
        dof = max(usable.size - 2, 1)
        slope_se = math.sqrt(float(np.dot(resid, resid)) / dof / float(np.dot(kc, kc)))
        factor = math.exp(slope)
        factor_se = factor * slope_se

    bound = None
    if params is not None:
        from .model import contraction_rates

        bound = contraction_rates(params, cfg.delta, cfg.m).rbar1_block

    return ContractionReport(
        x=x_arr.tolist(),
        y=y_arr.tolist(),
        mean_sq_diffs=msd.tolist(),
        half_widths=hw.tolist(),
        fitted_decay_factor=factor,
        decay_factor_se=factor_se,
        bound=bound,
        n_paths=n_paths,
        n_failed=n_failed,
    )


@dataclass
class MomentReport(_Report):
    """Per-block estimates of E|Y_k|^(2p) with a monotone-growth flag.

    The flag fires when the trace increases strictly at every step over the
    last half of the horizon and the total increase exceeds the combined
    confidence half-widths of the window endpoints.
    """

    p: int
    moments: list
    half_widths: list
    growth_flag: bool
    n_paths: int
    n_failed: int

    def to_csv(self, path: str | Path) -> None:
        k = range(len(self.moments))
        write_csv(path, "k,moment,ci_half_width", k, self.moments, self.half_widths)


def moment_estimate(
    problem: SdepcaProblem,
    cfg: BeConfig,
    p: int,
    n_paths: int,
    K: int,
    master_seed: int,
    *,
    params: Optional[DissipativityParams] = None,
    n_workers: int = 1,
    chunk_size: int = 512,
) -> MomentReport:
    """Monte Carlo trace of the 2p-th moment of the block anchors."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if K < 1:
        raise ValueError("K must be >= 1")
    if params is not None and not check_moment_condition(params, p):
        warnings.warn(
            f"moment condition fails for p={p}; the 2p-th moment may be unbounded"
        )
    anchors, failures = _chain_anchors(
        problem, cfg, [problem.initial_state], K, n_paths, master_seed, n_workers, chunk_size
    )
    # a huge state overflows the power; _path_means counts such a path as failed
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.sum(anchors[:, 0] ** 2, axis=-1) ** p
    moments, ses, n_failed = _path_means(powers, failures)
    hw = _Z95 * ses

    window_start = K - K // 2
    window = moments[window_start:]
    strictly_up = bool(np.all(np.diff(window) > 0.0)) if window.size > 1 else False
    beyond_ci = window[-1] - window[0] > hw[window_start] + hw[-1]
    growth_flag = strictly_up and bool(beyond_ci)

    return MomentReport(
        p=p,
        moments=moments.tolist(),
        half_widths=hw.tolist(),
        growth_flag=growth_flag,
        n_paths=n_paths,
        n_failed=n_failed,
    )


@dataclass(frozen=True)
class RecursionBoundReport:
    """Outcome of checking the discrete Gronwall-type recursion bound."""

    ok: bool
    first_violation: Optional[int]
    hypothesis_failures: tuple

    def __bool__(self) -> bool:
        return self.ok


def check_recursion_bound(
    z: Sequence[float],
    alpha: float,
    beta: float,
    gamma: float,
    delta: float,
    m: int,
) -> RecursionBoundReport:
    """Check the block recursion bound along a nonnegative sequence.

    Hypothesis at index n = k*m+l+1:  z[n] <= (1 - alpha*delta) z[n-1]
    + beta*delta z[k*m] + gamma*delta.  Wherever the hypothesis has held at
    every step since the block anchor, the conclusion

        z[n] <= (beta/alpha + (1 - beta/alpha) e^{-alpha (l+1) delta}) z[k*m]
                + gamma/alpha

    is asserted.  Indices with a broken hypothesis are reported and exempt
    from the assertion (the bound is vacuous there).
    """
    if not (alpha > beta > 0.0):
        raise ValueError("need alpha > beta > 0")
    if gamma <= 0.0:
        raise ValueError("need gamma > 0")
    if not 1.0 - alpha * delta > 0.0:
        raise ValueError("need 1 - alpha*delta > 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("sequence must be nonnegative")

    tol = 1e-9 * max(1.0, float(np.max(z, initial=0.0)), gamma / alpha)
    ratio = beta / alpha
    ok = True
    first_violation = None
    hypothesis_failures: list[int] = []

    for block_start in range(0, len(z) - 1, m):
        z_anchor = z[block_start]
        hypothesis_held = True
        for l in range(m):
            n = block_start + l + 1
            if n >= len(z):
                break
            rhs = (1.0 - alpha * delta) * z[n - 1] + beta * delta * z_anchor + gamma * delta
            if z[n] > rhs + tol:
                hypothesis_failures.append(n)
                hypothesis_held = False
            if hypothesis_held:
                bound = (
                    ratio + (1.0 - ratio) * math.exp(-alpha * (l + 1) * delta)
                ) * z_anchor + gamma / alpha
                if z[n] > bound + tol:
                    ok = False
                    if first_violation is None:
                        first_violation = n
    return RecursionBoundReport(
        ok=ok,
        first_violation=first_violation,
        hypothesis_failures=tuple(hypothesis_failures),
    )
