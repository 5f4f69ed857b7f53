"""Monte Carlo estimation of weak errors, mixing and contraction diagnostics.

The estimators follow a common-random-numbers protocol: every path index maps
to one fine Brownian lattice (keyed by the master seed), drawn as one stream
of step-major pieces.  Every estimator is one set of lanes of
:func:`~sdepca.integrators.run_lanes`, run by one span worker on each span of
paths: the weak-error reference steps on the fine lattice and backward Euler
at each step size on an exact coarsening of the same increments; the chain
estimators run one BE lane per start on the same noise.  Per-path
quantities are computed independently of how paths are grouped into
batches, and every mean sums contiguous rows of paths in path-index order
with numpy's pairwise sum, so results are bit-identical for any worker count.

Expectations are estimated by plain sample means with normal-approximation
95% confidence half-widths (1.96 * sd / sqrt(N)); path counts are >= 1000 in
all shipped experiment presets.
"""

from __future__ import annotations

import enum
import json
import math
import multiprocessing
import numbers
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

# coarsen_array, generate_increments, run_scheme_batch and
# exact_finals_batch are not called here since the estimators step through
# run_lanes; they stay importable from this module because bench/tracing.py
# wraps them here by name
from .brownian import coarsen_array, generate_increments, increment_pieces, piece_steps, steps_per_unit
from .integrators import BeConfig, BlockMap, Lane, run_lanes, run_scheme_batch
from .linear_analytic import LinearAdditiveParams, exact_finals_batch, exact_map
from .model import DissipativityParams, SdepcaProblem, check_moment_condition, contraction_rates

_Z95 = 1.96
#: Mean-square differences below this floor are treated as fully decayed when
#: fitting contraction rates (coupled chains underflow after enough blocks).
_DECAY_FLOOR = 1e-280
#: Share of paths that may fail before an estimate is abandoned.
_MAX_FAILURE_FRACTION = 1e-3
#: Most noise that one span holds at once: 256 steps of 2048 paths at r = 1.
_SPAN_NOISE_BYTES = 4 * 2**20


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
        # |x| squares no entry, so it is finite for every finite state; a
        # state of NaN, as a failed path leaves, gives NaN
        nrm = np.hypot.reduce(np.abs(x), axis=-1)
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


def _mean(values: np.ndarray):
    """Mean over the last axis: each row's first entry plus numpy's pairwise
    sum of the offsets from it, on a C-contiguous copy.

    On contiguous rows numpy sums each row as it sums that row alone, so the
    mean does not depend on the layout of ``values``, on masks or on spans.
    The offsets keep a row of equal entries exact.
    """
    first = values[..., :1]
    offsets = np.ascontiguousarray(values - first)
    return first[..., 0] + np.add.reduce(offsets, axis=-1) / values.shape[-1]


def _mean_se(values: np.ndarray):
    """Means and standard errors over the last axis."""
    mean = _mean(values)
    dev = values - np.expand_dims(mean, -1)
    return mean, np.sqrt(_mean(dev**2) / (values.shape[-1] - 1))


def _reject_repeats(values: list, what: str) -> None:
    """Raise a ``ValueError`` naming the first of ``values`` that is repeated."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{what} {value} is repeated")


def _finite_paths(
    values: np.ndarray, failures: list, phi: str | None = None
) -> tuple[np.ndarray, int]:
    """The paths, the last axis of ``values``, whose entries are all finite,
    and the number of failed paths, those with a non-finite entry.

    Raises :class:`MonteCarloFailure` with ``failures``, the run's failure
    records, once more than ``_MAX_FAILURE_FRACTION`` of the paths failed.
    A failed path with no record, one whose observable was not finite, is
    logged by its index, and by the name ``phi`` of its test function if set.
    """
    ok = np.all(np.isfinite(values), axis=tuple(range(values.ndim - 1)))
    n_failed = int(ok.size - np.count_nonzero(ok))
    if n_failed > _MAX_FAILURE_FRACTION * ok.size:
        logged = {e["path"] for e in failures}
        mark = {} if phi is None else {"phi": phi}
        unlogged = [{"path": int(p), **mark} for p in np.flatnonzero(~ok) if p not in logged]
        # by path, so the log does not depend on the spans
        raise MonteCarloFailure(sorted(failures + unlogged, key=lambda e: e["path"]), ok.size)
    return values[..., ok], n_failed


#: The span worker of a forked pool process, set by its initializer; it
#: stays None in the parent.
_SPAN_WORKER = None


def _install_span_worker(worker) -> None:
    global _SPAN_WORKER
    _SPAN_WORKER = worker


def _call_span_worker(span: tuple[int, int]):
    return _SPAN_WORKER(*span)


def _lane_worker(
    problem: SdepcaProblem,
    lanes: Sequence[Lane],
    K: int,
    fine_step: float,
    master_seed: int,
    lo: int,
    hi: int,
) -> tuple[list, list]:
    """One :func:`~sdepca.integrators.run_lanes` run of ``lanes`` on paths
    lo..hi-1, over K unit blocks of fine increments at ``fine_step``.

    Each path's increments are regenerated from ``(master_seed, path_index)``
    as one stream of step-major pieces, each holding whole steps of the
    widest lane, which the runner cuts at the ends of the unit blocks.
    Returns each lane's block anchors (K+1, hi-lo, d) and the run's failure
    records ``(lane, path, k, l, kind)``, lane by lane.
    """
    widest = max(lane.factor for lane in lanes)
    m = steps_per_unit(fine_step)
    pieces = increment_pieces(master_seed, lo, hi, K * m, fine_step, problem.dim_noise, widest)
    runs = run_lanes(problem, lanes, pieces, hi - lo, m, K)
    records = [
        (i, lo + row, k, l, kind) for i, run in enumerate(runs) for row, k, l, kind in run.failures
    ]
    return [run.anchors for run in runs], records


def _run_lanes_in_spans(
    problem, lanes, K, fine_step, master_seed, n_paths, n_workers
) -> tuple[list, list]:
    """:func:`_lane_worker` over all paths in consecutive spans: each lane's
    results joined along the path axis, and the records in span order.

    A span is ``ceil(n_paths / n_workers)`` paths, capped at ``_SPAN_NOISE_BYTES``
    of noise held at once: one piece of fine steps of the widest lane.

    With several workers the spans run in worker processes, at most one per
    CPU.  Threads do not pay here: the solver steps in Python and holds the
    GIL, so two threads ran the weak-error estimator at half the speed of
    one.  The workers are forked, because the span worker closes over
    problems and lanes whose coefficient functions need not be picklable;
    only the span and the worker's result cross the process boundary.  This
    library starts no threads of its own before forking.  Off Linux, where
    forking a process that has loaded system frameworks is not safe, the
    spans run in turn.
    """
    if not isinstance(n_paths, numbers.Integral) or n_paths < 2:
        # a standard error needs two paths
        raise ValueError(f"n_paths must be an integer of at least 2, got {n_paths!r}")
    if not isinstance(n_workers, numbers.Integral) or n_workers < 1:
        raise ValueError(f"n_workers must be a positive integer, got {n_workers!r}")
    if not isinstance(K, numbers.Integral):
        raise ValueError(f"K must be an integer, got {K!r}")
    path_bytes = 8 * problem.dim_noise * piece_steps(max(lane.factor for lane in lanes))
    width = min(-(-n_paths // n_workers), max(1, _SPAN_NOISE_BYTES // path_bytes))
    spans = [(i, min(i + width, n_paths)) for i in range(0, n_paths, width)]
    worker = partial(_lane_worker, problem, lanes, K, fine_step, master_seed)
    n_procs = 1
    if sys.platform.startswith("linux"):
        n_procs = min(n_workers, len(spans), len(os.sched_getaffinity(0)))
    if n_procs <= 1:
        outs = [worker(*span) for span in spans]
    else:
        with ProcessPoolExecutor(
            max_workers=n_procs,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_install_span_worker,
            initargs=(worker,),
        ) as pool:
            outs = list(pool.map(_call_span_worker, spans))
    results = [np.concatenate(parts, axis=-2) for parts in zip(*(out for out, _ in outs))]
    return results, [record for _, records in outs for record in records]


def _chain_anchors(
    problem, cfg, starts, K, n_paths, master_seed, n_workers
) -> tuple[np.ndarray, list]:
    """Block anchors (K+1, n_starts, n_paths, d) of BE chains from each of
    ``starts``, one lane per start on the same noise, and their failure
    records ``{"path", "start", "k", "l", "kind"}`` by (path, k, l, start).
    A non-finite start and a step 1/m that is not 2^-k are rejected before
    any span runs."""
    starts = np.asarray(starts, dtype=float)
    if not np.all(np.isfinite(starts)):
        raise ValueError("initial values must be finite")
    steps_per_unit(cfg.delta, f"the step 1/m for m = {cfg.m}")
    lanes = [Lane("be", x0=start) for start in starts]
    anchors, records = _run_lanes_in_spans(
        problem, lanes, K, cfg.delta, master_seed, n_paths, n_workers
    )
    failures = [
        {"path": path, "start": start, "k": k, "l": l, "kind": kind}
        for start, path, k, l, kind in sorted(records, key=lambda r: (r[1], r[2], r[3], r[0]))
    ]
    return np.stack(anchors, axis=1), failures


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Ordinary least squares of y against x: ``(slope, intercept,
    slope_se)``, the slope's standard error from the residuals."""
    xc = x - x.mean()
    sxx = np.dot(xc, xc)
    slope = float(np.dot(xc, y - y.mean()) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (y.mean() + slope * xc)
    slope_se = math.sqrt(float(np.dot(resid, resid)) / max(x.size - 2, 1) / float(sxx))
    return slope, intercept, slope_se


def fit_order(deltas: Sequence[float], errors: Sequence[float]) -> tuple[float, float]:
    """Ordinary least squares of log(error) against log(delta)."""
    deltas = np.asarray(deltas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(set(deltas.tolist())) < 2 or len(deltas) != len(errors):
        raise ValueError(f"need (delta, error) pairs at two distinct deltas, got {deltas.tolist()}")
    if not np.all((deltas > 0.0) & (deltas < np.inf) & (errors > 0.0) & (errors < np.inf)):
        raise ValueError("deltas and errors must be finite and strictly positive")
    slope, intercept, _ = _fit_line(np.log(deltas), np.log(errors))
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
    below the Monte Carlo error for the exact linear solution (see
    :func:`linear_exact_reference` and
    :func:`~sdepca.linear_analytic.exact_map`), O(h^2) for the
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

    @property
    def gap_resolved(self) -> bool:
        """Whether the mean gap at the finest step exceeds its own 95% half-width."""
        return self.mean_gaps[-1] > self.mean_gap_half_widths[-1]

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, "delta,error,ci_half_width", self.deltas, self.errors, self.half_widths)


@dataclass(frozen=True)
class Reference:
    """The reference solution of a weak-error estimate, as lanes of the runner.

    ``lanes`` is one lane, or one scheme's lane at the fine step h and its
    copy at 2h, twice the factor, from the same start.  ``lanes[0]`` gives
    the endpoints that the pathwise metric couples with the scheme under
    test.  With the pair, the per-path 2 phi(X_h) - phi(X_{2h}) estimates
    E phi(X(T)) with an O(h^2) bias (Talay & Tubaro 1990).  The lanes'
    factors count fine steps: in :func:`estimate_weak_errors` they step on
    the fine lattice in the same run as backward Euler at each step size.
    ``problem`` gives the coefficients of a stepping lane, and the estimate
    must be of the same problem; it is None for a lane that maps whole blocks.
    """

    problem: Optional[SdepcaProblem]
    lanes: tuple

    def __post_init__(self) -> None:
        if len(self.lanes) == 2:
            fine, coarse = self.lanes
            same_start = np.array_equal(coarse.x0, fine.x0)
            if same_start and (coarse.scheme, coarse.factor) == (fine.scheme, 2 * fine.factor):
                return
        if len(self.lanes) != 1:
            raise ValueError(
                "a reference is one lane, or a lane and its copy at twice the factor from one start"
            )


def linear_exact_reference(params: LinearAdditiveParams) -> Reference:
    """The exact linear solution at time T, one
    :func:`~sdepca.linear_analytic.exact_map` step per unit block."""
    return Reference(None, (Lane(exact_map(params), x0=np.array([float(params.x0)])),))


def ssbe_reference(problem: SdepcaProblem) -> Reference:
    """Split-step backward Euler at the fine step, extrapolated over h and 2h.

    Split-step BE has weak order 1.  On the cubic experiment its bias at
    h = 2^-11 has the opposite sign to BE's and is 35-70% of BE's own weak
    error at delta = 2^-9, so the plain fine-step mean would flatten the
    weak-error curve.  The extrapolation removes that O(h) term.
    """
    return Reference(problem, (Lane("ssbe"), Lane("ssbe", 2)))


def estimate_weak_errors(
    problem: SdepcaProblem,
    reference: Reference,
    deltas: Sequence[float],
    n_paths: int,
    T: int,
    phis: Sequence[TestFunction],
    master_seed: int,
    *,
    fine_step: float = 2.0**-11,
    n_workers: int = 1,
) -> dict[TestFunction, WeakErrorReport]:
    """Coupled weak-error tables for several test functions on shared paths.

    Each span of paths makes one :func:`~sdepca.integrators.run_lanes` run
    on its fine noise, drawn one piece of a unit block at a time: the
    reference's lanes and backward Euler at each step size, which steps on
    its own coarsening of every piece.  So all errors are measured on the
    same Brownian path, and every test function is evaluated on the same
    simulated endpoints.
    A :class:`Reference` of two lanes also runs at twice the fine step, and
    its extrapolated values stand for E phi(X(T)) in ``mean_gaps``.  Paths
    that fail anywhere, or on which a test function is not finite, are
    dropped pairwise across all step sizes from that function's report,
    within the failure budget of :func:`_finite_paths`.  A BE lane's records
    carry its step size ``delta``; a reference lane's carry its own step (1
    for a lane that maps whole blocks) and ``"reference": True``.

    A span is one worker's share of the paths, ``ceil(n_paths / n_workers)``,
    capped so that the piece of noise it holds stays within 4 MiB: 2048 paths
    at r = 1.  The reports do not depend on the worker count.
    """
    if int(T) != T or T < 1:
        raise ValueError(f"T must be a positive integer, got {T}")
    T = int(T)
    if not phis:
        raise ValueError("need at least one test function")
    _reject_repeats([phi.value for phi in phis], "test function")
    if not isinstance(reference, Reference):
        raise TypeError("reference must be a Reference, such as ssbe_reference(problem)")
    if reference.problem is not None and reference.problem is not problem:
        raise ValueError("the reference steps another problem than the estimate")
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("need at least one step size")
    _reject_repeats(deltas, "step size")
    fine_m = steps_per_unit(fine_step)
    factors = []
    for d in deltas:
        m = steps_per_unit(d, "step size")
        if m >= fine_m:
            raise ValueError(f"step size {d} must exceed the fine step {fine_step}")
        factors.append(fine_m // m)

    n_ref = len(reference.lanes)
    lanes = [*reference.lanes, *(Lane("be", factor) for factor in factors)]
    marks = [
        {
            "reference": True,
            "delta": 1.0 if isinstance(lane.scheme, BlockMap) else lane.factor * fine_step,
        }
        for lane in reference.lanes
    ] + [{"delta": delta} for delta in deltas]
    # the reference's endpoints (its lanes), then BE's at each step size
    anchors, records = _run_lanes_in_spans(
        problem, lanes, T, fine_step, master_seed, n_paths, n_workers
    )
    finals = np.stack([lane_anchors[-1] for lane_anchors in anchors])
    failure_log = [
        {"path": path, **marks[lane], "k": k, "l": l, "kind": kind}
        for lane, path, k, l, kind in records
    ]

    reports: dict[TestFunction, WeakErrorReport] = {}
    for phi in phis:
        # a failed path's endpoints are NaN, and a huge state can overflow
        # phi; _finite_paths drops both from this phi's report
        with np.errstate(over="ignore", invalid="ignore"):
            values, n_failed = _finite_paths(phi(finals), failure_log, phi.value)
        pr, pn = values[0], values[n_ref:]
        target = 2.0 * pr - values[1] if n_ref == 2 else pr
        errors, ses = _mean_se(np.abs(pr - pn))
        mean_gaps = np.abs(_mean(target) - _mean(pn))
        gap_ses = _mean_se(target - pn)[1]

        slope = intercept = None
        if len(deltas) >= 2 and np.all(errors > 0.0):
            slope, intercept = fit_order(deltas, errors)
        else:
            warnings.warn("weak-error slope undefined (need >= 2 step sizes with positive errors)")
        gap_slope = None
        if len(deltas) >= 2 and np.all(mean_gaps > 0.0):
            gap_slope, _ = fit_order(deltas, mean_gaps)

        reports[phi] = WeakErrorReport(
            deltas=deltas,
            errors=errors.tolist(),
            half_widths=(_Z95 * ses).tolist(),
            n_paths=n_paths,
            fitted_slope=slope,
            fitted_intercept=intercept,
            mean_gaps=mean_gaps.tolist(),
            mean_gap_half_widths=(_Z95 * gap_ses).tolist(),
            mean_gap_slope=gap_slope,
            n_failed=n_failed,
            phi=phi.value,
            T=T,
        )
    return reports


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


def ergodic_mean_traces(
    problem: SdepcaProblem,
    cfg: BeConfig,
    initials: Sequence,
    K: int,
    n_paths: int,
    phis: Sequence[TestFunction],
    master_seed: int,
    *,
    n_workers: int = 1,
) -> dict[TestFunction, ErgodicityReport]:
    """Estimate E phi(Y_k), k = 0..K, from each initial value, for each of
    ``phis`` on one run of the chains.

    All initials are driven by the same family of increment lattices (path
    index i uses the same noise for every initial), so the spread directly
    measures how fast the chains forget their starting point.  Each report
    equals that of :func:`ergodic_mean_trace` with its test function alone.
    A scalar ``initials`` is one start, as ``x`` is in
    :func:`contraction_estimate`.  ``n_workers`` is as in
    :func:`estimate_weak_errors`.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    if not phis:
        raise ValueError("need at least one test function")
    _reject_repeats([phi.value for phi in phis], "test function")
    # a scalar is one start, and a flat list on a scalar problem one start each
    initial_arr = np.asarray(initials, dtype=float)
    if initial_arr.ndim == 1 and problem.dim_state == 1:
        initial_arr = initial_arr[:, None]
    initial_arr = np.atleast_2d(initial_arr)
    if not initial_arr.size:
        raise ValueError("initials must hold at least one initial value")
    anchors, failures = _chain_anchors(problem, cfg, initial_arr, K, n_paths, master_seed, n_workers)
    reports = {}
    for phi in phis:
        # a huge state overflows phi; _finite_paths counts such a path as failed
        with np.errstate(over="ignore", invalid="ignore"):
            values = phi(anchors)
        # (initial, k, path)
        values, n_failed = _finite_paths(values.transpose(1, 0, 2), failures, phi.value)
        traces, ses = _mean_se(values)
        spread = traces.max(axis=0) - traces.min(axis=0)
        pooled = np.sqrt(2.0 * np.mean(ses**2, axis=0))
        reports[phi] = ErgodicityReport(
            initials=initial_arr.tolist(),
            traces=traces.tolist(),
            standard_errors=ses.tolist(),
            spread=spread.tolist(),
            pooled_se=pooled.tolist(),
            n_paths=n_paths,
            n_failed=n_failed,
            phi=phi.value,
        )
    return reports


def ergodic_mean_trace(
    problem: SdepcaProblem,
    cfg: BeConfig,
    initials: Sequence,
    K: int,
    n_paths: int,
    phi: TestFunction,
    master_seed: int,
    **kwargs,
) -> ErgodicityReport:
    """Single-test-function form of :func:`ergodic_mean_traces`."""
    return ergodic_mean_traces(problem, cfg, initials, K, n_paths, [phi], master_seed, **kwargs)[phi]


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
) -> ContractionReport:
    """Mean-square distance E|Y_k^x - Y_k^y|^2 of noise-coupled chains.

    Each path index drives both chains with identical increments.  The decay
    factor per unit time is fitted on the log of the positive part of the
    trace; when dissipativity constants are supplied, the analytic per-block
    contraction factor is attached for comparison.  ``n_workers`` is as in
    :func:`estimate_weak_errors`.
    """
    x_arr = np.asarray(x, dtype=float).reshape(problem.dim_state)
    y_arr = np.asarray(y, dtype=float).reshape(problem.dim_state)
    if np.array_equal(x_arr, y_arr):
        raise ValueError("initial values x and y must differ")
    if K < 1:
        raise ValueError("K must be >= 1")

    anchors, failures = _chain_anchors(
        problem, cfg, np.stack([x_arr, y_arr]), K, n_paths, master_seed, n_workers
    )
    # a huge state overflows the square; _finite_paths counts such a path as failed
    with np.errstate(over="ignore", invalid="ignore"):
        diff = anchors[:, 0] - anchors[:, 1]
        sq_diffs = np.sum(diff * diff, axis=-1)
    sq_diffs, n_failed = _finite_paths(sq_diffs, failures)
    msd, ses = _mean_se(sq_diffs)
    hw = _Z95 * ses

    usable = np.flatnonzero(np.isfinite(msd) & (msd > _DECAY_FLOOR))
    factor = factor_se = None
    if usable.size >= 2:
        slope, _, slope_se = _fit_line(usable.astype(float), np.log(msd[usable]))
        factor = math.exp(slope)
        factor_se = factor * slope_se

    bound = None
    if params is not None:
        bound = contraction_rates(params, cfg.m).rbar1_block

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
) -> MomentReport:
    """Monte Carlo trace of the 2p-th moment of the block anchors.

    ``n_workers`` is as in :func:`estimate_weak_errors`.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if K < 1:
        raise ValueError("K must be >= 1")
    if params is not None and not check_moment_condition(params, p):
        warnings.warn(
            f"moment condition fails for p={p}; the 2p-th moment may be unbounded"
        )
    anchors, failures = _chain_anchors(
        problem, cfg, [problem.initial_state], K, n_paths, master_seed, n_workers
    )
    # a huge state overflows the power; _finite_paths counts such a path as failed
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.sum(anchors[:, 0] ** 2, axis=-1) ** p
    powers, n_failed = _finite_paths(powers, failures)
    moments, ses = _mean_se(powers)
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
    """Check the block recursion bound along a finite, nonnegative sequence.

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
    if not np.all((z >= 0.0) & (z < np.inf)):
        raise ValueError("sequence must be finite and nonnegative")

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
