"""Drift-implicit and reference time-stepping schemes on block-structured grids.

The primary scheme is backward Euler: each step solves

    x_next - delta * f(x_next, anchor) = x + g(x, anchor) * dB

where ``anchor`` is the state frozen at the start of the current unit block
(the piecewise-constant argument).  Monotonicity of the drift makes the
implicit map strongly monotone, so the solve has a unique solution for every
step size, and one damped Newton solve from the explicit part finds it.

Explicit Euler and split-step backward Euler are provided as references.  A
single path runs through ``simulate_be`` and friends, returning a
:class:`Trajectory`.  Batches run through :func:`run_lanes`: a :class:`Lane`
is one scheme at one coarsening of a fine step, over a batch of paths, and
the runner advances any set of lanes one unit block of fine noise at a
time.  Lanes that step at the same fine tick share one implicit solve, with
a step size per row.  Rows are advanced independently - a row's iterates
never depend on the other rows - so a merged run, a batched run and a
per-path run agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .brownian import BrownianGrid, coarsen_array, unit_blocks
from .model import SdepcaProblem

_MAX_HALVINGS = 30
#: Absolute residual tolerance and iteration budget of the implicit solve.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 200
#: Multiple of the unit roundoff in the implicit solve's rounding floor.
_ROUNDING = 4.0 * np.finfo(float).eps

_STATUS_OK = 0
_STATUS_NO_CONVERGENCE = 1
_STATUS_NON_FINITE = 2
#: The failure kind recorded for each status of a failed row.
_KINDS = {_STATUS_NO_CONVERGENCE: "nonconvergence", _STATUS_NON_FINITE: "nonfinite"}


class NonConvergenceError(RuntimeError):
    """Implicit solve ended above both its tolerance and its rounding floor."""

    def __init__(self, residual: float, message: str = ""):
        self.residual = residual
        super().__init__(message or f"implicit solve did not converge (residual {residual:.3e})")


class NonFiniteError(RuntimeError):
    """A state or coefficient evaluation produced NaN/Inf."""

    def __init__(self, path_index: int | None = None, k: int | None = None, l: int | None = None):
        self.path_index = path_index
        self.k = k
        self.l = l
        where = f" at path={path_index}, block k={k}, step l={l}" if k is not None else ""
        super().__init__(f"non-finite state encountered{where}")


def _failure_error(kind: str, residual: float = math.nan, path=None, k=None, l=None) -> RuntimeError:
    """The exception for a failure of ``kind``, at (path, k, l) when given."""
    if kind == "nonfinite":
        return NonFiniteError(path, k, l)
    if k is None:
        return NonConvergenceError(residual)
    return NonConvergenceError(residual, f"implicit solve failed at path={path}, k={k}, l={l}")


@dataclass(frozen=True)
class BeConfig:
    """Step size of the schemes: ``m`` steps per unit interval."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")

    @property
    def delta(self) -> float:
        return 1.0 / self.m


@dataclass(frozen=True)
class Trajectory:
    """One simulated path; ``states[n]`` approximates the state at t = n/m."""

    states: np.ndarray
    m: int
    problem_tag: str = "custom"
    path_index: int = 0

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] < 1:
            raise ValueError("states must be a (n_steps+1, d) array")
        if not np.all(np.isfinite(states)):
            raise ValueError("trajectory contains non-finite states")
        object.__setattr__(self, "states", states)

    @property
    def delta(self) -> float:
        return 1.0 / self.m

    @property
    def n_anchors(self) -> int:
        return (self.states.shape[0] - 1) // self.m + 1

    def anchor(self, k: int) -> np.ndarray:
        """Block anchor Y_k, the state at integer time k."""
        if k < 0 or k >= self.n_anchors:
            raise IndexError(f"anchor {k} out of range (have {self.n_anchors})")
        return self.states[k * self.m]

    def anchors(self) -> np.ndarray:
        return self.states[:: self.m][: self.n_anchors]

    def times(self) -> np.ndarray:
        return np.arange(self.states.shape[0]) / self.m

    def to_csv(self, path: str | Path) -> None:
        """Write `t,x_0,...,x_{d-1}` rows with round-trip-exact f64 text."""
        d = self.states.shape[1]
        header = "t," + ",".join(f"x_{j}" for j in range(d))
        with open(path, "w", newline="\n") as fh:
            fh.write(header + "\n")
            for n in range(self.states.shape[0]):
                row = [f"{n / self.m:.17g}"] + [f"{v:.17g}" for v in self.states[n]]
                fh.write(",".join(row) + "\n")


@dataclass
class BatchRun:
    """Result of advancing a batch of paths; failed rows are NaN and listed."""

    finals: np.ndarray
    anchors: Optional[np.ndarray] = None
    states: Optional[np.ndarray] = None
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> np.ndarray:
        mask = np.ones(self.finals.shape[0], dtype=bool)
        for row, _, _, _ in self.failures:
            mask[row] = False
        return mask


def _batch_coefficients(problem: SdepcaProblem):
    """(drift, diffusion, jacobian) of a problem; finite differences when it
    has no Jacobian."""
    drift, jac = problem.drift, problem.drift_jacobian_x
    return drift, problem.diffusion, _fd_jacobian(drift) if jac is None else jac


def _fd_jacobian(drift):
    """Central-difference Jacobian of a batched drift, step scaled with |x|."""

    def jac(x, y):
        n, d = x.shape
        h = 1e-7 * (1.0 + np.linalg.norm(x, axis=1))
        J = np.empty((n, d, d))
        for j in range(d):
            step = np.zeros((n, d))
            step[:, j] = h
            J[:, :, j] = (drift(x + step, y) - drift(x - step, y)) / (2.0 * h)[:, None]
        return J

    return jac


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum of each row of an (n, d) array; for d = 1 the column itself."""
    return a[:, 0] if a.shape[1] == 1 else np.add.reduce(a, axis=1)


def _row_norm(res: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; inf for a row with a NaN or inf entry.

    The norm never squares an entry unscaled, so it stays finite up to the
    largest double: a squared residual past about 1.3e154 would overflow.
    """
    # a non-finite entry leaves the norm inf or NaN; fmin turns NaN into inf
    if res.shape[1] == 1:
        return np.fmin(np.abs(res[:, 0]), np.inf)
    scale = np.max(np.abs(res), axis=1)
    unit = res / np.where(scale > 0.0, scale, 1.0)[:, None]
    return np.fmin(scale * np.sqrt(_row_sum(unit * unit)), np.inf)


def _residual(drift, x, y, delta, rhs):
    """Residual of x - delta*drift(x, y) = rhs and its row norms; ``delta``
    is an (n, 1) column of step sizes."""
    res = x - delta * drift(x, y) - rhs
    return res, _row_norm(res)


def _rounding_floor(drift, jac, x, y, delta, rhs):
    """Rounding level of the residual of x - delta*drift(x, y) = rhs, per row.

    ``_ROUNDING * (|x| + |rhs| + delta*(|f(x, y)| + |J(x, y)| |x|))`` in
    1-norms, with ``delta`` an (n, 1) column.  The first three terms bound
    the rounding of the sum; the Jacobian term bounds the change of the
    residual when x moves by one rounding, and it also covers a drift whose
    terms cancel, such as
    ``-x**3 + 2*y`` near its root with y = 1e6.  The floor passes 1e-12 only
    once these terms sum past about 1e3.
    """
    spread = np.einsum("nij,nj->ni", np.abs(jac(x, y)), np.abs(x))
    size = np.abs(x) + np.abs(rhs) + delta * (np.abs(drift(x, y)) + spread)
    return _ROUNDING * _row_sum(size)


def _solve_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise solutions of A[i] x[i] = b[i]; rows LAPACK rejects are NaN."""
    if A.shape[1] == 1:
        # a 1x1 solve is one correctly rounded division, the same double
        # LAPACK returns, without its per-matrix call overhead; a zero or
        # non-finite A gives a non-finite row, and the callers of the solver
        # silence the division's warnings
        return b / A[:, :, 0]
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(b, np.nan)
        for j in range(A.shape[0]):
            try:
                out[j] = np.linalg.solve(A[j], b[j])
            except np.linalg.LinAlgError:
                pass
        return out


def _newton_batch(drift, jac, y, delta, rhs):
    """Row-wise solve of x - delta*drift(x, y) = rhs from the guess x = rhs.

    ``delta`` is an (n, 1) column: each row has its own step size.  Returns
    (x, status, resnorm) where status is 0/1/2 for
    converged / not converged / non-finite.  A row has converged once its
    residual norm is within ``_NEWTON_TOL``, or, when Newton can lower it
    no further, within its rounding floor (:func:`_rounding_floor`).

    Each Newton iteration evaluates the whole batch; only the rows still
    above the tolerance take the new iterate, so converged rows stay frozen.
    A row whose step does not lower its residual is halved on its own, and a
    row that cannot progress leaves the loop.  A row that leaves it above
    its rounding floor has failed and is NaN.  Every row's arithmetic is
    elementwise, so its iterates do not depend on the rest of the batch.
    """
    n, d = rhs.shape
    status = np.zeros(n, dtype=np.int8)
    x = rhs.copy()
    res, rnorm = _residual(drift, x, y, delta, rhs)
    # rows still iterating or converged; a row whose residual is not finite
    # cannot take a Newton step and has failed
    open_rows = rnorm < np.inf

    identity = np.eye(d)
    for _ in range(_NEWTON_MAX_ITER):
        active = open_rows & (rnorm > _NEWTON_TOL)
        n_active = np.count_nonzero(active)
        if not n_active:
            break
        # a non-finite step leaves a non-finite residual, which the halvings
        # below cannot lower, so such a row leaves the loop
        dx = _solve_rows(identity - delta[:, :, None] * jac(x, y), -res)
        x_new = x + dx
        r_new, rn_new = _residual(drift, x_new, y, delta, rhs)
        take = active & (rn_new < rnorm)
        if np.count_nonzero(take) < n_active:
            # the rows whose residual did not fall: halve their steps
            iw = np.flatnonzero(active & ~take)
            xw, dw, yw, rw, rn_old = x[iw], dx[iw], y[iw], rhs[iw], rnorm[iw]
            hw = delta[iw]
            xh, rh, rnh = x_new[iw], r_new[iw], rn_new[iw]
            scale = np.ones((iw.size, 1))
            for _ in range(_MAX_HALVINGS):
                still = rnh >= rn_old
                if not still.any():
                    break
                scale[still] *= 0.5
                xh[still] = xw[still] + scale[still] * dw[still]
                rh[still], rnh[still] = _residual(drift, xh[still], yw[still], hw[still], rw[still])
            x_new[iw], r_new[iw], rn_new[iw] = xh, rh, rnh
            take[iw] = rnh < rn_old
        # an active row that made no progress leaves the loop
        np.copyto(open_rows, take, where=active)
        keep = take[:, None]
        np.copyto(x, x_new, where=keep)
        np.copyto(res, r_new, where=keep)
        np.copyto(rnorm, rn_new, where=take)
    else:
        # out of iterations: the rows still above the tolerance leave the loop
        open_rows &= rnorm <= _NEWTON_TOL

    if np.count_nonzero(open_rows) == n:  # every row has converged
        return x, status, rnorm
    # A row that left the loop, because its residual stopped falling or it
    # ran out of iterations, has converged as far as double precision allows
    # if its residual is within its rounding floor; otherwise it has failed.
    left = np.flatnonzero(~open_rows)
    floor = _rounding_floor(drift, jac, x[left], y[left], delta[left], rhs[left])
    failed = left[~((rnorm[left] <= floor) & (rnorm[left] < np.inf))]
    status[failed] = np.where(rnorm[failed] < np.inf, _STATUS_NO_CONVERGENCE, _STATUS_NON_FINITE)
    x[failed] = np.nan
    return x, status, rnorm


def solve_implicit(
    drift,
    jac,
    y_block: np.ndarray,
    delta: float,
    rhs: np.ndarray,
) -> np.ndarray:
    """Solve x - delta*drift(x, y_block) = rhs to ``_NEWTON_TOL``, or at a
    large state to the residual's rounding floor.

    ``drift`` must be one-sided Lipschitz (monotone) in x, which guarantees a
    unique solution for every step size, and must accept batched ``(n, d)``
    states like the coefficients of a :class:`~sdepca.model.SdepcaProblem`.
    Raises
    :class:`NonConvergenceError` or :class:`NonFiniteError` on failure.
    """
    y_block = np.asarray(y_block, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if delta == 0.0:
        return rhs.copy()
    if jac is None:
        jac = _fd_jacobian(drift)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, status, rnorm = _newton_batch(
            drift, jac, y_block[None, :], np.full((1, 1), float(delta)), rhs[None, :]
        )
    if status[0] != _STATUS_OK:
        raise _failure_error(_KINDS[status[0]], float(rnorm[0]))
    return x[0]


def be_step(
    problem: SdepcaProblem,
    cfg: BeConfig,
    x_prev: np.ndarray,
    y_block: np.ndarray,
    dB: np.ndarray,
) -> np.ndarray:
    """One backward Euler step from ``x_prev`` with block anchor ``y_block``."""
    x_prev = np.asarray(x_prev, dtype=float).reshape(problem.dim_state)
    y_block = np.asarray(y_block, dtype=float).reshape(problem.dim_state)
    dB = np.asarray(dB, dtype=float).reshape(problem.dim_noise)
    drift, diffusion, jac = _batch_coefficients(problem)
    g = np.asarray(diffusion(x_prev[None, :], y_block[None, :]), dtype=float)[0]
    return solve_implicit(drift, jac, y_block, cfg.delta, x_prev + g @ dB)


@dataclass(frozen=True)
class Lane:
    """One scheme over a batch of paths, stepping every ``factor`` fine steps.

    ``scheme`` is "be", "ssbe" or "em", or a map ``(x, block) -> x`` that
    advances states (n, d) over a whole unit block from its fine increments
    (n, m, r), such as an exact solution; a map lane steps once per unit
    block and ignores ``factor``.  ``x0`` is one start (d,), per-path
    starts (n_paths, d) or several starts per path (n_starts, n_paths, d),
    as in :func:`run_scheme_batch`; ``None`` is the problem's initial state.
    ``record`` selects what the lane's :class:`BatchRun` keeps: "final",
    "anchors" or "full".
    """

    scheme: Union[str, Callable]
    factor: int = 1
    x0: Optional[np.ndarray] = None
    record: str = "final"

    def __post_init__(self) -> None:
        if not callable(self.scheme) and self.scheme not in ("be", "em", "ssbe"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.record not in ("final", "anchors", "full"):
            raise ValueError(f"unknown record mode {self.record!r}")
        if int(self.factor) != self.factor or self.factor < 1:
            raise ValueError(f"factor must be a positive integer, got {self.factor}")


class _LaneRun:
    """A lane's rows, step size and records during :func:`run_lanes`."""

    def __init__(self, lane: Lane, x0, n_paths: int, m: int, K: int):
        self.lane = lane
        self.maps = callable(lane.scheme)
        self.factor = m if self.maps else int(lane.factor)
        if m % self.factor:
            raise ValueError(f"factor {self.factor} does not divide the {m} steps of a unit block")
        self.steps = m // self.factor
        x0 = np.asarray(x0, dtype=float)
        d = x0.shape[-1]
        self.n_starts = x0.shape[0] if x0.ndim == 3 else 1
        self.n_rows = self.n_starts * n_paths
        self.x0 = np.broadcast_to(x0, (self.n_starts, n_paths, d)).reshape(self.n_rows, d)
        self.anchors = self.states = None
        if lane.record == "anchors":
            self.anchors = np.full((K + 1, self.n_rows, d), np.nan)
            self.anchors[0] = self.x0
        elif lane.record == "full":
            self.states = np.full((self.n_rows, K * self.steps + 1, d), np.nan)
            self.states[:, 0] = self.x0
        self.failures: list[tuple[int, int, int, str]] = []
        # a stepping lane's states are the rows lo..hi-1 of the runner's; a
        # map lane keeps its own
        self.lo = self.hi = 0
        if self.maps:
            self.x = self.x0.copy()
            self.alive = np.ones(self.n_rows, dtype=bool)

    def increments(self, block: np.ndarray) -> np.ndarray:
        """The lane's increments in ``block``, (steps, n_rows, r): coarsened
        from the fine block, step-major, repeated for each start."""
        coarse = block if self.factor == 1 else coarsen_array(block, self.factor)
        n_paths, _, r = block.shape
        out = np.empty((self.steps, self.n_starts, n_paths, r))
        out[:] = coarse.swapaxes(0, 1)[:, None]
        return out.reshape(self.steps, self.n_rows, r)

    def end_block(self, x: np.ndarray, k: int) -> None:
        """Keep the states ``x`` at the end of block k."""
        if self.states is not None:
            self.states[:, (k + 1) * self.steps] = x
        if self.anchors is not None:
            self.anchors[k + 1] = x

    def result(self, finals: np.ndarray) -> BatchRun:
        return BatchRun(finals, self.anchors, self.states, self.failures)


def _kick(diffusion, x, y, dB):
    return np.einsum("ndr,nr->nd", diffusion(x, y), dB)


def run_lanes(
    problem: Optional[SdepcaProblem],
    lanes: Sequence[Lane],
    blocks: Iterable[np.ndarray],
    n_paths: int,
    m: int,
    K: int,
) -> list[BatchRun]:
    """Advance every lane through K unit blocks of the same fine noise.

    ``problem`` gives the coefficients of every stepping lane; it may be
    None when all lanes are maps with starts of their own.

    ``blocks`` yields K arrays (n_paths, m, r): the fine increments of one
    unit block at step 1/m, such as :func:`~sdepca.brownian.increment_blocks`
    draws.  A lane with factor f steps at f/m, on the sums of each f
    consecutive increments of a block, which it coarsens itself; so its
    numbers equal those of the lane run alone on the coarsened lattice.
    Returns one :class:`BatchRun` per lane, in the order of ``lanes``.

    The stepping lanes are laid out as consecutive rows ordered by factor;
    each factor must divide the next.  The lanes that step at fine tick t
    then form a prefix of the rows, and the tick makes one implicit solve on
    that prefix with a step size per row.  Explicit Euler has no solve to
    share, so "em" lanes do not run beside implicit ones.  A map lane
    advances at the end of each block.  A row whose state, coefficient or
    implicit solve goes bad is NaN from then on, and its lane records
    (row, k, l, kind) with the lane's own block and step.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    runs = [
        _LaneRun(lane, problem.initial_state if lane.x0 is None else lane.x0, n_paths, m, K)
        for lane in lanes
    ]
    stepped = sorted((run for run in runs if not run.maps), key=lambda run: run.factor)
    mapped = [run for run in runs if run.maps]
    if any(b.factor % a.factor for a, b in zip(stepped, stepped[1:])):
        raise ValueError(f"lane factors {[run.factor for run in stepped]} must divide one another")
    explicit = {run.lane.scheme == "em" for run in stepped}
    if len(explicit) > 1:
        raise ValueError("explicit Euler lanes cannot share a run with implicit lanes")

    row = 0
    for run in stepped:
        run.lo, run.hi = row, row + run.n_rows
        row = run.hi
    if stepped:
        drift, diffusion, jac = _batch_coefficients(problem)
        x = np.concatenate([run.x0 for run in stepped])
        delta = np.concatenate([np.full((run.n_rows, 1), 1.0 / run.steps) for run in stepped])
    else:  # map lanes only
        x = delta = np.empty((0, 1))
    alive = np.ones(row, dtype=bool)
    ends = np.array([run.hi for run in stepped])

    # at fine tick t the lanes stepped[:j] step on the rows [0, stop), lane
    # i at its own step steps[i]; consecutive lanes of one scheme form one
    # [scheme, rows] run
    levels = {}
    for j in range(1, len(stepped) + 1):
        lane_runs = []
        for run in stepped[:j]:
            if lane_runs and lane_runs[-1][0] == run.lane.scheme:
                lane_runs[-1][1] = slice(lane_runs[-1][1].start, run.hi)
            else:
                lane_runs.append([run.lane.scheme, slice(run.lo, run.hi)])
        full = [i for i, run in enumerate(stepped[:j]) if run.states is not None]
        levels[j] = (stepped[j - 1].hi, lane_runs, full)
    ticks = []
    for t in range(m):
        steps = tuple((t + 1) // run.factor - 1 for run in stepped if (t + 1) % run.factor == 0)
        if steps:
            ticks.append((steps, *levels[len(steps)]))

    def advance(k: int, block: np.ndarray) -> None:
        """Step every lane through unit block k of the fine noise."""
        y = x.copy()
        incs = [run.increments(block) for run in stepped]
        for steps, stop, lane_runs, full in ticks:
            if len(steps) == 1:
                dB = incs[0][steps[0]]
            else:
                dB = np.concatenate([inc[l] for inc, l in zip(incs, steps)])
            xa, ya, da = x[:stop], y[:stop], delta[:stop]
            if lane_runs[0][0] == "em":
                x_new = xa + da * drift(xa, ya) + _kick(diffusion, xa, ya, dB)
                status = np.zeros(stop, dtype=np.int8)
            else:
                parts = [
                    xa[s] if scheme == "ssbe" else xa[s] + _kick(diffusion, xa[s], ya[s], dB[s])
                    for scheme, s in lane_runs
                ]
                rhs = parts[0] if len(parts) == 1 else np.concatenate(parts)
                x_new, status, _ = _newton_batch(drift, jac, ya, da, rhs)
                for scheme, s in lane_runs:
                    if scheme == "ssbe":  # the diffusion kick after the implicit drift update
                        x_new[s] += _kick(diffusion, x_new[s], ya[s], dB[s])
            if np.count_nonzero(status) or not np.isfinite(x_new).all():
                # a row that solved but went non-finite is recorded as "nonfinite"
                bad = (status != _STATUS_OK) | ~np.isfinite(x_new).all(axis=1)
                for i in np.flatnonzero(bad & alive[:stop]):
                    lane = int(np.searchsorted(ends, i, side="right"))
                    run = stepped[lane]
                    kind = _KINDS[int(status[i]) or _STATUS_NON_FINITE]
                    run.failures.append((int(i) - run.lo, k, steps[lane], kind))
                alive[:stop] &= ~bad
                x_new[~alive[:stop]] = np.nan
            x[:stop] = x_new
            for i in full:
                run = stepped[i]
                run.states[:, k * run.steps + steps[i] + 1] = x[run.lo : run.hi]
        for run in mapped:
            repeated = block if run.n_starts == 1 else np.concatenate([block] * run.n_starts)
            x_map = run.lane.scheme(run.x, repeated)
            bad = ~np.isfinite(x_map).all(axis=1)
            for i in np.flatnonzero(bad & run.alive):
                run.failures.append((int(i), k, 0, "nonfinite"))
            run.alive &= ~bad
            x_map[~run.alive] = np.nan
            run.x = x_map
        for run in runs:
            run.end_block(run.x if run.maps else x[run.lo : run.hi], k)

    blocks = iter(blocks)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(K):
            # one block of noise at a time: the last is freed before the next is drawn
            advance(k, next(blocks))

    return [run.result(run.x if run.maps else x[run.lo : run.hi].copy()) for run in runs]


def run_scheme_batch(
    scheme: str,
    problem: SdepcaProblem,
    cfg: BeConfig,
    increments: np.ndarray,
    x0: np.ndarray,
    K: int,
    record: str = "anchors",
) -> BatchRun:
    """Advance a batch of paths through K unit blocks of m steps each.

    ``increments`` has shape (n_paths, >= K*m, r) at step size 1/m; ``x0`` is
    one start (d,) shared by all rows, per-row starts (n_paths, d), or
    several starts per row (n_starts, n_paths, d).  In the last case every
    start runs on every row's increments, and the batch holds
    n = n_starts * n_paths rows in start-major order: row s * n_paths + i
    is start s on noise row i.  ``finals`` (n, d), ``anchors``, ``states``
    and the row index of each failure all follow that order.  ``record``
    selects what is kept: "final", "anchors" (shape (K+1, n, d)) or "full"
    ((n, K*m+1, d)).  A row whose state, coefficient or implicit solve goes
    bad is frozen at NaN and reported in ``failures`` as (row, k, l, kind);
    the other rows continue unaffected.  This is :func:`run_lanes` with one
    lane.
    """
    lane = Lane(scheme, x0=x0, record=record)
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 3:
        raise ValueError("increments must have shape (n_paths, n_steps, r)")
    if increments.shape[2] != problem.dim_noise:
        raise ValueError(f"noise dimension mismatch: {increments.shape[2]} != {problem.dim_noise}")
    blocks = unit_blocks(increments, cfg.m, K)
    return run_lanes(problem, [lane], blocks, increments.shape[0], cfg.m, K)[0]


def _coarse_increments(grid: BrownianGrid, cfg: BeConfig, K: int) -> np.ndarray:
    ratio = cfg.delta / grid.fine_step
    factor = int(round(ratio))
    if factor < 1 or abs(ratio - factor) > 1e-9:
        raise ValueError(
            f"grid with fine_step {grid.fine_step} is not coarsenable to delta 1/{cfg.m}"
        )
    coarse = coarsen_array(grid.increments, factor)
    if coarse.shape[0] < K * cfg.m:
        raise ValueError(f"horizon {grid.horizon} too short for K={K} unit blocks")
    return coarse[: K * cfg.m]


def _simulate(scheme: str, problem, cfg, grid: BrownianGrid, K: int) -> Trajectory:
    coarse = _coarse_increments(grid, cfg, K)
    run = run_scheme_batch(scheme, problem, cfg, coarse[None], problem.initial_state, K, record="full")
    if run.failures:
        _, k, l, kind = run.failures[0]
        raise _failure_error(kind, path=grid.path_index, k=k, l=l)
    return Trajectory(
        states=run.states[0],
        m=cfg.m,
        problem_tag=problem.tag,
        path_index=grid.path_index,
    )


def simulate_be(problem: SdepcaProblem, cfg: BeConfig, grid: BrownianGrid, K: int) -> Trajectory:
    """Backward Euler over K unit blocks, anchor frozen at each block start."""
    return _simulate("be", problem, cfg, grid, K)


def simulate_em(problem: SdepcaProblem, cfg: BeConfig, grid: BrownianGrid, K: int) -> Trajectory:
    """Explicit Euler reference; may legitimately blow up on stiff problems."""
    return _simulate("em", problem, cfg, grid, K)


def simulate_ssbe(problem: SdepcaProblem, cfg: BeConfig, grid: BrownianGrid, K: int) -> Trajectory:
    """Split-step backward Euler: implicit drift update, then diffusion kick."""
    return _simulate("ssbe", problem, cfg, grid, K)


def be_mean_multiplier(theta1: float, theta2: float, m: int) -> float:
    """Zero-noise per-block anchor multiplier of backward Euler on the linear
    problem: rho^m + (theta2/theta1)(1 - rho^m) with rho = 1/(1 + theta1/m).

    Converges to the continuous multiplier at rate O(1/m); validated against
    zero-noise simulation in the tests.
    """
    if theta1 <= 0.0 or m < 1:
        raise ValueError("theta1 must be positive and m >= 1")
    rho = 1.0 / (1.0 + theta1 / m)
    return rho**m + (theta2 / theta1) * (1.0 - rho**m)
