"""Drift-implicit and reference time-stepping schemes on block-structured grids.

The primary scheme is backward Euler: each step solves

    x_next - delta * f(x_next, anchor) = x + g(x, anchor) * dB

where ``anchor`` is the state frozen at the start of the current unit block
(the piecewise-constant argument).  Monotonicity of the drift makes the
implicit map strongly monotone, so the solve has a unique solution for every
step size, and one damped Newton solve finds it, from the problem's
``implicit_start``, staged once per block, or else from the explicit part.

Explicit Euler and split-step backward Euler are provided as references;
:data:`SCHEMES` names all three.  Every path runs through
:func:`run_lanes`, a single one too: :func:`simulate` runs one lane and
returns its states at the steps of 1/m.  A :class:`Lane` is one
scheme at one coarsening of a fine step, over a batch of paths, and the
runner advances any set of lanes one piece of fine noise at a time, cut at
the ends of the unit blocks.  Lanes that step at the same fine tick share
one implicit solve, with a step size per row.  Rows are advanced
independently - a row's iterates never depend on the other rows - so a
merged run, a batched run and a per-path run agree bit for bit.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .brownian import BrownianGrid, coarsen_array, steps_per_unit
from .model import SdepcaProblem

#: The stepping schemes: backward Euler, explicit Euler and split-step BE.
SCHEMES = ("be", "em", "ssbe")

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
        # an integral float such as 16.0 is stored as the int 16
        if not isinstance(self.m, numbers.Real) or not float(self.m).is_integer() or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")
        object.__setattr__(self, "m", int(self.m))

    @property
    def delta(self) -> float:
        return 1.0 / self.m


@dataclass
class BatchRun:
    """A batch run's block anchors (K+1, n_paths, d), its states at every step
    or None, and its failed rows, NaN from then on, as (row, k, l, kind)."""

    anchors: np.ndarray
    states: Optional[np.ndarray]
    failures: list


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


def _row_norm(res: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; inf for a row with a NaN or inf entry.

    The norm never squares an entry unscaled, so it stays finite up to the
    largest double: a squared residual past about 1.3e154 would overflow.
    """
    # a non-finite entry leaves the norm inf or NaN; fmin turns NaN into inf
    if res.shape[1] == 1:
        norm = np.abs(res[:, 0])
        return np.fmin(norm, np.inf, out=norm)
    scale = np.max(np.abs(res), axis=1)
    unit = res / np.where(scale > 0.0, scale, 1.0)[:, None]
    return np.fmin(scale * np.sqrt(np.add.reduce(unit * unit, axis=1)), np.inf)


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
    return _ROUNDING * np.add.reduce(size, axis=1)


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


def _newton_batch(drift, jac, y, delta, rhs, start=None):
    """Row-wise solve of x - delta*drift(x, y) = rhs from x = start(rhs), a
    problem's ``implicit_start`` staged on (y, delta), or from x = rhs when
    ``start`` is None.

    ``delta`` is an (n, 1) column: each row has its own step size.  Returns
    (x, status, resnorm) where status is 0/1/2 for
    converged / not converged / non-finite.  A row has converged once its
    residual norm is within ``_NEWTON_TOL``, or, when Newton can lower it
    no further, within its rounding floor (:func:`_rounding_floor`).

    Each Newton iteration evaluates the whole batch, and each halving of a
    step that did not lower a row's residual evaluates the rows it halves;
    only the rows still above the tolerance take the new iterate, so
    converged rows stay frozen, and a row that cannot progress leaves the
    loop.  A row that leaves it above its
    rounding floor has failed and is NaN.  Every row's arithmetic is
    elementwise, so its iterates do not depend on the rest of the batch.
    The loop runs only for starts far from a closed-form root, such as the
    built-ins' ``implicit_start`` at huge states, or without such a start.
    """
    n = rhs.shape[0]
    status = np.zeros(n, dtype=np.int8)
    x = rhs if start is None else start(rhs)
    if x is rhs:  # x is written in place, and rhs is the caller's
        x = rhs.copy()
    res, rnorm = _residual(drift, x, y, delta, rhs)
    if np.maximum.reduce(rnorm, initial=0.0) <= _NEWTON_TOL:  # every row converged at its start
        return x, status, rnorm
    # rows still iterating or converged; a row whose residual is not finite
    # cannot take a Newton step and has failed
    open_rows = rnorm < np.inf

    for _ in range(_NEWTON_MAX_ITER):
        active = open_rows & (rnorm > _NEWTON_TOL)
        if not active.any():
            break
        # a non-finite Newton step (I - delta J)^-1 res leaves a non-finite
        # residual, which no halving lowers, so its row leaves the loop
        step = _solve_rows(np.eye(x.shape[1]) - delta[:, :, None] * jac(x, y), res)
        x_new = x - step
        r_new, rn_new = _residual(drift, x_new, y, delta, rhs)
        # an active row whose residual did not fall halves its step; each
        # pass evaluates only the rows it halves, every row at its own scale
        scale = np.ones((n, 1))
        for _ in range(_MAX_HALVINGS):
            halve = np.flatnonzero(active & (rn_new >= rnorm))
            if not halve.size:
                break
            scale[halve] *= 0.5
            x_new[halve] = x[halve] - scale[halve] * step[halve]
            r_new[halve], rn_new[halve] = _residual(drift, x_new[halve], y[halve], delta[halve], rhs[halve])
        take = active & (rn_new < rnorm)
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
    start=None,
) -> np.ndarray:
    """Solve x - delta*drift(x, y_block) = rhs to ``_NEWTON_TOL``, or at a
    large state to the residual's rounding floor.

    ``start`` is a problem's ``implicit_start``, or None: the solve stages
    it on the one row's anchor and step size and starts at the state it
    gives for ``rhs``, or at ``rhs`` when ``start`` is None.

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
    y, d = y_block[None, :], np.full((1, 1), float(delta))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, status, rnorm = _newton_batch(
            drift, jac, y, d, rhs[None, :], None if start is None else start(y, d)
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
    """One backward Euler step from ``x_prev`` with block anchor ``y_block``;
    the same solve, from the problem's ``implicit_start``, as :func:`run_lanes`."""
    x_prev = np.asarray(x_prev, dtype=float).reshape(problem.dim_state)
    y_block = np.asarray(y_block, dtype=float).reshape(problem.dim_state)
    dB = np.asarray(dB, dtype=float).reshape(problem.dim_noise)
    drift, diffusion, jac = _batch_coefficients(problem)
    g = np.asarray(diffusion(x_prev[None, :], y_block[None, :]), dtype=float)[0]
    rhs = x_prev + g @ dB
    return solve_implicit(drift, jac, y_block, cfg.delta, rhs, problem.implicit_start)


@dataclass(frozen=True)
class BlockMap:
    """A map of states over whole unit blocks, folded over each block's pieces.

    At a block's start the carry is zeros shaped like the states (n, d).
    ``fold(carry, piece, h)`` takes each step-major piece of fine
    increments (s, n, r) at fine step h in turn and returns the carry;
    ``finish(x, carry)`` gives the states at the block's end.
    """

    fold: Callable
    finish: Callable


@dataclass(frozen=True)
class Lane:
    """One scheme over a batch of paths, stepping every ``factor`` fine steps.

    ``scheme`` is one of :data:`SCHEMES`, or a :class:`BlockMap`, such as an
    exact solution, which advances the states once per unit block from its
    fine increments, folded piece by piece; a map lane ignores ``factor``.
    ``x0`` is one start (d,) or per-path starts (n_paths, d); ``None`` is
    the problem's initial state.
    Several starts on the same noise are several lanes, which share each
    tick's implicit solve.
    Every lane's :class:`BatchRun` keeps its block anchors; ``record``
    "full" keeps every step's states too.
    """

    scheme: Union[str, Callable]
    factor: int = 1
    x0: Optional[np.ndarray] = None
    record: str = "anchors"

    def __post_init__(self) -> None:
        if not isinstance(self.scheme, BlockMap) and self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.record not in ("anchors", "full"):
            raise ValueError(f"unknown record mode {self.record!r}")
        if int(self.factor) != self.factor or self.factor < 1:
            raise ValueError(f"factor must be a positive integer, got {self.factor}")


class _LaneRun:
    """A lane's rows lo..hi-1 of the runner's states, its step size and its
    records during :func:`run_lanes`."""

    def __init__(self, lane: Lane, x0, n_paths: int, m: int, K: int):
        self.lane = lane
        self.maps = isinstance(lane.scheme, BlockMap)
        self.factor = m if self.maps else int(lane.factor)
        if m % self.factor:
            raise ValueError(f"factor {self.factor} does not divide the {m} steps of a unit block")
        self.steps = m // self.factor
        x0 = np.asarray(x0, dtype=float)
        d = x0.shape[-1]
        self.x0 = np.broadcast_to(x0, (n_paths, d))
        self.anchors = np.full((K + 1, n_paths, d), np.nan)
        self.anchors[0] = self.x0
        self.states = None
        if lane.record == "full":
            self.states = np.full((n_paths, K * self.steps + 1, d), np.nan)
            self.states[:, 0] = self.x0
        self.failures: list[tuple[int, int, int, str]] = []

    def increments(self, piece: np.ndarray) -> np.ndarray:
        """The lane's increments (s / factor, n_paths, r), coarsened from the
        step-major fine ``piece`` of s steps; a factor-1 lane steps on the
        piece itself."""
        if self.factor == 1:
            return piece
        s, n_paths, r = piece.shape
        # one row per step: each coarse row is a left-to-right sum of
        # contiguous fine rows
        flat = coarsen_array(piece.reshape(s, n_paths * r), self.factor)
        return flat.reshape(s // self.factor, n_paths, r)


def _kick(diffusion, x, y, dB):
    """The diffusion kick g(x, y) dB of each row."""
    g = diffusion(x, y)
    if g.shape[1:] == (1, 1):
        # the einsum adds the product to 0.0, which turns a -0.0 product into
        # +0.0; the two kicks give different sums only on a state of -0.0,
        # which no step makes from a start without one
        return g[:, :, 0] * dB
    return np.einsum("ndr,nr->nd", g, dB)


def run_lanes(
    problem: Optional[SdepcaProblem],
    lanes: Sequence[Lane],
    pieces: Iterable[np.ndarray],
    n_paths: int,
    m: int,
    K: int,
) -> list[BatchRun]:
    """Advance every lane through K unit blocks of the same fine noise.

    ``problem`` gives the coefficients of every stepping lane; it may be
    None when all lanes are maps with starts of their own.

    ``pieces`` yields consecutive step-major pieces (s, n_paths, r) of fine
    increments at step 1/m, row l of a piece holding its step l of every
    path, such as :func:`~sdepca.brownian.increment_pieces` draws, or one
    piece of a lattice already in memory.  The runner cuts them at the ends
    of the unit blocks and takes none past the K-th block's end.  Each
    piece must hold whole steps of every stepping lane and r = dim_noise
    columns, and the pieces at least K*m steps; a ``ValueError`` says when
    they do not.  A lane with factor f steps at f/m, on the sums of each f
    consecutive increments of a piece, which it coarsens itself; so its
    numbers equal those of the lane run alone on the coarsened lattice,
    whatever the pieces.  Each piece, and the lanes' coarsened copies of it,
    are released before the next piece is taken.
    Returns one :class:`BatchRun` per lane, in the order of ``lanes``, with
    the lane's block anchors and, for a "full" lane, every step's states.

    The stepping lanes are laid out as consecutive rows ordered by factor;
    each factor must divide the next.  The lanes that step at fine tick t
    then form a prefix of the rows, and the tick makes one implicit solve on
    that prefix with a step size per row, from the problem's
    ``implicit_start`` when it has one, staged at each block's start on
    each prefix that some tick solves.  Explicit Euler has no solve to
    share, so "em" lanes do not run beside implicit ones.  The anchors are
    frozen at each block's start.  The map lanes' rows follow; a map lane
    folds each piece and advances its rows at the end of each block.  A row
    whose state, coefficient or implicit solve goes bad is NaN from then on,
    and its lane records (row, k, l, kind) once, with the lane's own block
    and step, 0 for a map lane.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    runs = [
        _LaneRun(lane, problem.initial_state if lane.x0 is None else lane.x0, n_paths, m, K)
        for lane in lanes
    ]
    stepped = sorted((run for run in runs if not run.maps), key=lambda run: run.factor)
    mapped = [run for run in runs if run.maps]
    for run in stepped:
        if run.x0.shape[1] != problem.dim_state:
            raise ValueError(
                f"a lane start has {run.x0.shape[1]} entries, not dim_state {problem.dim_state}"
            )
    if any(b.factor % a.factor for a, b in zip(stepped, stepped[1:])):
        raise ValueError(f"lane factors {[run.factor for run in stepped]} must divide one another")
    explicit = {run.lane.scheme == "em" for run in stepped}
    if len(explicit) > 1:
        raise ValueError("explicit Euler lanes cannot share a run with implicit lanes")

    # the stepping lanes' rows come first, the map lanes' after them
    ordered = stepped + mapped
    for i, run in enumerate(ordered):
        run.lo, run.hi = i * n_paths, (i + 1) * n_paths
    x = np.concatenate([run.x0 for run in ordered])
    delta = np.concatenate([np.full((n_paths, 1), 1.0 / run.steps) for run in ordered])
    alive = np.ones(len(x), dtype=bool)
    ends = np.array([run.hi for run in ordered])
    if stepped:
        drift, diffusion, jac = _batch_coefficients(problem)

    def drop_failed(lo: int, x_new: np.ndarray, k: int, steps=(), status=None) -> None:
        """Record each newly non-finite row of ``x_new``, the rows from ``lo``,
        in its lane at its step (0 on a map lane), and keep failed rows NaN."""
        live = alive[lo : lo + len(x_new)]
        bad = ~np.isfinite(x_new).all(axis=1)  # a failed solve leaves its row NaN
        for i in np.flatnonzero(bad & live):
            lane = int(np.searchsorted(ends, lo + i, side="right"))
            run = ordered[lane]
            code = 0 if status is None else int(status[i])
            l = steps[lane] if lane < len(steps) else 0
            run.failures.append((lo + int(i) - run.lo, k, l, _KINDS[code or _STATUS_NON_FINITE]))
        live &= ~bad
        x_new[~live] = np.nan

    ticks = []
    for t in range(m):
        steps = tuple((t + 1) // run.factor - 1 for run in stepped if (t + 1) % run.factor == 0)
        if steps:
            ticks.append((t, steps))
    # at fine tick t the lanes stepped[:j] step on the rows [0, stop), lane
    # i at its own step steps[i]; consecutive lanes of one scheme form one
    # [scheme, rows] run
    levels = {}
    for j in sorted({len(steps) for _, steps in ticks}):
        lane_runs = []
        for run in stepped[:j]:
            if lane_runs and lane_runs[-1][0] == run.lane.scheme:
                lane_runs[-1][1] = slice(lane_runs[-1][1].start, run.hi)
            else:
                lane_runs.append([run.lane.scheme, slice(run.lo, run.hi)])
        full = [i for i, run in enumerate(stepped[:j]) if run.states is not None]
        # a row that the solve accepts is finite, since a non-finite state
        # leaves a non-finite residual; so only a level with a split-step
        # kick after its solve, or an explicit step, scans its states
        scan = any(scheme != "be" for scheme, _ in lane_runs)
        levels[j] = (stepped[j - 1].hi, lane_runs, full, scan)
    ticks = [(t, steps, *levels[len(steps)]) for t, steps in ticks]
    tick_times = [tick[0] for tick in ticks]
    # each level's implicit start, staged on the anchors at each block's start
    stage = problem.implicit_start if stepped and stepped[0].lane.scheme != "em" else None
    starts = dict.fromkeys(levels)
    widest = stepped[-1].factor if stepped else 1

    def advance(k: int, y: np.ndarray, start: int, piece: np.ndarray) -> None:
        """Step every lane through the fine steps of block k that ``piece``
        holds, from step ``start``."""
        length = piece.shape[0]
        if start % widest or length % widest:
            raise ValueError(
                f"a piece of {length} fine steps from step {start} "
                f"does not hold whole steps of {widest}"
            )
        incs = [run.increments(piece) for run in stepped]
        # a lane's step l is row l - offset of its coarsened piece
        offsets = [start // run.factor for run in stepped]
        first, last = bisect_left(tick_times, start), bisect_left(tick_times, start + length)
        for _, steps, stop, lane_runs, full, scan in ticks[first:last]:
            if len(steps) == 1:
                dB = incs[0][steps[0] - offsets[0]]
            else:
                dB = np.concatenate([inc[l - o] for inc, l, o in zip(incs, steps, offsets)])
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
                x_new, status, _ = _newton_batch(drift, jac, ya, da, rhs, starts[len(steps)])
                for scheme, s in lane_runs:
                    if scheme == "ssbe":  # the diffusion kick after the implicit drift update
                        x_new[s] += _kick(diffusion, x_new[s], ya[s], dB[s])
            if np.count_nonzero(status) or scan and not np.isfinite(x_new).all():
                # a row that solved but went non-finite is recorded as "nonfinite"
                drop_failed(0, x_new, k, steps, status)
            x[:stop] = x_new
            for i in full:
                run = stepped[i]
                run.states[:, k * run.steps + steps[i] + 1] = x[run.lo : run.hi]
        for run in mapped:
            run.carry = run.lane.scheme.fold(run.carry, piece, 1.0 / m)

    def end_block(k: int) -> None:
        """Finish the map lanes and keep every lane's states at the end of block k."""
        for run in mapped:
            x_map = run.lane.scheme.finish(x[run.lo : run.hi], run.carry)
            drop_failed(run.lo, x_map, k)
            x[run.lo : run.hi] = x_map
        for run in runs:
            run.anchors[k + 1] = x[run.lo : run.hi]
            if run.states is not None:
                run.states[:, (k + 1) * run.steps] = x[run.lo : run.hi]

    pieces = iter(pieces)
    rest = None  # what block k has not taken of the last piece
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(K):
            y = x.copy()
            if stage is not None:
                for j, (stop, *_) in levels.items():
                    starts[j] = stage(y[:stop], delta[:stop])
            for run in mapped:
                run.carry = np.zeros_like(x[run.lo : run.hi])
            start = 0
            while start < m:
                if rest is None:
                    rest = next(pieces, None)
                    if rest is None:
                        raise ValueError(f"the pieces hold {k * m + start} fine steps, not {K * m}")
                    if stepped and rest.shape[2] != problem.dim_noise:
                        raise ValueError(f"noise dimension mismatch: {rest.shape[2]} != {problem.dim_noise}")
                piece = rest[: m - start]
                rest = rest[m - start :] if len(rest) > len(piece) else None
                advance(k, y, start, piece)
                start += len(piece)
                del piece  # with rest, freed before the next piece is drawn
            end_block(k)

    return [BatchRun(run.anchors, run.states, run.failures) for run in runs]


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
    one start (d,) shared by all rows or per-row starts (n_paths, d).
    The run keeps the block anchors (K+1, n_paths, d), and with ``record``
    "full" every step's states (n_paths, K*m+1, d) too.  A row whose state,
    coefficient or implicit solve goes bad is frozen at NaN and reported in
    ``failures`` as (row, k, l, kind); the other rows continue unaffected.
    This is :func:`run_lanes` with one lane.
    """
    lane = Lane(scheme, x0=x0, record=record)
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 3:
        raise ValueError("increments must have shape (n_paths, n_steps, r)")
    if increments.shape[1] < K * cfg.m:
        raise ValueError(
            f"grid too short: need {K * cfg.m} steps of size 1/{cfg.m}, have {increments.shape[1]}"
        )
    pieces = [increments.swapaxes(0, 1)]
    return run_lanes(problem, [lane], pieces, increments.shape[0], cfg.m, K)[0]


def simulate(
    scheme: str, problem: SdepcaProblem, cfg: BeConfig, grid: BrownianGrid, K: int
) -> np.ndarray:
    """The states (K*m+1, d) of one path of ``scheme``, one of
    :data:`SCHEMES`, at the steps of 1/m over K unit blocks: "be" is
    backward Euler, "em" explicit Euler, which may legitimately blow up on
    stiff problems, and "ssbe" split-step backward Euler, the implicit drift
    update and then the diffusion kick.  The path is one lane of
    :func:`run_lanes` on the grid's fine increments, which the lane
    coarsens to 1/m itself; its first failure raises."""
    fine_m = steps_per_unit(grid.fine_step)
    if fine_m % cfg.m:
        raise ValueError(
            f"grid with fine_step {grid.fine_step} is not coarsenable to delta 1/{cfg.m}"
        )
    factor = fine_m // cfg.m
    if len(grid.increments) < K * fine_m:
        raise ValueError(
            f"grid too short: need {K * cfg.m} steps of size 1/{cfg.m}, have {len(grid.increments) // factor}"
        )
    lane = Lane(scheme, factor, record="full")
    run = run_lanes(problem, [lane], [grid.increments[:, None]], 1, fine_m, K)[0]
    if run.failures:
        _, k, l, kind = run.failures[0]
        raise _failure_error(kind, path=grid.path_index, k=k, l=l)
    return run.states[0]


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
