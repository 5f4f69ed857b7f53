"""Drift-implicit and reference time-stepping schemes on block-structured grids.

The primary scheme is backward Euler: each step solves

    x_next - delta * f(x_next, anchor) = x + g(x, anchor) * dB

where ``anchor`` is the state frozen at the start of the current unit block
(the piecewise-constant argument).  Monotonicity of the drift makes the
implicit map strongly monotone, so the solve has a unique solution for every
step size, and one damped Newton solve from the explicit part finds it.

Explicit Euler and split-step backward Euler are provided as references.  All
schemes run either on a single path (``simulate_be`` and friends, returning a
:class:`Trajectory`) or vectorized across a batch of paths
(:func:`run_scheme_batch`), which is what the Monte Carlo layer uses.  Rows of
a batch are advanced independently - a row's iterates never depend on the
other rows - so batched and per-path runs agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .brownian import BrownianGrid, coarsen_array
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
    """Residual of x - delta*drift(x, y) = rhs and its row norms."""
    res = x - delta * drift(x, y) - rhs
    return res, _row_norm(res)


def _rounding_floor(drift, jac, x, y, delta, rhs):
    """Rounding level of the residual of x - delta*drift(x, y) = rhs, per row.

    ``_ROUNDING * (|x| + |rhs| + delta*(|f(x, y)| + |J(x, y)| |x|))`` in
    1-norms.  The first three terms bound the rounding of the sum; the
    Jacobian term bounds the change of the residual when x moves by one
    rounding, and it also covers a drift whose terms cancel, such as
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

    Returns (x, status, resnorm) where status is 0/1/2 for
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
    if delta == 0.0:
        return rhs.copy(), status, np.zeros(n)

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
        dx = _solve_rows(identity - delta * jac(x, y), -res)
        x_new = x + dx
        r_new, rn_new = _residual(drift, x_new, y, delta, rhs)
        take = active & (rn_new < rnorm)
        if np.count_nonzero(take) < n_active:
            # the rows whose residual did not fall: halve their steps
            iw = np.flatnonzero(active & ~take)
            xw, dw, yw, rw, rn_old = x[iw], dx[iw], y[iw], rhs[iw], rnorm[iw]
            xh, rh, rnh = x_new[iw], r_new[iw], rn_new[iw]
            scale = np.ones((iw.size, 1))
            for _ in range(_MAX_HALVINGS):
                still = rnh >= rn_old
                if not still.any():
                    break
                scale[still] *= 0.5
                xh[still] = xw[still] + scale[still] * dw[still]
                rh[still], rnh[still] = _residual(drift, xh[still], yw[still], delta, rw[still])
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
    floor = _rounding_floor(drift, jac, x[left], y[left], delta, rhs[left])
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
    if jac is None:
        jac = _fd_jacobian(drift)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, status, rnorm = _newton_batch(drift, jac, y_block[None, :], float(delta), rhs[None, :])
    if status[0] == _STATUS_NON_FINITE:
        raise NonFiniteError()
    if status[0] == _STATUS_NO_CONVERGENCE:
        raise NonConvergenceError(float(rnorm[0]))
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
    and the row index of each failure all follow that order.  The
    increments are repeated across the starts one unit block at a time.
    ``record`` selects what is kept: "final", "anchors" (shape (K+1, n, d))
    or "full" ((n, K*m+1, d)).  A row whose state, coefficient or implicit
    solve goes bad is frozen at NaN and reported in ``failures`` as
    (row, k, l, reason); the other rows continue unaffected.
    """
    if scheme not in ("be", "em", "ssbe"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if record not in ("final", "anchors", "full"):
        raise ValueError(f"unknown record mode {record!r}")
    if K < 0:
        raise ValueError("K must be nonnegative")
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 3:
        raise ValueError("increments must have shape (n_paths, n_steps, r)")
    n_paths = increments.shape[0]
    m, d, r = cfg.m, problem.dim_state, problem.dim_noise
    if increments.shape[1] < K * m:
        raise ValueError(
            f"grid too short: need {K * m} steps of size 1/{m}, have {increments.shape[1]}"
        )
    if increments.shape[2] != r:
        raise ValueError(f"noise dimension mismatch: {increments.shape[2]} != {r}")

    x0 = np.asarray(x0, dtype=float)
    n_starts = x0.shape[0] if x0.ndim == 3 else 1
    n_rows = n_starts * n_paths
    x = np.broadcast_to(x0, (n_starts, n_paths, d)).reshape(n_rows, d).copy()

    drift, diffusion, jac = _batch_coefficients(problem)
    delta = cfg.delta
    anchors = np.full((K + 1, n_rows, d), np.nan) if record == "anchors" else None
    states = np.full((n_rows, K * m + 1, d), np.nan) if record == "full" else None
    if anchors is not None:
        anchors[0] = x
    if states is not None:
        states[:, 0] = x

    failures: list[tuple[int, int, int, str]] = []
    alive = np.ones(n_rows, dtype=bool)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(K):
            y_full = x.copy()
            # the block's increments step-major, so each step reads one contiguous
            # slab, and repeated for each start
            block = np.empty((m, n_starts, n_paths, r))
            block[:] = increments[:, k * m : (k + 1) * m].swapaxes(0, 1)[:, None]
            block = block.reshape(m, n_rows, r)
            for l in range(m):
                # while every row is alive the step works on the whole arrays
                idx = slice(None) if not failures else np.flatnonzero(alive)
                xa = x[idx]
                if xa.shape[0] == 0:
                    break
                ya = y_full[idx]
                dB = block[l][idx]
                if scheme == "em":
                    x_new = xa + delta * drift(xa, ya) + np.einsum("ndr,nr->nd", diffusion(xa, ya), dB)
                    reason = np.zeros(xa.shape[0], dtype=np.int8)
                elif scheme == "be":
                    rhs = xa + np.einsum("ndr,nr->nd", diffusion(xa, ya), dB)
                    x_new, reason, _ = _newton_batch(drift, jac, ya, delta, rhs)
                else:  # ssbe: implicit drift update, then explicit diffusion
                    x_star, reason, _ = _newton_batch(drift, jac, ya, delta, xa)
                    if not np.count_nonzero(reason):
                        x_new = x_star + np.einsum("ndr,nr->nd", diffusion(x_star, ya), dB)
                    else:
                        ok = reason == _STATUS_OK
                        x_new = np.full_like(xa, np.nan)
                        if ok.any():
                            g_star = diffusion(x_star[ok], ya[ok])
                            x_new[ok] = x_star[ok] + np.einsum("ndr,nr->nd", g_star, dB[ok])
                if np.count_nonzero(reason) or not np.isfinite(x_new).all():
                    # a row that solved but went non-finite is reported as "nonfinite"
                    bad = (reason != _STATUS_OK) | ~np.isfinite(x_new).all(axis=1)
                    rows = np.arange(n_rows)[idx]
                    for j in np.flatnonzero(bad):
                        kind = "nonconvergence" if reason[j] == _STATUS_NO_CONVERGENCE else "nonfinite"
                        failures.append((int(rows[j]), k, l, kind))
                    x_new[bad] = np.nan
                    alive[rows[bad]] = False
                x[idx] = x_new
                if states is not None:
                    states[idx, k * m + l + 1] = x_new
            if anchors is not None:
                anchors[k + 1] = x

    return BatchRun(finals=x, anchors=anchors, states=states, failures=failures)


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
        if kind == "nonconvergence":
            raise NonConvergenceError(
                math.nan, f"implicit solve failed at path={grid.path_index}, k={k}, l={l}"
            )
        raise NonFiniteError(grid.path_index, k, l)
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
