import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdepca.brownian import BrownianGrid, coarsen_array, generate_path
from sdepca.integrators import (
    SCHEMES,
    BeConfig,
    BlockMap,
    Lane,
    NonConvergenceError,
    NonFiniteError,
    be_mean_multiplier,
    be_step,
    run_lanes,
    run_scheme_batch,
    simulate,
    solve_implicit,
)
from sdepca.linear_analytic import LinearAdditiveParams
from sdepca.model import SdepcaProblem
from sdepca.montecarlo import linear_exact_reference
from sdepca.problems import cubic_multiplicative, linear_additive


def zero_noise_grid(horizon, fine_step):
    n = int(round(horizon / fine_step))
    return BrownianGrid(fine_step=fine_step, increments=np.zeros((n, 1)), path_index=0)


def ok_rows(run):
    """Mask of the rows of a batch run that have no failure record."""
    ok = np.ones(run.anchors.shape[1], dtype=bool)
    ok[[row for row, _, _, _ in run.failures]] = False
    return ok


def bisect_oracle(residual, lo, hi, tol=1e-13):
    """Test-local bisection, independent of the library's solver internals."""
    r_lo = residual(lo)
    assert r_lo <= 0.0 <= residual(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        if abs(r_mid) <= tol or hi - lo < 1e-16:
            return mid
        if r_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolveImplicit:
    def test_linear_closed_form(self):
        problem = linear_additive(3.0, 1.0)
        x = solve_implicit(
            problem.drift, problem.drift_jacobian_x, np.array([1.0]), 0.5, np.array([1.0])
        )
        # (rhs + delta*theta2*y) / (1 + delta*theta1)
        assert x[0] == pytest.approx(0.6, abs=1e-12)

    def test_zero_delta_is_identity(self):
        problem = cubic_multiplicative(1.0, 1.0)
        rhs = np.array([1.7])
        x = solve_implicit(problem.drift, problem.drift_jacobian_x, np.array([0.3]), 0.0, rhs)
        assert np.array_equal(x, rhs)

    def test_cubic_against_bisection_oracle(self):
        problem = cubic_multiplicative(1.0, 1.0)
        x = solve_implicit(
            problem.drift, problem.drift_jacobian_x, np.array([0.0]), 0.1, np.array([0.0])
        )
        root = bisect_oracle(lambda v: 0.1 * v**3 + 2.0 * v - 0.1, -1.0, 1.0)
        assert x[0] == pytest.approx(root, abs=1e-12)
        assert x[0] == pytest.approx(0.0499938, abs=1e-6)

    def test_randomized_cubic_solves_match_oracle(self):
        problem = cubic_multiplicative(1.0, 1.0)
        rng = np.random.default_rng(17)
        for _ in range(1000):
            delta = float(rng.choice([0.5, 0.25, 0.0625]))
            rhs = float(rng.uniform(-8.0, 8.0))
            y = float(rng.uniform(-3.0, 3.0))

            def res(v):
                return v - delta * (-(v**3) - 10.0 * v + 2.0 * y + 1.0) - rhs

            width = 1.0 + abs(rhs)
            while res(rhs - width) > 0.0 or res(rhs + width) < 0.0:
                width *= 2.0
            root = bisect_oracle(res, rhs - width, rhs + width)
            x = solve_implicit(
                problem.drift, problem.drift_jacobian_x, np.array([y]), delta, np.array([rhs])
            )
            assert x[0] == pytest.approx(root, abs=1e-10)

    def test_scalar_newton_step_matches_lapack(self):
        from sdepca.integrators import _solve_rows

        rng = np.random.default_rng(4)
        A = np.exp(rng.uniform(-20, 20, (20_000, 1, 1))) * rng.choice([-1.0, 1.0], (20_000, 1, 1))
        b = np.exp(rng.uniform(-20, 20, (20_000, 1))) * rng.choice([-1.0, 1.0], (20_000, 1))
        lapack = np.linalg.solve(A, b[..., None])[..., 0]
        assert _solve_rows(A, b).tobytes() == lapack.tobytes()

    def test_finite_difference_jacobian_path(self):
        problem = cubic_multiplicative(1.0, 1.0)
        x = solve_implicit(problem.drift, None, np.array([0.0]), 0.1, np.array([0.0]))
        assert x[0] == pytest.approx(0.0499938, abs=1e-6)

    def test_unsolvable_system_raises(self):
        # x - delta*x = rhs with delta = 1 has no solution for rhs != 0
        with pytest.raises(NonConvergenceError):
            solve_implicit(lambda x, y: x, None, np.array([0.0]), 1.0, np.array([1.0]))

    def test_non_finite_rhs_raises(self):
        problem = cubic_multiplicative(1.0, 1.0)
        with pytest.raises(NonFiniteError):
            solve_implicit(
                problem.drift, problem.drift_jacobian_x, np.array([0.0]), 0.5, np.array([np.nan])
            )

    def test_drift_nan_everywhere_raises_non_finite(self):
        # no row has a finite residual, so the Newton step has no rows to solve
        with pytest.raises(NonFiniteError):
            solve_implicit(
                lambda x, y: np.full_like(x, np.nan), None, np.array([0.0]), 0.5, np.array([1.0])
            )

    # None: the solver's own budget of iterations or of halvings
    @pytest.mark.parametrize(
        "max_iter, max_halvings", [(4, None), (None, None), (None, 2)], ids=["4", "None", "halvings-2"]
    )
    @pytest.mark.parametrize("dim", [1, 2])
    def test_batch_rows_match_solo_solves(self, dim, max_iter, max_halvings, monkeypatch):
        # The batch solve evaluates every row in every Newton iteration, and
        # in each halving the rows it halves, and freezes the converged ones;
        # each row must still come out exactly as when it is solved alone at
        # its own step size, one of three in the batch's per-row column.  The
        # rows converge at iteration 0, 1 or after several; overshoot and need
        # halvings; start NaN; overflow; end at the rounding floor from 1e30;
        # with a budget of 4 iterations, run out and fail; or, with a budget
        # of 2 halvings, overshoot further than it can halve back and fail.
        from sdepca import integrators
        from sdepca.integrators import _fd_jacobian, _newton_batch

        if max_iter is not None:
            monkeypatch.setattr(integrators, "_NEWTON_MAX_ITER", max_iter)
        if max_halvings is not None:
            monkeypatch.setattr(integrators, "_MAX_HALVINGS", max_halvings)

        if dim == 1:
            problem = cubic_multiplicative(1.0, 1.0)
            drift, jac = problem.drift, problem.drift_jacobian_x
            rows = [
                ([1.0], [5.0]),  # f(1, 5) = 0: converged at the start
                ([1.0 + 1e-9], [5.0]),  # one step
                ([5.0], [0.0]),
                ([-3.0], [2.0]),
                ([0.0], [1e3]),  # the first step overshoots the root near 12.3; 2 halvings fail
                ([np.nan], [0.0]),
                ([1e200], [0.0]),  # the cube overflows
                ([1e4], [0.0]),
                ([1e6], [1e6]),  # -x^3 and 2y cancel: the rounding floor decides
                ([1e30], [0.0]),  # about 110 iterations, to the rounding floor
            ]
        else:
            def drift(x, y):
                return -x * x * x - x + 0.5 * x[:, ::-1] + 0.2 * y

            jac = _fd_jacobian(drift)
            rows = [
                ([0.0, 0.0], [0.0, 0.0]),
                ([1e-9, 0.0], [0.0, 0.0]),
                ([3.0, -2.0], [0.0, 0.0]),
                ([0.0, 0.0], [5e3, 0.0]),  # 2 halvings fail
                ([np.nan, 0.0], [0.0, 0.0]),
                ([1e200, 0.0], [0.0, 0.0]),
                ([1e3, 1e3], [0.0, 0.0]),
                ([1e5, -1e5], [0.0, 0.0]),
                ([1e30, 0.0], [0.0, 0.0]),
            ]
        rhs = np.array([r for r, _ in rows])
        y = np.array([v for _, v in rows])
        delta = np.array([0.5, 0.125, 2.0**-11])[np.arange(len(rows)) % 3, None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x, status, resnorm = _newton_batch(drift, jac, y, delta, rhs)
        codes = {NonConvergenceError: 1, NonFiniteError: 2}
        for i in range(len(rows)):
            try:
                solo = solve_implicit(drift, jac, y[i], delta[i, 0], rhs[i])
            except (NonConvergenceError, NonFiniteError) as exc:
                assert status[i] == codes[type(exc)], i
                assert np.isnan(x[i]).all()
            else:
                assert status[i] == 0, i
                assert x[i].tobytes() == solo.tobytes(), i
        assert 0 in status and 2 in status
        if max_iter == 4 or max_halvings == 2:
            assert 1 in status  # some row ran out of iterations or of halvings
        if max_halvings == 2:
            assert status[4 if dim == 1 else 3] == 1  # the overshooting row
        if max_iter is None:
            assert status[-1] == 0 and resnorm[-1] > 1e-12  # the 1e30 row, at its floor

    def test_halvings_evaluate_only_the_rows_they_halve(self, monkeypatch):
        # One row of 51 overshoots its root and halves its step; each halving
        # must evaluate that row alone, not the 50 rows converged at x = 0
        from sdepca import integrators

        problem = cubic_multiplicative(1.0, 1.0)
        sizes = []
        residual = integrators._residual

        def counted(drift, x, *args):
            sizes.append(len(x))
            return residual(drift, x, *args)

        monkeypatch.setattr(integrators, "_residual", counted)
        y = np.zeros((51, 1))
        y[-1] = 1e3
        _, status, _ = integrators._newton_batch(
            problem.drift, problem.drift_jacobian_x, y, np.full((51, 1), 0.125), np.zeros((51, 1))
        )
        assert not status.any()
        assert set(sizes) == {51, 1}


def linear_start_oracle(y, delta, rhs):
    """The linear start at theta1 = 3, theta2 = 1 as one formula."""
    return (rhs + delta * (1.0 * y)) / (1.0 + delta * 3.0)


def cubic_start_oracle(y, delta, rhs):
    """The cubic start as one formula of (y, delta, rhs)."""
    p = 1.0 / delta + 10.0
    q = rhs / delta + 2.0 * y + 1.0
    s = np.sqrt(p / 3.0)
    return 2.0 * s * np.sinh(np.arcsinh(q * (1.5 / (p * s))) / 3.0)


STEP_SIZES = st.one_of(st.integers(0, 11).map(lambda k: 2.0**-k), st.floats(2.0**-11, 1.0))


@st.composite
def start_batches(draw):
    """(y, delta, rhs, j): n rows of anchors, step sizes and right-hand
    sides, and a prefix length j <= n.  Anchors and right-hand sides are
    normal draws, whose full mantissas show a change in the order of the
    operations, with Hypothesis's own floats and NaN rows in their place
    on some rows."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = st.lists(
        st.one_of(st.none(), st.floats(-1e300, 1e300), st.just(np.nan)), min_size=n, max_size=n
    )

    def column():
        values = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e3, 1e100])), n)
        for i, v in enumerate(draw(special)):
            if v is not None:
                values[i] = v
        return values[:, None]

    y, rhs = column(), column()
    delta = np.array(draw(st.lists(STEP_SIZES, min_size=n, max_size=n)))[:, None]
    return y, delta, rhs, draw(st.integers(1, n))


class TestImplicitStart:
    """The built-in problems start the implicit solve at a closed-form root."""

    PROBLEMS = {"linear": linear_additive(3.0, 1.0), "cubic": cubic_multiplicative(1.0, 1.0)}
    ORACLES = {"linear": linear_start_oracle, "cubic": cubic_start_oracle}

    @pytest.mark.parametrize("name", ["linear", "cubic"])
    @given(batch=start_batches())
    @settings(max_examples=300, deadline=None)
    def test_staged_start_equals_the_formula_on_every_prefix(self, name, batch):
        # run_lanes stages one start per prefix of its rows, so a start
        # staged on the first j rows must give the first j rows' bits
        y, delta, rhs, j = batch
        stage = self.PROBLEMS[name].implicit_start
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            want = self.ORACLES[name](y, delta, rhs)
            got = stage(y, delta)(rhs)
            prefix = stage(y[:j], delta[:j])(rhs[:j])
        assert got.tobytes() == want.tobytes()
        assert prefix.tobytes() == got[:j].tobytes()
        assert not np.shares_memory(got, rhs)

    def test_run_lanes_stages_each_level_once_per_block(self):
        # BE lanes at factors 1, 2 and 4 solve on three prefixes of the
        # rows; two lanes at one factor always step together, on one
        problem = cubic_multiplicative(1.0, 1.0)
        staged = []

        def counted(y, delta):
            staged.append(len(y))
            return problem.implicit_start(y, delta)

        counting = dataclasses.replace(problem, implicit_start=counted)
        m, K, n = 8, 5, 3
        fine = np.stack([generate_path(5, i, float(K), 1.0 / m, 1).increments for i in range(n)])
        for lanes, levels in [
            ([Lane("be", 1), Lane("be", 2), Lane("be", 4)], 3),
            ([Lane("be", 2, x0=[0.5]), Lane("be", 2, x0=[-0.5])], 1),
        ]:
            staged.clear()
            runs = run_lanes(counting, lanes, [fine.swapaxes(0, 1)], n, m, K)
            assert 0 < len(staged) <= levels * K
            plain = run_lanes(problem, lanes, [fine.swapaxes(0, 1)], n, m, K)
            for run, ref in zip(runs, plain):
                assert run.anchors[-1].tobytes() == ref.anchors[-1].tobytes()

    def test_rows_the_right_hand_side_solves_return_a_copy(self):
        from sdepca.integrators import _newton_batch

        problem = linear_additive(3.0, 1.0)
        rhs = np.array([[1.0], [-2.0], [0.0], [0.25]])
        y = 3.0 * rhs  # the drift -3x + y is 0 at x = rhs
        delta = np.array([[0.5], [0.125], [1.0], [2.0**-11]])
        x, status, rnorm = _newton_batch(problem.drift, problem.drift_jacobian_x, y, delta, rhs)
        assert not status.any()
        assert not rnorm.any()
        assert x.tobytes() == rhs.tobytes()
        assert not np.shares_memory(x, rhs)

    @pytest.mark.parametrize("name", ["linear", "cubic"])
    @given(
        delta=STEP_SIZES,
        rhs=st.floats(-1e300, 1e300),
        y=st.floats(-1e300, 1e300),
    )
    @settings(max_examples=300, deadline=None)
    def test_solve_from_the_start_meets_the_be_equation(self, name, delta, rhs, y):
        from sdepca.integrators import _newton_batch, _rounding_floor

        problem = self.PROBLEMS[name]
        drift, jac = problem.drift, problem.drift_jacobian_x
        y, d, rhs = np.array([[y]]), np.array([[delta]]), np.array([[rhs]])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x, status, _ = _newton_batch(drift, jac, y, d, rhs, problem.implicit_start(y, d))
            _, status_rhs, _ = _newton_batch(drift, jac, y, d, rhs)
            residual = np.abs(x - d * drift(x, y) - rhs)[0, 0]
            floor = _rounding_floor(drift, jac, x, y, d, rhs)[0]
        # the start fails no row that the right-hand side solves, and in this
        # range it fails none at all
        assert status[0] == 0 or status_rhs[0] != 0
        assert status[0] == 0
        assert residual <= max(1e-12, floor)

    @pytest.mark.parametrize("name", ["linear", "cubic", "sinh"])
    @given(
        rows=st.lists(
            st.tuples(st.floats(allow_nan=True, allow_infinity=True), st.floats(allow_nan=True, allow_infinity=True)),
            min_size=1,
            max_size=8,
        ),
        delta=STEP_SIZES,
        staged=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_row_the_solve_accepts_is_finite(self, name, rows, delta, staged):
        # run_lanes scans a level of BE lanes for non-finite states only
        # through the solve's status; that is sound if no accepted row is
        # non-finite, whatever the anchors, the right-hand sides or a drift
        # that overflows (the cubic's cube past 5.6e102, sinh past 710)
        from sdepca.integrators import _fd_jacobian, _newton_batch

        if name == "sinh":

            def drift(x, y):
                return -np.sinh(x) + y

            jac, stage = _fd_jacobian(drift), None
        else:
            problem = self.PROBLEMS[name]
            drift, jac, stage = problem.drift, problem.drift_jacobian_x, problem.implicit_start
        y = np.array([[v] for v, _ in rows])
        rhs = np.array([[r] for _, r in rows])
        d = np.full((len(rows), 1), delta)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            start = stage(y, d) if staged and stage is not None else None
            x, status, _ = _newton_batch(drift, jac, y, d, rhs, start)
        assert np.isfinite(x[status == 0]).all()

    @pytest.mark.parametrize("x0", [2.0, -3.0, 1e6])
    def test_be_steps_by_hand_equal_simulate_be(self, x0):
        # from 1e6 some states sit at the rounding floor, where the solve
        # iterates past the start
        problem = cubic_multiplicative(1.0, 1.0, x0=x0)
        cfg, K = BeConfig(m=8), 3
        grid = generate_path(31, 2, float(K), cfg.delta)
        simulated = simulate("be", problem, cfg, grid, K)
        x = problem.initial_state
        states = [x]
        for n in range(K * cfg.m):
            if n % cfg.m == 0:
                y = x
            x = be_step(problem, cfg, x, y, grid.increments[n])
            states.append(x)
        assert np.array(states).tobytes() == simulated.tobytes()

    def test_starts_meet_the_criterion_5_oracles(self):
        # Criterion 5 checks be_step against a hand-written closed form and
        # solve_implicit against bisection; neither oracle reads a problem's
        # start.  The starts themselves must meet them, and so must the
        # solves from either start.
        rng = np.random.default_rng(5)
        for _ in range(300):
            theta1, theta2 = float(rng.uniform(0.1, 10.0)), float(rng.uniform(-5.0, 5.0))
            cfg = BeConfig(m=int(rng.integers(1, 128)))
            x_prev, y = float(rng.uniform(-10.0, 10.0)), float(rng.uniform(-10.0, 10.0))
            dB = float(rng.normal(0.0, 0.5))
            want = (x_prev + dB + cfg.delta * theta2 * y) / (1.0 + cfg.delta * theta1)
            problem = linear_additive(theta1, theta2)
            start = problem.implicit_start(np.array([[y]]), np.array([[cfg.delta]]))(
                np.array([[x_prev + dB]])
            )
            assert start[0, 0] == pytest.approx(want, abs=1e-12)
            for p in (problem, dataclasses.replace(problem, implicit_start=None)):
                got = be_step(p, cfg, np.array([x_prev]), np.array([y]), np.array([dB]))
                assert got[0] == pytest.approx(want, abs=1e-12)

        problem = cubic_multiplicative(1.0, 1.0)
        for _ in range(300):
            delta = float(rng.choice([0.5, 0.25, 0.125, 0.0625]))
            rhs, y = float(rng.uniform(-8.0, 8.0)), float(rng.uniform(-3.0, 3.0))

            def res(v):
                return v - delta * (-(v**3) - 10.0 * v + 2.0 * y + 1.0) - rhs

            root = bisect_oracle(res, -abs(rhs) - 2.0, abs(rhs) + 2.0)
            start = problem.implicit_start(np.array([[y]]), np.array([[delta]]))(
                np.array([[rhs]])
            )
            assert start[0, 0] == pytest.approx(root, abs=1e-10)
            for guess in (problem.implicit_start, None):
                got = solve_implicit(
                    problem.drift, problem.drift_jacobian_x, np.array([y]), delta,
                    np.array([rhs]), guess,
                )
                assert got[0] == pytest.approx(root, abs=1e-10)


class TestBeStep:
    def test_linear_example(self):
        problem = linear_additive(3.0, 1.0)
        cfg = BeConfig(m=2)
        x = be_step(problem, cfg, np.array([1.0]), np.array([1.0]), np.array([0.0]))
        assert x[0] == pytest.approx(0.6, abs=1e-12)

    def test_zero_drift_zero_noise_is_identity(self):
        problem = linear_additive(1.0, 0.0)
        still = type(problem)  # keep the dataclass type
        frozen = still(
            dim_state=1,
            dim_noise=1,
            drift=lambda x, y: np.zeros_like(x),
            diffusion=problem.diffusion,
            initial_state=problem.initial_state,
        )
        cfg = BeConfig(m=2)
        x = be_step(frozen, cfg, np.array([1.3]), np.array([0.0]), np.array([0.0]))
        assert x[0] == pytest.approx(1.3, abs=1e-14)

    def test_second_linear_step(self):
        problem = linear_additive(3.0, 1.0)
        cfg = BeConfig(m=2)
        x = be_step(problem, cfg, np.array([0.6]), np.array([1.0]), np.array([0.0]))
        assert x[0] == pytest.approx(0.44, abs=1e-12)

    def test_randomized_linear_closed_form(self):
        # oracle equivalence over 1e4 randomized parameter/input tuples
        rng = np.random.default_rng(23)
        for _ in range(10_000):
            theta1 = float(rng.uniform(0.1, 10.0))
            theta2 = float(rng.uniform(-5.0, 5.0))
            m = int(rng.integers(1, 64))
            x_prev = float(rng.uniform(-10.0, 10.0))
            y = float(rng.uniform(-10.0, 10.0))
            dB = float(rng.normal(0.0, 0.5))
            problem = linear_additive(theta1, theta2)
            cfg = BeConfig(m=m)
            got = be_step(problem, cfg, np.array([x_prev]), np.array([y]), np.array([dB]))
            want = (x_prev + dB + cfg.delta * theta2 * y) / (1.0 + cfg.delta * theta1)
            assert got[0] == pytest.approx(want, abs=1e-12)


class TestSimulateBe:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BeConfig(m=0)

    @pytest.mark.parametrize("m", [2.5, 0.0, math.nan, math.inf, np.float64(math.inf), "4"])
    def test_an_m_that_is_not_a_positive_integer_is_rejected(self, m):
        # 2.5 was accepted and failed later, in coarsening
        with pytest.raises(ValueError, match="^m must be a positive integer, got"):
            BeConfig(m=m)

    @pytest.mark.parametrize("m", [16.0, np.float64(16.0), np.int64(16)])
    def test_an_integral_m_is_stored_as_an_int(self, m):
        # 16.0 was accepted and run_scheme_batch then raised a TypeError
        cfg = BeConfig(m=m)
        assert cfg.m == 16 and type(cfg.m) is int

    def test_zero_noise_anchor(self):
        problem = linear_additive(3.0, 1.0)
        states = simulate("be", problem, BeConfig(m=2), zero_noise_grid(2.0, 0.5), 2)
        assert states[0, 0] == 1.0
        assert states[2, 0] == pytest.approx(0.44, abs=1e-12)

    def test_constant_when_coefficients_vanish(self):
        problem = linear_additive(3.0, 1.0)
        frozen = type(problem)(
            dim_state=1,
            dim_noise=1,
            drift=lambda x, y: np.zeros_like(x),
            diffusion=lambda x, y: np.zeros(np.shape(x)[:-1] + (1, 1)),
            initial_state=[2.5],
        )
        grid = generate_path(5, 0, 3.0, 2.0**-3, 1)
        states = simulate("be", frozen, BeConfig(m=8), grid, 3)
        assert np.all(states == 2.5)

    def test_mean_multiplier_law(self):
        # zero-noise anchors follow x0 * mu_delta(1)^k
        for theta1, theta2, m in [(3.0, 1.0, 2), (3.0, 1.0, 16), (2.5, -1.0, 8)]:
            problem = linear_additive(theta1, theta2, x0=1.0)
            K = 6
            grid = zero_noise_grid(float(K), 1.0 / m)
            states = simulate("be", problem, BeConfig(m=m), grid, K)
            mult = be_mean_multiplier(theta1, theta2, m)
            for k in range(K + 1):
                assert states[k * m, 0] == pytest.approx(mult**k, rel=1e-10)

    def test_mean_multiplier_first_order_consistency(self):
        # mu_delta(1) -> mu(1) at rate O(delta)
        theta1, theta2 = 3.0, 1.0
        mu_cont = theta2 / theta1 + (1 - theta2 / theta1) * math.exp(-theta1)
        errors = [abs(be_mean_multiplier(theta1, theta2, m) - mu_cont) for m in (16, 32, 64, 128)]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        for ratio in ratios:
            assert ratio == pytest.approx(2.0, rel=0.2)

    def test_grid_not_coarsenable_rejected(self):
        problem = linear_additive(3.0, 1.0)
        grid = generate_path(0, 0, 2.0, 0.5, 1)
        with pytest.raises(ValueError):
            simulate("be", problem, BeConfig(m=8), grid, 2)  # delta finer than grid

    def test_hand_built_grid_must_be_dyadic(self):
        problem = linear_additive(3.0, 1.0)
        grid = dataclasses.replace(zero_noise_grid(1.0, 0.25), fine_step=1.0 / 3.0)
        with pytest.raises(ValueError, match="^fine_step must be a power of two"):
            simulate("be", problem, BeConfig(m=1), grid, 1)

    def test_horizon_too_short_rejected(self):
        problem = linear_additive(3.0, 1.0)
        grid = generate_path(0, 0, 2.0, 0.5, 1)
        with pytest.raises(ValueError, match=r"^grid too short: need 8 steps of size 1/2, have 4$"):
            simulate("be", problem, BeConfig(m=2), grid, 4)

    def test_a_grid_of_the_wrong_noise_width_is_rejected(self):
        # a lane's kick would broadcast one noise column over two, or two
        # over one, so the runner checks each piece's width
        problem = linear_additive(3.0, 1.0)
        grid = BrownianGrid(fine_step=0.5, increments=np.zeros((4, 2)), path_index=0)
        with pytest.raises(ValueError, match="^noise dimension mismatch: 2 != 1$"):
            simulate("be", problem, BeConfig(m=2), grid, 2)

    def test_unknown_scheme_rejected(self):
        problem = linear_additive(3.0, 1.0)
        with pytest.raises(ValueError, match="^unknown scheme 'rk4'"):
            simulate("rk4", problem, BeConfig(m=2), zero_noise_grid(1.0, 0.5), 1)


class TestSimulateEm:
    def test_pure_integration(self):
        problem = linear_additive(1.0, 0.0)
        pure = type(problem)(
            dim_state=1,
            dim_noise=1,
            drift=lambda x, y: np.zeros_like(x),
            diffusion=problem.diffusion,
            initial_state=[0.0],
        )
        grid = generate_path(8, 1, 2.0, 2.0**-2, 1)
        states = simulate("em", pure, BeConfig(m=4), grid, 2)
        expected = np.concatenate([[0.0], np.cumsum(grid.increments[:, 0])])
        np.testing.assert_allclose(states[:, 0], expected, rtol=0, atol=1e-15)

    def test_matches_exact_decay_at_small_step(self):
        problem = linear_additive(3.0, 0.0, x0=1.0)
        m = 256
        states = simulate("em", problem, BeConfig(m=m), zero_noise_grid(1.0, 1.0 / m), 1)
        assert states[m, 0] == pytest.approx(math.exp(-3.0), abs=5 * 3.0**2 / m)

    def test_cubic_blowup_raises(self):
        problem = cubic_multiplicative(1.0, 1.0, x0=10.0)
        try:
            simulate("em", problem, BeConfig(m=2), zero_noise_grid(4.0, 0.5), 4)
        except NonFiniteError as err:
            assert err.k is not None
        else:
            pytest.fail("explicit Euler should blow up on the stiff cubic problem")


class TestSimulateSsbe:
    def test_zero_noise_equals_be(self):
        problem = cubic_multiplicative(1.0, 1.0)
        grid = zero_noise_grid(2.0, 0.25)
        cfg = BeConfig(m=4)
        t_be = simulate("be", problem, cfg, grid, 2)
        t_ssbe = simulate("ssbe", problem, cfg, grid, 2)
        np.testing.assert_allclose(t_be, t_ssbe, rtol=0, atol=1e-12)

    def test_zero_drift_reduces_to_explicit(self):
        problem = cubic_multiplicative(1.0, 0.0)
        pure = type(problem)(
            dim_state=1,
            dim_noise=1,
            drift=lambda x, y: np.zeros_like(x),
            diffusion=problem.diffusion,
            initial_state=[1.0],
        )
        grid = generate_path(3, 2, 2.0, 2.0**-2, 1)
        cfg = BeConfig(m=4)
        t_ssbe = simulate("ssbe", pure, cfg, grid, 2)
        t_em = simulate("em", pure, cfg, grid, 2)
        np.testing.assert_allclose(t_ssbe, t_em, rtol=0, atol=1e-14)

    def test_self_convergence_on_cubic(self):
        # anchor(1) at coarse steps vs the 2^-11 run on the same 200 paths:
        # strong-error scale, shrinking as the coarse step refines
        from sdepca.brownian import coarsen_array

        problem = cubic_multiplicative(1.0, 1.0)
        incs = np.stack(
            [generate_path(31, i, 1.0, 2.0**-11, 1).increments for i in range(200)]
        )
        fine = run_scheme_batch("ssbe", problem, BeConfig(m=2**11), incs, problem.initial_state, 1)
        diffs = {}
        for m in (2**7, 2**9):
            coarse = coarsen_array(incs, 2**11 // m)
            run = run_scheme_batch("ssbe", problem, BeConfig(m=m), coarse, problem.initial_state, 1)
            diffs[m] = float(np.abs(fine.anchors[-1, :, 0] - run.anchors[-1, :, 0]).mean())
        assert diffs[2**9] < diffs[2**7]
        assert diffs[2**9] < 0.02


class TestSimulateIsOneLane:
    """simulate steps one lane of run_lanes on the grid's fine increments.
    The reference is the route it replaced: the grid coarsened whole to 1/m
    by coarsen_array and run at factor 1 by run_scheme_batch."""

    PROBLEMS = {
        "linear": linear_additive(3.0, 1.0),
        "cubic": cubic_multiplicative(1.0, 1.0),
        "cubic-1e6": cubic_multiplicative(1.0, 1.0, x0=1e6),
    }

    @staticmethod
    def outcomes(scheme, problem, factor):
        """simulate's and the reference's states as bytes, or (path, k, l)
        of their first failure, over K = 3 blocks at m = 8 on a grid of
        step 1/(8 factor)."""
        cfg, K = BeConfig(m=8), 3
        grid = generate_path(19, 4, float(K), 1.0 / (8 * factor))
        try:
            got = simulate(scheme, problem, cfg, grid, K).tobytes()
        except NonFiniteError as err:
            got = (err.path_index, err.k, err.l)
        increments = coarsen_array(grid.increments[: K * 8 * factor], factor)[None]
        run = run_scheme_batch(scheme, problem, cfg, increments, problem.initial_state, K, record="full")
        want = run.states[0].tobytes()
        if run.failures:
            _, k, l, kind = run.failures[0]
            assert kind == "nonfinite"
            want = (grid.path_index, k, l)
        return got, want

    @pytest.mark.parametrize("factor", [1, 4])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name", ["linear", "cubic"])
    def test_states_equal_the_coarsened_grid_run(self, name, scheme, factor):
        # explicit Euler on the cubic problem at factor 1 blows up at block
        # 1, step 0, so that case compares the failure
        got, want = self.outcomes(scheme, self.PROBLEMS[name], factor)
        assert got == want

    @pytest.mark.parametrize("factor", [1, 4])
    def test_an_explicit_blowup_fails_where_the_coarsened_grid_run_does(self, factor):
        got, want = self.outcomes("em", self.PROBLEMS["cubic-1e6"], factor)
        assert got == want == (4, 0, 3)


class TestBatchEngine:
    def test_a_start_of_the_wrong_width_is_rejected(self):
        # one noise column would drive a 2-column chain of the d = 1 problem
        problem = linear_additive(3.0, 1.0)
        increments = np.zeros((4, 8, 1))
        with pytest.raises(ValueError, match="^a lane start has 2 entries, not dim_state 1"):
            run_scheme_batch("be", problem, BeConfig(m=4), increments, np.array([1.0, 2.0]), 2)

    def test_batch_matches_per_path(self):
        problem = cubic_multiplicative(1.0, 1.0)
        cfg = BeConfig(m=8)
        grids = [generate_path(13, i, 3.0, 2.0**-3, 1) for i in range(5)]
        increments = np.stack([g.increments for g in grids])
        run = run_scheme_batch("be", problem, cfg, increments, problem.initial_state, 3)
        for i, grid in enumerate(grids):
            solo = simulate("be", problem, cfg, grid, 3)
            assert run.anchors[-1, i, 0] == solo[-1, 0]

    def test_failures_are_isolated(self):
        # explicit Euler: |x0| = 10 overflows the cubic, x0 = 0.1 is stable
        problem = cubic_multiplicative(1.0, 1.0)
        cfg = BeConfig(m=8)
        increments = np.zeros((3, 32, 1))
        x0 = np.array([[10.0], [0.1], [-10.0]])
        run = run_scheme_batch("em", problem, cfg, increments, x0, 4)
        failed_rows = {row for row, _, _, _ in run.failures}
        assert failed_rows == {0, 2}
        assert np.isfinite(run.anchors[-1, 1, 0])
        assert ok_rows(run).tolist() == [False, True, False]

    def test_survivors_of_a_partly_failed_batch_match_solo_runs(self):
        problem = cubic_multiplicative(1.0, 1.0)
        cfg = BeConfig(m=8)
        increments = np.stack([generate_path(13, i, 3.0, 2.0**-3, 1).increments for i in range(4)])
        x0 = np.array([[2.0], [np.nan], [-1.5], [0.5]])
        for scheme in ("be", "ssbe"):
            run = run_scheme_batch(scheme, problem, cfg, increments, x0, 3, record="full")
            assert ok_rows(run).tolist() == [True, False, True, True]
            for i in (0, 2, 3):
                solo = run_scheme_batch(scheme, problem, cfg, increments[i : i + 1], x0[i], 3, record="full")
                assert run.states[i].tobytes() == solo.states[0].tobytes()

    @pytest.mark.parametrize("scheme", ["be", "ssbe"])
    @pytest.mark.parametrize("record", ["full", "anchors"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_starts_match_solo_runs(self, scheme, record, dim):
        """Several starts on the same noise, one lane each, equal each start
        run alone."""
        if dim == 1:
            problem = cubic_multiplicative(1.0, 1.0)
        else:
            # a 2-d cubic without an analytic Jacobian: finite differences
            def drift(x, y):
                return -x * x * x - x + 0.5 * x[:, ::-1] + 0.2 * y

            def diffusion(x, y):
                g = np.zeros((x.shape[0], 2, 2))
                g[:, 0, 0] = 0.3 + 0.1 * y[:, 0]
                g[:, 1, 1] = 0.2 * x[:, 1]
                g[:, 0, 1] = 0.1
                return g

            problem = SdepcaProblem(
                dim_state=2, dim_noise=2, drift=drift, diffusion=diffusion, initial_state=[1, -1]
            )
        cfg, K, n = BeConfig(m=8), 3, 5
        increments = np.stack(
            [generate_path(21, i, 3.0, 2.0**-3, dim).increments for i in range(n)]
        )
        rng = np.random.default_rng(7)
        x0 = rng.uniform(-2.0, 2.0, (3, n, dim))
        x0[1] = np.nan  # a start that fails on every row
        # rows whose first step overflows, so no solve resolves them: the
        # diffusion kick for d = 1, whose start solves from 1e200, and the cube
        # for d = 2
        x0[2, [1, 3]] = 1e308
        # one lane per start on the same noise: the lanes share each tick's solve
        lanes = [Lane(scheme, x0=start, record=record) for start in x0]
        runs = run_lanes(problem, lanes, [increments.swapaxes(0, 1)], n, cfg.m, K)
        for start, run in zip(x0, runs):
            solo = run_scheme_batch(scheme, problem, cfg, increments, start, K, record=record)
            assert ok_rows(run).tolist() == ok_rows(solo).tolist()
            for i in np.flatnonzero(ok_rows(solo)):
                assert run.anchors[-1, i].tobytes() == solo.anchors[-1, i].tobytes()
                if record == "full":
                    assert run.states[i].tobytes() == solo.states[i].tobytes()
                else:
                    assert run.anchors[:, i].tobytes() == solo.anchors[:, i].tobytes()
            # failures carry the lane's own row indices, in step order
            assert run.failures == solo.failures
            assert [f[1:3] for f in run.failures] == sorted(f[1:3] for f in run.failures)
        assert not ok_rows(runs[1]).any()
        assert ok_rows(runs[2]).tolist() == [True, False, True, False, True]

    def test_anchor_record_shape(self):
        problem = linear_additive(3.0, 1.0)
        cfg = BeConfig(m=4)
        increments = np.zeros((2, 8, 1))
        run = run_scheme_batch("be", problem, cfg, increments, problem.initial_state, 2, record="anchors")
        assert run.anchors.shape == (3, 2, 1)
        assert np.all(run.anchors[0] == 1.0)


class TestLaneRunner:
    """A merged run steps each lane on its own coarsening of one fine block
    at a time, and the lanes that step at a tick share one implicit solve;
    every lane must come out byte for byte as when it runs alone."""

    # mean reversion whose drift turns NaN above 0.8: rows fail mid-block
    nan_above = SdepcaProblem(
        dim_state=1,
        dim_noise=1,
        drift=lambda x, y: np.where(x > 0.8, np.nan, -x),
        diffusion=lambda x, y: np.ones(x.shape + (1,)),
        drift_jacobian_x=lambda x, y: np.full(x.shape + (1,), -1.0),
        initial_state=[0.0],
    )

    @pytest.mark.parametrize("problem", [cubic_multiplicative(1.0, 1.0), nan_above], ids=["cubic", "nan_above"])
    def test_merged_lanes_match_solo_runs(self, problem):
        m, K, n = 8, 3, 7
        fine = np.stack([generate_path(5, i, 3.0, 1.0 / m, 1).increments for i in range(n)])
        lanes = [
            Lane("be", 4, record="full"),
            Lane("ssbe", 1, record="anchors"),
            # two starts on the same noise: two lanes
            Lane("be", 2, x0=[0.5], record="anchors"),
            Lane("be", 2, x0=[-0.2], record="anchors"),
            Lane("ssbe", 2),
            Lane("be", 8, x0=[0.3], record="full"),
        ]
        runs = run_lanes(problem, lanes, [fine.swapaxes(0, 1)], n, m, K)
        for lane, run in zip(lanes, runs):
            # the lane alone on the coarsened lattice, at its own step size
            x0 = problem.initial_state if lane.x0 is None else lane.x0
            coarse = coarsen_array(fine, lane.factor)
            solo = run_scheme_batch(
                lane.scheme, problem, BeConfig(m=m // lane.factor), coarse, x0, K, lane.record
            )
            assert run.anchors[-1].tobytes() == solo.anchors[-1].tobytes()
            for kept in ("anchors", "states"):
                assert np.asarray(getattr(run, kept)).tobytes() == np.asarray(getattr(solo, kept)).tobytes()
            # failures at the lane's own (k, l), not at the fine tick
            assert run.failures == solo.failures
            assert all(l < m // lane.factor for _, _, l, _ in run.failures)
        if problem is self.nan_above:
            assert all(run.failures for run in runs)
            assert any(l > 0 for run in runs for _, _, l, _ in run.failures)  # mid-block

    @pytest.mark.parametrize("problem", [cubic_multiplicative(1.0, 1.0), nan_above], ids=["cubic", "nan_above"])
    def test_pieces_do_not_change_the_run(self, problem):
        # the same fine noise cut into pieces of whole steps of the widest
        # lane (8 fine steps), of mixed lengths that cross the ends of the
        # unit blocks of 32 steps, or one whole piece
        m, K, n = 32, 3, 7
        fine = np.stack([generate_path(5, i, 3.0, 1.0 / m, 1).increments for i in range(n)])
        steps = fine.swapaxes(0, 1)
        exact = linear_exact_reference(LinearAdditiveParams(3.0, 1.0, 0.4)).lanes[0]
        lanes = [
            Lane("be", 4, record="full"),
            Lane("ssbe", 1, record="anchors"),
            exact,
            Lane("be", 2, x0=[0.5], record="anchors"),
            Lane("be", 8, x0=[0.3], record="full"),
        ]

        def cut(*bounds):
            """Pieces of the fine noise between consecutive bounds."""
            return (steps[a:b] for a, b in zip(bounds, bounds[1:]))

        whole = run_lanes(problem, lanes, cut(0, K * m), n, m, K)
        for bounds in [
            (0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96),
            (0, 40, 56, 96),  # 40 crosses the first block's end, 56 the second's
            (0, 24, 72, 80, 96),  # one piece holds all of the second block
            (0, 8, 96),
            (0, 88, 96),
        ]:
            runs = run_lanes(problem, lanes, cut(*bounds), n, m, K)
            for run, ref in zip(runs, whole):
                assert run.anchors[-1].tobytes() == ref.anchors[-1].tobytes()
                for kept in ("anchors", "states"):
                    assert np.asarray(getattr(run, kept)).tobytes() == np.asarray(getattr(ref, kept)).tobytes()
                assert run.failures == ref.failures
        if problem is self.nan_above:
            assert any(l > 0 for run in whole for _, _, l, _ in run.failures)  # mid-block
        # a piece must hold whole steps of every stepping lane, also where
        # it crosses a block's end
        with pytest.raises(ValueError, match="does not hold whole steps of 8"):
            run_lanes(problem, lanes, cut(0, 4, 96), n, m, K)
        with pytest.raises(ValueError, match="does not hold whole steps of 8"):
            run_lanes(problem, lanes, cut(0, 36, 96), n, m, K)

    def test_a_kick_that_overflows_after_a_converged_solve_is_recorded_at_its_step(self):
        # BE at factor 1 and split-step BE at factor 2: the fine ticks
        # 0 and 2 of a block step BE alone, which the runner does not scan
        # for non-finite states; ticks 1 and 3 step both.  Row 1's fine
        # increment at (k=1, t=1) makes BE's kick overflow before its solve,
        # which fails it, and split-step BE's after its solve, which
        # converges: only the scan sees that one, at its own step l = 0
        problem = SdepcaProblem(
            dim_state=1,
            dim_noise=1,
            drift=lambda x, y: -x,
            diffusion=lambda x, y: np.full(x.shape + (1,), 10.0),
            drift_jacobian_x=lambda x, y: np.full(x.shape + (1,), -1.0),
            initial_state=[1.0],
        )
        m, K, n = 4, 2, 3
        fine = np.zeros((K * m, n, 1))
        fine[m + 1, 1] = 1e308
        be, ssbe = run_lanes(problem, [Lane("be", 1), Lane("ssbe", 2)], [fine], n, m, K)
        assert be.failures == [(1, 1, 1, "nonfinite")]
        assert ssbe.failures == [(1, 1, 0, "nonfinite")]
        for run in (be, ssbe):
            assert ok_rows(run).tolist() == [True, False, True]
            assert np.isfinite(run.anchors[-1, [0, 2]]).all() and np.isnan(run.anchors[-1, 1]).all()
        coarse = coarsen_array(fine.swapaxes(0, 1), 2)
        solo = run_scheme_batch("ssbe", problem, BeConfig(m=m // 2), coarse, [1.0], K)
        assert solo.failures == ssbe.failures

    def test_a_map_lane_that_overflows_records_each_row_once(self):
        # a map whose block end overflows from huge starts and would turn a
        # non-finite state back into 0, beside a BE lane on the same noise:
        # row 3 overflows at block 0 and row 1 at block 1; each is recorded
        # once, at step 0, and stays NaN
        overflowing = BlockMap(
            fold=lambda carry, piece, h: carry + 0.1 * piece.sum(axis=0),
            finish=lambda x, carry: np.where(np.isfinite(x), 0.5 * x * np.abs(x) + carry, 0.0),
        )
        problem = cubic_multiplicative(1.0, 1.0)
        m, K, n = 4, 3, 5
        fine = np.stack([generate_path(9, i, 3.0, 1.0 / m, 1).increments for i in range(n)])
        steps = fine.swapaxes(0, 1)
        x0 = np.array([[0.5], [1e120], [-0.3], [-1e200], [0.1]])
        lanes = [Lane("be", record="anchors"), Lane(overflowing, x0=x0, record="anchors")]
        be, mapped = run_lanes(problem, lanes, [steps], n, m, K)
        assert mapped.failures == [(3, 0, 0, "nonfinite"), (1, 1, 0, "nonfinite")]
        assert np.isnan(mapped.anchors[1:, 3]).all() and np.isnan(mapped.anchors[2:, 1]).all()
        assert np.isfinite(mapped.anchors[:2, 1]).all()
        for i in (0, 2, 4):
            (solo,) = run_lanes(
                None, [Lane(overflowing, x0=x0[i], record="anchors")], [steps[:, i : i + 1]], 1, m, K
            )
            assert solo.failures == []
            assert mapped.anchors[:, i].tobytes() == solo.anchors[:, 0].tobytes()
        solo = run_scheme_batch("be", problem, BeConfig(m=m), fine, problem.initial_state, K)
        assert be.anchors.tobytes() == solo.anchors.tobytes()
        assert be.failures == solo.failures == []

    def test_a_stream_that_ends_early_is_rejected(self):
        problem = cubic_multiplicative(1.0, 1.0)
        m, K, n = 8, 3, 2
        steps = np.zeros((K * m, n, 1))
        lanes = [Lane("be", 2), Lane("ssbe", 1)]
        for pieces, held in [([steps[:16], steps[16:20]], 20), ([steps[:16]], 16), ([], 0)]:
            with pytest.raises(ValueError, match=f"^the pieces hold {held} fine steps, not 24$"):
                run_lanes(problem, lanes, pieces, n, m, K)

    def test_the_runner_takes_no_piece_past_block_k(self):
        # pieces of 5 steps at m = 8: the fourth piece crosses the end of
        # block 2, the last block, and nothing after it may be drawn
        problem = cubic_multiplicative(1.0, 1.0)
        m, K, n = 8, 2, 3
        fine = np.stack([generate_path(5, i, 4.0, 1.0 / m, 1).increments for i in range(n)])
        steps = fine.swapaxes(0, 1)
        taken = []

        def pieces(length, limit):
            for a in range(0, len(steps), length):
                if len(taken) == limit:
                    pytest.fail(f"the runner drew piece {limit + 1}")
                taken.append(a)
                yield steps[a : a + length]

        lanes = [Lane("be", 1, record="full"), Lane("ssbe", 1)]
        whole = run_lanes(problem, lanes, [steps], n, m, K)
        runs = run_lanes(problem, lanes, pieces(5, 4), n, m, K)
        assert taken == [0, 5, 10, 15]
        for run, ref in zip(runs, whole):
            assert run.anchors[-1].tobytes() == ref.anchors[-1].tobytes()
            assert np.asarray(run.states).tobytes() == np.asarray(ref.states).tobytes()
        taken.clear()
        run_lanes(problem, lanes, pieces(16, 1), n, m, K)
        assert taken == [0]
        taken.clear()
        for run in run_lanes(problem, lanes, pieces(5, 0), n, m, 0):
            assert run.anchors[-1].tolist() == [[2.0]] * n
        assert taken == []

    def test_lanes_that_cannot_share_a_run_are_rejected(self):
        problem = cubic_multiplicative(1.0, 1.0)
        pieces = [np.zeros((12, 2, 1))]
        with pytest.raises(ValueError, match="must divide one another"):
            run_lanes(problem, [Lane("be", 2), Lane("be", 4), Lane("be", 6)], pieces, 2, 12, 1)
        with pytest.raises(ValueError, match="explicit"):
            run_lanes(problem, [Lane("be", 2), Lane("em", 2)], pieces, 2, 12, 1)

