import math

import numpy as np
import pytest

from sdepca.brownian import BrownianGrid, generate_path
from sdepca.integrators import (
    BeConfig,
    NonConvergenceError,
    NonFiniteError,
    Trajectory,
    be_mean_multiplier,
    be_step,
    run_scheme_batch,
    simulate_be,
    simulate_em,
    simulate_ssbe,
    solve_implicit,
)
from sdepca.model import SdepcaProblem
from sdepca.problems import cubic_multiplicative, linear_additive


def zero_noise_grid(horizon, fine_step):
    n = int(round(horizon / fine_step))
    return BrownianGrid(
        fine_step=fine_step,
        horizon=horizon,
        dim_noise=1,
        increments=np.zeros((n, 1)),
        master_seed=0,
        path_index=0,
    )


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

    @pytest.mark.parametrize("max_iter", [4, None])  # None: the solver's own budget
    @pytest.mark.parametrize("dim", [1, 2])
    def test_batch_rows_match_solo_solves(self, dim, max_iter, monkeypatch):
        # The batch solve evaluates every row in every Newton iteration and
        # freezes the converged ones; each row must still come out exactly as
        # when it is solved alone.  The rows converge at iteration 0, 1 or
        # after several; overshoot and need halvings; start NaN; overflow;
        # or, with a budget of 4 iterations, run out and fail.
        from sdepca import integrators
        from sdepca.integrators import _fd_jacobian, _newton_batch

        if max_iter is not None:
            monkeypatch.setattr(integrators, "_NEWTON_MAX_ITER", max_iter)

        if dim == 1:
            problem = cubic_multiplicative(1.0, 1.0)
            drift, jac = problem.drift, problem.drift_jacobian_x
            rows = [
                ([1.0], [5.0]),  # f(1, 5) = 0: converged at the start
                ([1.0 + 1e-9], [5.0]),  # one step
                ([5.0], [0.0]),
                ([-3.0], [2.0]),
                ([0.0], [1e3]),  # the first step overshoots the root near 12.3
                ([np.nan], [0.0]),
                ([1e200], [0.0]),  # the cube overflows
                ([1e4], [0.0]),
                ([1e6], [1e6]),  # -x^3 and 2y cancel: the rounding floor decides
            ]
        else:
            def drift(x, y):
                return -x * x * x - x + 0.5 * x[:, ::-1] + 0.2 * y

            jac = _fd_jacobian(drift)
            rows = [
                ([0.0, 0.0], [0.0, 0.0]),
                ([1e-9, 0.0], [0.0, 0.0]),
                ([3.0, -2.0], [0.0, 0.0]),
                ([0.0, 0.0], [5e3, 0.0]),
                ([np.nan, 0.0], [0.0, 0.0]),
                ([1e200, 0.0], [0.0, 0.0]),
                ([1e3, 1e3], [0.0, 0.0]),
                ([1e5, -1e5], [0.0, 0.0]),
            ]
        delta = 0.5
        rhs = np.array([r for r, _ in rows])
        y = np.array([v for _, v in rows])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x, status, _ = _newton_batch(drift, jac, y, delta, rhs)
        codes = {NonConvergenceError: 1, NonFiniteError: 2}
        for i in range(len(rows)):
            try:
                solo = solve_implicit(drift, jac, y[i], delta, rhs[i])
            except (NonConvergenceError, NonFiniteError) as exc:
                assert status[i] == codes[type(exc)], i
                assert np.isnan(x[i]).all()
            else:
                assert status[i] == 0, i
                assert x[i].tobytes() == solo.tobytes(), i
        assert 0 in status and 2 in status
        if max_iter == 4:
            assert 1 in status  # some row ran out of iterations


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
    def test_zero_noise_anchor(self):
        problem = linear_additive(3.0, 1.0)
        trajectory = simulate_be(problem, BeConfig(m=2), zero_noise_grid(2.0, 0.5), 2)
        assert trajectory.anchor(0)[0] == 1.0
        assert trajectory.anchor(1)[0] == pytest.approx(0.44, abs=1e-12)

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
        trajectory = simulate_be(frozen, BeConfig(m=8), grid, 3)
        assert np.all(trajectory.states == 2.5)

    def test_mean_multiplier_law(self):
        # zero-noise anchors follow x0 * mu_delta(1)^k
        for theta1, theta2, m in [(3.0, 1.0, 2), (3.0, 1.0, 16), (2.5, -1.0, 8)]:
            problem = linear_additive(theta1, theta2, x0=1.0)
            K = 6
            trajectory = simulate_be(problem, BeConfig(m=m), zero_noise_grid(float(K), 1.0 / m), K)
            mult = be_mean_multiplier(theta1, theta2, m)
            for k in range(K + 1):
                assert trajectory.anchor(k)[0] == pytest.approx(mult**k, rel=1e-10)

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
            simulate_be(problem, BeConfig(m=8), grid, 2)  # delta finer than grid

    def test_horizon_too_short_rejected(self):
        problem = linear_additive(3.0, 1.0)
        grid = generate_path(0, 0, 2.0, 0.5, 1)
        with pytest.raises(ValueError):
            simulate_be(problem, BeConfig(m=2), grid, 4)


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
        trajectory = simulate_em(pure, BeConfig(m=4), grid, 2)
        expected = np.concatenate([[0.0], np.cumsum(grid.increments[:, 0])])
        np.testing.assert_allclose(trajectory.states[:, 0], expected, rtol=0, atol=1e-15)

    def test_matches_exact_decay_at_small_step(self):
        problem = linear_additive(3.0, 0.0, x0=1.0)
        m = 256
        trajectory = simulate_em(problem, BeConfig(m=m), zero_noise_grid(1.0, 1.0 / m), 1)
        assert trajectory.anchor(1)[0] == pytest.approx(math.exp(-3.0), abs=5 * 3.0**2 / m)

    def test_cubic_blowup_raises(self):
        problem = cubic_multiplicative(1.0, 1.0, x0=10.0)
        try:
            simulate_em(problem, BeConfig(m=2), zero_noise_grid(4.0, 0.5), 4)
        except NonFiniteError as err:
            assert err.k is not None
        else:
            pytest.fail("explicit Euler should blow up on the stiff cubic problem")


class TestSimulateSsbe:
    def test_zero_noise_equals_be(self):
        problem = cubic_multiplicative(1.0, 1.0)
        grid = zero_noise_grid(2.0, 0.25)
        cfg = BeConfig(m=4)
        t_be = simulate_be(problem, cfg, grid, 2)
        t_ssbe = simulate_ssbe(problem, cfg, grid, 2)
        np.testing.assert_allclose(t_be.states, t_ssbe.states, rtol=0, atol=1e-12)

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
        t_ssbe = simulate_ssbe(pure, cfg, grid, 2)
        t_em = simulate_em(pure, cfg, grid, 2)
        np.testing.assert_allclose(t_ssbe.states, t_em.states, rtol=0, atol=1e-14)

    def test_self_convergence_on_cubic(self):
        # anchor(1) at coarse steps vs the 2^-11 run on the same 200 paths:
        # strong-error scale, shrinking as the coarse step refines
        from sdepca.brownian import coarsen_array

        problem = cubic_multiplicative(1.0, 1.0)
        incs = np.stack(
            [generate_path(31, i, 1.0, 2.0**-11, 1).increments for i in range(200)]
        )
        fine = run_scheme_batch(
            "ssbe", problem, BeConfig(m=2**11), incs, problem.initial_state, 1, record="final"
        )
        diffs = {}
        for m in (2**7, 2**9):
            coarse = coarsen_array(incs, 2**11 // m)
            run = run_scheme_batch(
                "ssbe", problem, BeConfig(m=m), coarse, problem.initial_state, 1, record="final"
            )
            diffs[m] = float(np.abs(fine.finals[:, 0] - run.finals[:, 0]).mean())
        assert diffs[2**9] < diffs[2**7]
        assert diffs[2**9] < 0.02


class TestBatchEngine:
    def test_batch_matches_per_path(self):
        problem = cubic_multiplicative(1.0, 1.0)
        cfg = BeConfig(m=8)
        grids = [generate_path(13, i, 3.0, 2.0**-3, 1) for i in range(5)]
        increments = np.stack([g.increments for g in grids])
        run = run_scheme_batch("be", problem, cfg, increments, problem.initial_state, 3, record="final")
        for i, grid in enumerate(grids):
            solo = simulate_be(problem, cfg, grid, 3)
            assert run.finals[i, 0] == solo.states[-1, 0]

    def test_failures_are_isolated(self):
        # explicit Euler: |x0| = 10 overflows the cubic, x0 = 0.1 is stable
        problem = cubic_multiplicative(1.0, 1.0)
        cfg = BeConfig(m=8)
        increments = np.zeros((3, 32, 1))
        x0 = np.array([[10.0], [0.1], [-10.0]])
        run = run_scheme_batch("em", problem, cfg, increments, x0, 4, record="final")
        failed_rows = {row for row, _, _, _ in run.failures}
        assert failed_rows == {0, 2}
        assert np.isfinite(run.finals[1, 0])
        assert run.ok.tolist() == [False, True, False]

    def test_survivors_of_a_partly_failed_batch_match_solo_runs(self):
        problem = cubic_multiplicative(1.0, 1.0)
        cfg = BeConfig(m=8)
        increments = np.stack([generate_path(13, i, 3.0, 2.0**-3, 1).increments for i in range(4)])
        x0 = np.array([[2.0], [np.nan], [-1.5], [0.5]])
        for scheme in ("be", "ssbe"):
            run = run_scheme_batch(scheme, problem, cfg, increments, x0, 3, record="full")
            assert run.ok.tolist() == [True, False, True, True]
            for i in (0, 2, 3):
                solo = run_scheme_batch(scheme, problem, cfg, increments[i : i + 1], x0[i], 3, record="full")
                assert run.states[i].tobytes() == solo.states[0].tobytes()

    @pytest.mark.parametrize("scheme", ["be", "ssbe"])
    @pytest.mark.parametrize("record", ["full", "anchors"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_starts_match_solo_runs(self, scheme, record, dim):
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
        x0[2, [1, 3]] = 1e200  # rows whose cubed state overflows, so no solve resolves them
        run = run_scheme_batch(scheme, problem, cfg, increments, x0, K, record=record)
        expected_failures = []
        for s in range(3):
            solo = run_scheme_batch(scheme, problem, cfg, increments, x0[s], K, record=record)
            expected_failures += [(s * n + row, k, l, kind) for row, k, l, kind in solo.failures]
            assert run.ok[s * n : (s + 1) * n].tolist() == solo.ok.tolist()
            for i in np.flatnonzero(solo.ok):
                row = s * n + i
                assert run.finals[row].tobytes() == solo.finals[i].tobytes()
                if record == "full":
                    assert run.states[row].tobytes() == solo.states[i].tobytes()
                else:
                    assert run.anchors[:, row].tobytes() == solo.anchors[:, i].tobytes()
        assert not run.ok[n : 2 * n].any()
        assert run.ok[2 * n : 3 * n].tolist() == [True, False, True, False, True]
        # failures carry start-major row indices, in step order
        assert sorted(run.failures) == sorted(expected_failures)
        assert [f[1:3] for f in run.failures] == sorted(f[1:3] for f in run.failures)

    def test_anchor_record_shape(self):
        problem = linear_additive(3.0, 1.0)
        cfg = BeConfig(m=4)
        increments = np.zeros((2, 8, 1))
        run = run_scheme_batch("be", problem, cfg, increments, problem.initial_state, 2, record="anchors")
        assert run.anchors.shape == (3, 2, 1)
        assert np.all(run.anchors[0] == 1.0)


class TestTrajectory:
    def test_csv_round_trip_exact(self, tmp_path):
        problem = linear_additive(3.0, 1.0)
        grid = generate_path(2, 7, 2.0, 2.0**-2, 1)
        trajectory = simulate_be(problem, BeConfig(m=4), grid, 2)
        target = tmp_path / "trajectory.csv"
        trajectory.to_csv(target)
        header = target.read_text().splitlines()[0]
        assert header == "t,x_0"
        data = np.loadtxt(target, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 1], trajectory.states[:, 0])
        np.testing.assert_array_equal(data[:, 0], trajectory.times())

    def test_rejects_non_finite_states(self):
        with pytest.raises(ValueError):
            Trajectory(states=np.array([[1.0], [np.inf]]), m=1)

    def test_anchor_bounds(self):
        trajectory = Trajectory(states=np.zeros((5, 1)), m=2)
        assert trajectory.n_anchors == 3
        with pytest.raises(IndexError):
            trajectory.anchor(3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BeConfig(m=0)
