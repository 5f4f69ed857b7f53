import math

import numpy as np
import pytest

from sdepca.brownian import generate_increments, generate_path
from sdepca.integrators import (
    BeConfig,
    Trajectory,
    be_mean_multiplier,
    run_scheme_batch,
    simulate_be,
)
from sdepca.linear_analytic import (
    LinearAdditiveParams,
    exact_mean,
    exact_sample_integer,
    exact_variance,
    law,
)
from sdepca.model import SdepcaProblem
from sdepca.montecarlo import (
    MonteCarloFailure,
    TestFunction,
    _mean_se,
    check_recursion_bound,
    contraction_estimate,
    ergodic_mean_trace,
    estimate_weak_error,
    fit_order,
    linear_exact_reference,
    moment_estimate,
    ssbe_reference,
    time_average,
)
from sdepca.problems import (
    cubic_multiplicative,
    cubic_multiplicative_dissipativity,
    linear_additive,
)

LIN = LinearAdditiveParams(3.0, 1.0, 1.0)


def nan_above(threshold):
    """Mean reversion with unit noise whose drift turns NaN above ``threshold``,
    so BE fails on the paths that get there."""
    return SdepcaProblem(
        dim_state=1,
        dim_noise=1,
        drift=lambda x, y: np.where(x > threshold, np.nan, -x),
        diffusion=lambda x, y: np.ones(x.shape + (1,)),
        drift_jacobian_x=lambda x, y: np.full(x.shape + (1,), -1.0),
        initial_state=[0.0],
    )


class TestTestFunctions:
    def test_values(self):
        x = np.array([2.0])
        assert TestFunction.SIN_SQ(x) == pytest.approx(math.sin(4.0))
        assert TestFunction.COS_ABS(x) == pytest.approx(math.cos(2.0))
        assert TestFunction.ATAN_ABS(x) == pytest.approx(math.atan(2.0))
        assert TestFunction.EXP_NEG_SQ(x) == pytest.approx(math.exp(-4.0))
        assert TestFunction.ATAN_SQ(x) == pytest.approx(math.atan(4.0))
        assert TestFunction.SIN_SQ_SHIFT(x) == pytest.approx(math.sin(4.0 + math.pi / 2))

    def test_negative_argument_uses_norm(self):
        assert TestFunction.COS_ABS(np.array([-2.0])) == TestFunction.COS_ABS(np.array([2.0]))

    def test_batched_shapes(self):
        batch = np.zeros((4, 7, 1))
        assert TestFunction.SIN_SQ(batch).shape == (4, 7)

    def test_lookup_by_tag(self):
        assert TestFunction("cos_abs") is TestFunction.COS_ABS

    def test_all_bounded(self):
        xs = np.linspace(-100, 100, 2001)[:, None]
        for phi in TestFunction:
            values = phi(xs)
            assert np.all(np.abs(values) <= math.pi / 2 + 1e-12)


class TestFitOrder:
    def test_identity_power_law(self):
        deltas = [2.0**-k for k in range(3, 10)]
        slope, intercept = fit_order(deltas, deltas)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_power_law(self):
        deltas = np.array([0.5, 0.25, 0.125, 0.0625])
        slope, _ = fit_order(deltas, deltas**2)
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_scaled_power_law(self):
        deltas = np.array([0.5, 0.25, 0.125])
        slope, intercept = fit_order(deltas, 3.0 * deltas)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_rejections(self):
        with pytest.raises(ValueError):
            fit_order([0.5], [0.1])
        with pytest.raises(ValueError):
            fit_order([0.5, 0.25], [0.1, 0.0])
        with pytest.raises(ValueError):
            fit_order([0.5, -0.25], [0.1, 0.2])


class TestWeakError:
    def test_deterministic_across_workers_and_chunks(self):
        problem = linear_additive(3.0, 1.0)
        reference = linear_exact_reference(LIN)
        kwargs = dict(
            deltas=[2.0**-4, 2.0**-5],
            n_paths=60,
            T=2,
            phi=TestFunction.COS_ABS,
            master_seed=5,
            fine_step=2.0**-8,
        )
        base = estimate_weak_error(problem, reference, **kwargs)
        threaded = estimate_weak_error(problem, reference, n_workers=3, chunk_size=7, **kwargs)
        assert base.errors == threaded.errors
        assert base.half_widths == threaded.half_widths
        assert base.fitted_slope == threaded.fitted_slope
        assert base.mean_gaps == threaded.mean_gaps
        assert base.mean_gap_half_widths == threaded.mean_gap_half_widths

    def test_mean_gaps_use_extrapolated_reference(self):
        from sdepca.integrators import simulate_ssbe

        problem = cubic_multiplicative(1.0, 1.0)
        phi = TestFunction.ATAN_SQ
        report = estimate_weak_error(
            problem, ssbe_reference(problem), [2.0**-3, 2.0**-4], 8, 1, phi,
            master_seed=6, fine_step=2.0**-6,
        )
        grids = [generate_path(6, i, 1.0, 2.0**-6, 1) for i in range(8)]
        target = np.mean([
            2.0 * phi(simulate_ssbe(problem, BeConfig(m=64), g, 1).states[-1])
            - phi(simulate_ssbe(problem, BeConfig(m=32), g, 1).states[-1])
            for g in grids
        ])
        for m, gap in zip((8, 16), report.mean_gaps):
            scheme = np.mean([phi(simulate_be(problem, BeConfig(m=m), g, 1).states[-1]) for g in grids])
            assert gap == pytest.approx(abs(target - scheme), rel=1e-12, abs=1e-15)

    def test_order_one_on_linear_problem(self):
        problem = linear_additive(3.0, 1.0)
        reference = linear_exact_reference(LIN)
        report = estimate_weak_error(
            problem,
            reference,
            [2.0**-4, 2.0**-5, 2.0**-6],
            300,
            2,
            TestFunction.ATAN_ABS,
            master_seed=12,
            fine_step=2.0**-9,
        )
        assert 0.7 <= report.fitted_slope <= 1.3
        assert report.errors[0] > report.errors[-1]
        assert report.n_failed == 0

    def test_single_delta_flags_undefined_slope(self):
        problem = linear_additive(3.0, 1.0)
        reference = linear_exact_reference(LIN)
        with pytest.warns(UserWarning, match="slope undefined"):
            report = estimate_weak_error(
                problem,
                reference,
                [2.0**-4],
                20,
                1,
                TestFunction.COS_ABS,
                master_seed=5,
                fine_step=2.0**-6,
            )
        assert report.fitted_slope is None

    def test_failure_budget_aborts(self):
        problem = linear_additive(3.0, 1.0)

        def broken_reference(increments, fine_step, T):
            out = np.full((increments.shape[0], 1), 0.5)
            out[::3] = np.nan  # a third of the paths fail
            return out

        with pytest.raises(MonteCarloFailure):
            estimate_weak_error(
                problem,
                broken_reference,
                [2.0**-3],
                30,
                1,
                TestFunction.COS_ABS,
                master_seed=5,
                fine_step=2.0**-5,
            )

    def test_failure_log_identical_across_workers(self):
        problem = nan_above(0.3)
        logs = []
        for workers, chunk in ((1, 512), (3, 7)):
            with pytest.raises(MonteCarloFailure) as info:
                estimate_weak_error(
                    problem,
                    linear_exact_reference(LIN),
                    [2.0**-3],
                    30,
                    1,
                    TestFunction.COS_ABS,
                    master_seed=5,
                    fine_step=2.0**-5,
                    n_workers=workers,
                    chunk_size=chunk,
                )
            logs.append(info.value.failures)
        assert logs[0] and logs[0] == logs[1]
        assert all(entry["kind"] == "nonfinite" for entry in logs[0])
        paths = [entry["path"] for entry in logs[0]]
        assert paths == sorted(paths)

    def test_failure_message_counts_paths(self):
        # a path that fails at both step sizes has two log entries but is
        # one failed path
        problem = nan_above(0.3)
        with pytest.raises(MonteCarloFailure) as info:
            estimate_weak_error(
                problem,
                linear_exact_reference(LIN),
                [2.0**-3, 2.0**-4],
                30,
                1,
                TestFunction.COS_ABS,
                master_seed=5,
                fine_step=2.0**-5,
            )
        log = info.value.failures
        n_failed = len({entry["path"] for entry in log})
        assert len(log) > n_failed
        assert str(info.value).startswith(f"{n_failed} path failures out of 30 ")

    def test_failure_log_lists_paths_without_a_record(self):
        # a path whose reference went NaN has no solver record; the log and
        # the count still take it, next to the paths the solver logged
        problem = nan_above(0.3)
        reference = linear_exact_reference(LIN)

        def broken_reference(increments, fine_step, T):
            out = reference(increments, fine_step, T)
            out[::3] = np.nan
            return out

        with pytest.raises(MonteCarloFailure) as info:
            estimate_weak_error(
                problem,
                broken_reference,
                [2.0**-3],
                30,
                1,
                TestFunction.COS_ABS,
                master_seed=5,
                fine_step=2.0**-5,
            )
        log = info.value.failures
        paths = {entry["path"] for entry in log}
        assert set(range(0, 30, 3)) < paths  # the solver failed on other paths too
        assert [entry["path"] for entry in log] == sorted(entry["path"] for entry in log)
        assert str(info.value).startswith(f"{len(paths)} path failures out of 30 ")

    def test_validations(self):
        problem = linear_additive(3.0, 1.0)
        reference = linear_exact_reference(LIN)
        with pytest.raises(ValueError):
            estimate_weak_error(problem, reference, [0.3], 10, 1, TestFunction.COS_ABS, 0)
        with pytest.raises(ValueError):
            estimate_weak_error(
                problem, reference, [2.0**-12], 10, 1, TestFunction.COS_ABS, 0
            )  # finer than the fine grid
        with pytest.raises(ValueError):
            estimate_weak_error(problem, reference, [2.0**-4], 10, 1.5, TestFunction.COS_ABS, 0)

    def test_report_serialization(self, tmp_path):
        problem = linear_additive(3.0, 1.0)
        reference = linear_exact_reference(LIN)
        report = estimate_weak_error(
            problem,
            reference,
            [2.0**-4, 2.0**-5],
            25,
            1,
            TestFunction.COS_ABS,
            master_seed=3,
            fine_step=2.0**-7,
        )
        csv_file = tmp_path / "weak.csv"
        json_file = tmp_path / "weak.json"
        report.to_csv(csv_file)
        report.to_json(json_file)
        lines = csv_file.read_text().splitlines()
        assert lines[0] == "delta,error,ci_half_width"
        assert len(lines) == 3
        import json

        payload = json.loads(json_file.read_text())
        assert payload["deltas"] == report.deltas
        assert payload["n_paths"] == 25
        assert set(payload) >= {
            "errors", "half_widths", "fitted_slope", "mean_gaps", "mean_gap_half_widths"
        }

    def test_ci_coverage_for_exact_sampler(self):
        # E cos(X) for X ~ N(mean, var) equals exp(-var/2) cos(mean): check
        # that the nominal 95% interval covers the analytic value >= 90/100
        k = 3
        mean_k = exact_mean(LIN, float(k))
        var_k = exact_variance(LIN, float(k))
        target = math.exp(-var_k / 2.0) * math.cos(mean_k)
        n = 800
        covered = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            values = np.array(
                [TestFunction.COS_ABS(exact_sample_integer(LIN, rng, k)[-1:]) for _ in range(n)]
            )
            half = 1.96 * values.std(ddof=1) / math.sqrt(n)
            covered += abs(values.mean() - target) <= half
        assert covered >= 90


class TestErgodicTrace:
    def test_identical_initials_zero_spread(self):
        problem = linear_additive(3.0, 1.0)
        report = ergodic_mean_trace(
            problem, BeConfig(m=4), [1.0, 1.0], 5, 40, TestFunction.ATAN_ABS, master_seed=8
        )
        assert max(report.spread) == 0.0

    def test_no_dynamics_spread(self):
        problem = linear_additive(3.0, 1.0)
        report = ergodic_mean_trace(
            problem, BeConfig(m=4), [-2.0, 0.0, 2.0], 0, 10, TestFunction.ATAN_ABS, master_seed=8
        )
        phi_values = [math.atan(2.0), 0.0, math.atan(2.0)]
        assert report.spread[0] == pytest.approx(max(phi_values) - min(phi_values), rel=1e-14)

    def test_spread_contracts(self):
        problem = linear_additive(3.0, 1.0)
        report = ergodic_mean_trace(
            problem, BeConfig(m=8), [-2.0, 0.0, 2.0], 10, 200, TestFunction.ATAN_ABS, master_seed=8
        )
        assert report.spread[-1] < 1e-4 * report.spread[0]

    def test_deterministic_across_workers(self):
        problem = cubic_multiplicative(1.0, 1.0)
        kwargs = dict(
            initials=[-1.0, 1.0],
            K=4,
            n_paths=30,
            phi=TestFunction.SIN_SQ,
            master_seed=3,
        )
        a = ergodic_mean_trace(problem, BeConfig(m=4), **kwargs)
        b = ergodic_mean_trace(problem, BeConfig(m=4), n_workers=4, chunk_size=7, **kwargs)
        assert a.traces == b.traces
        assert a.spread == b.spread

    def test_csv_layout(self, tmp_path):
        problem = linear_additive(3.0, 1.0)
        report = ergodic_mean_trace(
            problem, BeConfig(m=4), [-1.0, 1.0], 3, 20, TestFunction.COS_ABS, master_seed=2
        )
        target = tmp_path / "ergodic.csv"
        report.to_csv(target)
        lines = target.read_text().splitlines()
        assert lines[0] == "k,trace_0,trace_1,spread"
        assert len(lines) == 5


class TestTimeAverage:
    def test_constant_trajectory(self):
        trajectory = Trajectory(states=np.full((9, 1), 2.0), m=2)
        assert time_average(trajectory, TestFunction.ATAN_ABS) == pytest.approx(math.atan(2.0))

    def test_single_block_returns_phi_x0(self):
        trajectory = Trajectory(states=np.array([[3.0], [0.0], [0.7]]), m=2)
        assert time_average(trajectory, TestFunction.COS_ABS) == pytest.approx(math.cos(3.0))

    def test_long_run_second_moment_near_stationary(self):
        # ergodic theorem on one long run: the time average of |x|^2 lands on
        # the stationary variance up to the known O(delta) scheme bias
        # (about -2.4% at m = 64) plus the run's own Monte Carlo error,
        # estimated by batch means
        problem = linear_additive(3.0, 1.0)
        m, K = 64, 2000
        grid = generate_path(77, 0, float(K), 1.0 / m, 1)
        trajectory = simulate_be(problem, BeConfig(m=m), grid, K)

        def sq_norm(x):
            return np.sum(x * x, axis=-1)

        mean_sq = time_average(trajectory, sq_norm)
        target = law(LIN).stationary_variance
        block_means = sq_norm(trajectory.anchors()[:-1]).reshape(40, 50).mean(axis=1)
        se = block_means.std(ddof=1) / math.sqrt(40)
        assert abs(mean_sq - target) < 0.03 * target + 4 * se


class TestContraction:
    def test_additive_noise_closed_form(self):
        problem = linear_additive(3.0, 1.0)
        report = contraction_estimate(problem, BeConfig(m=16), 2.0, -2.0, 40, 16, master_seed=4)
        mult = be_mean_multiplier(3.0, 1.0, 16)
        expected = [16.0 * mult ** (2 * k) for k in range(17)]
        np.testing.assert_allclose(report.mean_sq_diffs, expected, rtol=1e-10, atol=1e-12)
        assert report.half_widths[1] <= 1e-12  # deterministic difference

    def test_equal_initials_rejected(self):
        problem = linear_additive(3.0, 1.0)
        with pytest.raises(ValueError):
            contraction_estimate(problem, BeConfig(m=4), 1.0, 1.0, 10, 5, master_seed=0)

    def test_cubic_decay_beats_analytic_bound(self):
        problem = cubic_multiplicative(1.0, 1.0)
        params = cubic_multiplicative_dissipativity(1.0, 1.0)
        report = contraction_estimate(
            problem, BeConfig(m=16), 2.0, -2.0, 400, 12, master_seed=4, params=params
        )
        assert report.bound is not None
        assert report.fitted_decay_factor + 3 * report.decay_factor_se <= report.bound

    def test_deterministic_across_workers(self):
        problem = cubic_multiplicative(1.0, 1.0)
        a = contraction_estimate(problem, BeConfig(m=4), 1.0, -1.0, 30, 5, master_seed=9)
        b = contraction_estimate(
            problem, BeConfig(m=4), 1.0, -1.0, 30, 5, master_seed=9, n_workers=3, chunk_size=4
        )
        assert a.mean_sq_diffs == b.mean_sq_diffs
        assert a.fitted_decay_factor == b.fitted_decay_factor


def solo_anchors(problem, cfg, start, K, n_paths, master_seed):
    """Anchors (K+1, n_paths, d) of one start's own run on the estimators' noise."""
    incs = np.stack(
        [
            generate_increments(master_seed, i, float(K), cfg.delta, problem.dim_noise)
            for i in range(n_paths)
        ]
    )
    return run_scheme_batch("be", problem, cfg, incs, start, K, record="anchors").anchors


def hand_means(values):
    """Per-row means and standard errors of a (rows, n_paths) array, every path finite."""
    assert np.isfinite(values).all()
    pairs = [_mean_se(row) for row in values]
    return [m for m, _ in pairs], [se for _, se in pairs]


class TestStackedStartsMatchSoloRuns:
    """The estimators run every start in one batch; each report must equal a
    reduction of separate per-start runs, so a transposed start-major
    reshape shows here even though every worker count runs the same code."""

    def test_ergodic_trace(self):
        problem = cubic_multiplicative(1.0, 1.0)
        cfg, K, n, phi = BeConfig(m=4), 5, 13, TestFunction.SIN_SQ
        initials = [-1.5, 0.25, 2.0]
        report = ergodic_mean_trace(problem, cfg, initials, K, n, phi, 11, chunk_size=5)
        traces, ses = [], []
        for x0 in initials:
            means, errs = hand_means(phi(solo_anchors(problem, cfg, [x0], K, n, 11)))
            traces.append(means)
            ses.append(errs)
        ses_arr = np.array(ses)
        assert report.as_dict() == {
            "initials": [[x0] for x0 in initials],
            "traces": traces,
            "standard_errors": ses,
            "spread": (np.max(traces, axis=0) - np.min(traces, axis=0)).tolist(),
            "pooled_se": np.sqrt(2.0 * np.mean(ses_arr**2, axis=0)).tolist(),
            "n_paths": n,
            "n_failed": 0,
            "phi": phi.value,
        }

    def test_contraction(self):
        problem = cubic_multiplicative(1.0, 1.0)
        cfg, K, n = BeConfig(m=4), 6, 13
        report = contraction_estimate(problem, cfg, 1.5, -0.5, n, K, 11, chunk_size=5)
        diff = solo_anchors(problem, cfg, [1.5], K, n, 11)
        diff -= solo_anchors(problem, cfg, [-0.5], K, n, 11)
        msd, ses = hand_means(np.sum(diff * diff, axis=-1))
        ks = np.arange(K + 1, dtype=float)
        kc = ks - ks.mean()
        ly = np.log(msd)
        slope = float(np.dot(kc, ly - ly.mean()) / np.dot(kc, kc))
        resid = ly - (ly.mean() + slope * kc)
        slope_se = math.sqrt(float(np.dot(resid, resid)) / (K - 1) / float(np.dot(kc, kc)))
        assert report.as_dict() == {
            "x": [1.5],
            "y": [-0.5],
            "mean_sq_diffs": msd,
            "half_widths": [1.96 * se for se in ses],
            "fitted_decay_factor": math.exp(slope),
            "decay_factor_se": math.exp(slope) * slope_se,
            "bound": None,
            "n_paths": n,
            "n_failed": 0,
        }


class TestEmptySample:
    """When every path fails, the estimators raise instead of dividing by zero."""

    nan_drift = SdepcaProblem(
        dim_state=1,
        dim_noise=1,
        drift=lambda x, y: np.full_like(x, np.nan),
        diffusion=lambda x, y: np.ones(np.shape(x)[:-1] + (1, 1)),
        initial_state=[1.0],
    )

    def test_ergodic_trace(self):
        with pytest.raises(MonteCarloFailure, match="10 path failures out of 10") as info:
            ergodic_mean_trace(
                self.nan_drift, BeConfig(m=4), [-1.0, 1.0], 3, 10, TestFunction.COS_ABS, 1
            )
        assert info.value.failures[0]["kind"] == "nonfinite"

    def test_contraction(self):
        with pytest.raises(MonteCarloFailure, match="10 path failures out of 10") as info:
            contraction_estimate(self.nan_drift, BeConfig(m=4), 1.0, -1.0, 10, 3, master_seed=1)
        assert info.value.failures[0]["kind"] == "nonfinite"


class TestChainFailureBudget:
    """The chain estimators abort once a few paths fail, like the weak-error
    estimator, with the same failure records for any workers and chunks."""

    # few paths get above 1.5
    problem = nan_above(1.5)

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda problem, **kw: ergodic_mean_trace(
                problem, BeConfig(m=4), [-0.5, 0.5], 3, 30, TestFunction.COS_ABS, 5, **kw
            ),
            lambda problem, **kw: contraction_estimate(
                problem, BeConfig(m=4), 0.5, -0.5, 30, 3, 5, **kw
            ),
            lambda problem, **kw: moment_estimate(problem, BeConfig(m=4), 1, 30, 3, 5, **kw),
        ],
        ids=["ergodic", "contraction", "moment"],
    )
    def test_failed_paths_past_the_budget_abort(self, estimate):
        logs = []
        for workers, chunk in ((1, 512), (3, 7)):
            with pytest.raises(MonteCarloFailure) as info:
                estimate(self.problem, n_workers=workers, chunk_size=chunk)
            logs.append(info.value.failures)
        paths = [entry["path"] for entry in logs[0]]
        assert 0 < len(set(paths)) < 30
        assert paths == sorted(paths)
        assert all(entry["kind"] == "nonfinite" for entry in logs[0])
        assert logs[0] == logs[1]


class TestMomentEstimate:
    def test_frozen_dynamics_constant_moment(self):
        frozen = SdepcaProblem(
            dim_state=1,
            dim_noise=1,
            drift=lambda x, y: np.zeros_like(x),
            diffusion=lambda x, y: np.zeros(np.shape(x)[:-1] + (1, 1)),
            initial_state=[1.5],
        )
        report = moment_estimate(frozen, BeConfig(m=2), 2, 20, 6, master_seed=1)
        assert report.moments == pytest.approx([1.5**4] * 7, rel=1e-14)
        assert report.growth_flag is False

    def test_growth_flag_fires_on_expanding_map(self):
        expanding = SdepcaProblem(
            dim_state=1,
            dim_noise=1,
            drift=lambda x, y: x,  # anti-dissipative
            diffusion=lambda x, y: np.ones(np.shape(x)[:-1] + (1, 1)),
            initial_state=[1.0],
        )
        report = moment_estimate(expanding, BeConfig(m=4), 1, 500, 12, master_seed=1)
        assert report.growth_flag is True

    def test_warns_when_moment_condition_fails(self):
        problem = cubic_multiplicative(1.0, 1.0)
        params = cubic_multiplicative_dissipativity(1.0, 1.0)
        with pytest.warns(UserWarning, match="moment condition"):
            moment_estimate(problem, BeConfig(m=4), 2, 10, 3, master_seed=0, params=params)

    def test_bounded_cubic_trace(self):
        problem = cubic_multiplicative(1.0, 1.0)
        params = cubic_multiplicative_dissipativity(1.0, 1.0)
        report = moment_estimate(problem, BeConfig(m=8), 1, 200, 20, master_seed=6, params=params)
        assert report.growth_flag is False
        assert max(report.moments) == report.moments[0]  # x0 = 2 dominates


class TestRecursionBound:
    @staticmethod
    def recursion_sequence(alpha, beta, gamma, delta, m, blocks, z0, slack=1.0):
        """Explicitly unrolled recursion, equality case scaled by slack <= 1."""
        z = [z0]
        for k in range(blocks):
            anchor = z[k * m]
            for _ in range(m):
                z.append(slack * ((1 - alpha * delta) * z[-1] + beta * delta * anchor + gamma * delta))
        return np.array(z)

    def test_equality_case_satisfies_bound(self):
        z = self.recursion_sequence(2.0, 1.0, 0.5, 0.125, 8, 4, z0=3.0)
        report = check_recursion_bound(z, 2.0, 1.0, 0.5, 0.125, 8)
        assert report.ok
        assert report.first_violation is None
        assert report.hypothesis_failures == ()

    def test_slack_case_satisfies_bound(self):
        z = self.recursion_sequence(1.5, 0.4, 1.0, 0.25, 4, 5, z0=10.0, slack=0.9)
        report = check_recursion_bound(z, 1.5, 0.4, 1.0, 0.25, 4)
        assert report.ok

    def test_zero_sequence_trivially_bounded(self):
        report = check_recursion_bound(np.zeros(9), 2.0, 1.0, 0.5, 0.25, 4)
        assert report.ok

    def test_hypothesis_violation_is_reported_not_asserted(self):
        z = self.recursion_sequence(2.0, 1.0, 0.5, 0.125, 8, 2, z0=1.0)
        z[5] = z[5] * 50.0  # break the recursion at one index
        report = check_recursion_bound(z, 2.0, 1.0, 0.5, 0.125, 8)
        assert 5 in report.hypothesis_failures
        # indices after a broken hypothesis are exempt within the block
        assert report.first_violation is None or report.first_violation <= 5

    def test_invalid_constants_rejected(self):
        with pytest.raises(ValueError):
            check_recursion_bound(np.zeros(4), 1.0, 2.0, 0.5, 0.25, 2)  # beta > alpha
        with pytest.raises(ValueError):
            check_recursion_bound(np.zeros(4), 8.0, 1.0, 0.5, 0.25, 2)  # alpha*delta >= 1
        with pytest.raises(ValueError):
            check_recursion_bound(np.array([-1.0, 0.0]), 2.0, 1.0, 0.5, 0.25, 2)


class TestWeakOrderSupplementary:
    """Order-of-convergence behavior complementing the acceptance criteria.

    For state-dependent multiplicative noise the pathwise metric carries the
    scheme's strong order (~0.5), so the acceptance suite fits weak order 1
    on the mean gaps instead; with anchor-only noise (constant within each
    block) the pathwise order is 1 and the pathwise metric fits the band too.
    """

    def test_anchor_only_noise_slope_in_band(self):
        problem = cubic_multiplicative(0.0, 1.0)
        reference = ssbe_reference(problem)
        report = estimate_weak_error(
            problem,
            reference,
            [2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9],
            500,
            6,
            TestFunction.EXP_NEG_SQ,
            master_seed=2024,
        )
        assert 0.7 <= report.fitted_slope <= 1.3

    def test_linear_moment_bias_shrinks_with_step(self):
        # the stationary second moment of the chain approaches the analytic
        # value at rate O(delta): within 5% at delta 2^-6 (its closed-form
        # bias there is -2.1%; at 2^-4 it is -8.0%, which is why acceptance
        # criterion 8b compares with the chain's own closed form instead)
        problem = linear_additive(3.0, 1.0)
        report = moment_estimate(problem, BeConfig(m=64), 1, 10_000, 30, master_seed=2024)
        tail = float(np.mean(report.moments[25:]))
        target = law(LIN).stationary_variance
        assert abs(tail - target) / target < 0.05


class TestReferences:
    def test_ssbe_reference_matches_simulator(self):
        from sdepca.integrators import simulate_ssbe

        problem = cubic_multiplicative(1.0, 1.0)
        grid = generate_path(44, 0, 2.0, 2.0**-6, 1)
        reference = ssbe_reference(problem)
        finals = reference(grid.increments[None], 2.0**-6, 2)
        solo = simulate_ssbe(problem, BeConfig(m=64), grid, 2)
        assert finals[0, 0] == solo.states[-1, 0]

    def test_ssbe_reference_extrapolates_over_h_and_2h(self):
        from sdepca.integrators import simulate_ssbe

        problem = cubic_multiplicative(1.0, 1.0)
        grid = generate_path(44, 0, 2.0, 2.0**-6, 1)
        reference = ssbe_reference(problem)
        incs = grid.increments[None]
        fine = reference(incs, 2.0**-6, 2)
        coarse = reference.coarse(incs, 2.0**-6, 2)
        x_h = simulate_ssbe(problem, BeConfig(m=64), grid, 2).states[-1]
        x_2h = simulate_ssbe(problem, BeConfig(m=32), grid, 2).states[-1]
        for phi in TestFunction:
            got = reference.values(phi, fine, coarse)[0]
            assert got == 2.0 * phi(x_h) - phi(x_2h)

    def test_linear_reference_matches_path_sampler(self):
        from sdepca.linear_analytic import exact_sample_path

        grid = generate_path(44, 1, 2.0, 2.0**-8, 1)
        reference = linear_exact_reference(LIN)
        finals = reference(grid.increments[None], 2.0**-8, 2)
        solo = exact_sample_path(LIN, grid, 2)
        assert finals[0, 0] == solo.states[-1, 0]
