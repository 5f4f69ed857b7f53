import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdepca import brownian
from sdepca.brownian import generate_increments, generate_path, increment_pieces
from sdepca.integrators import (
    BeConfig,
    Lane,
    be_mean_multiplier,
    run_lanes,
    run_scheme_batch,
    simulate,
)
from sdepca.linear_analytic import (
    LinearAdditiveParams,
    exact_finals_batch,
    exact_mean,
    exact_sample_integer,
    exact_variance,
    law,
)
from sdepca.model import SdepcaProblem
from sdepca.montecarlo import (
    MonteCarloFailure,
    TestFunction,
    _lane_worker,
    _mean,
    _mean_se,
    check_recursion_bound,
    contraction_estimate,
    ergodic_mean_trace,
    ergodic_mean_traces,
    estimate_weak_errors,
    fit_order,
    linear_exact_reference,
    moment_estimate,
    Reference,
    ssbe_reference,
)
from sdepca.problems import (
    cubic_multiplicative,
    cubic_multiplicative_dissipativity,
    linear_additive,
)

LIN = LinearAdditiveParams(3.0, 1.0, 1.0)


def lane_finals(problem, lane, increments, fine_step, T):
    """Endpoints (n_paths, d) of one lane run alone on a batch of fine
    increments (n_paths, >= T/fine_step, r)."""
    m = round(1.0 / fine_step)
    pieces = [increments.swapaxes(0, 1)]
    return run_lanes(problem, [lane], pieces, increments.shape[0], m, T)[0].anchors[-1]


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

    def test_huge_and_tiny_states(self):
        # |x| squares no entry: the square of 5e298 overflowed, which read
        # cos_abs as NaN, and that of 1e-200 underflowed, which read atan_abs
        # as 0
        assert TestFunction.COS_ABS(np.array([5e298])) == math.cos(5e298)
        assert math.cos(5e298) == pytest.approx(-0.41082, abs=1e-5)
        assert TestFunction.ATAN_ABS(np.array([-1e-200])) == 1e-200
        wide = np.array([[3e200, 4e200], [3e-200, -4e-200]])
        assert TestFunction.COS_ABS(wide[0]) == math.cos(math.hypot(3e200, 4e200))
        assert math.hypot(3e200, 4e200) == pytest.approx(5e200, rel=1e-15)
        assert TestFunction.ATAN_ABS(wide)[1] == pytest.approx(5e-200, rel=1e-15)

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_failed_state_is_nan_for_every_function(self, d):
        batch = np.ones((3, d))
        batch[1] = np.nan
        for phi in TestFunction:
            values = phi(batch)
            assert np.isnan(values[1])
            assert np.isfinite(values[[0, 2]]).all()

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

    @pytest.mark.parametrize(
        "deltas, errors",
        [
            ([0.1, 0.2], [math.nan, 1.0]),
            ([0.1, 0.2], [math.inf, 1.0]),
            ([0.1, math.inf], [0.5, 1.0]),
            ([math.nan, 0.2], [0.5, 1.0]),
        ],
    )
    def test_non_finite_pairs_are_rejected(self, deltas, errors):
        # these returned (nan, nan), the inf error with a RuntimeWarning
        with pytest.raises(ValueError, match="finite and strictly positive"):
            fit_order(deltas, errors)

    @pytest.mark.parametrize("deltas", [[0.5, 0.5], [0.25, 0.25, 0.25]])
    def test_one_distinct_delta_is_rejected(self, deltas):
        # equal deltas have no spread in log(delta); this raised
        # ZeroDivisionError
        with pytest.raises(ValueError, match="two distinct deltas"):
            fit_order(deltas, [float(k + 1) for k in range(len(deltas))])


class TestWeakError:
    def test_deterministic_across_workers_and_chunks(self):
        problem = linear_additive(3.0, 1.0)
        reference = linear_exact_reference(LIN)
        kwargs = dict(
            deltas=[2.0**-4, 2.0**-5],
            n_paths=60,
            T=2,
            phis=[TestFunction.COS_ABS],
            master_seed=5,
            fine_step=2.0**-8,
        )
        phi = TestFunction.COS_ABS
        base = estimate_weak_errors(problem, reference, **kwargs)[phi]
        # nine workers take spans of 7 paths
        threaded = estimate_weak_errors(problem, reference, n_workers=9, **kwargs)[phi]
        assert base.errors == threaded.errors
        assert base.half_widths == threaded.half_widths
        assert base.fitted_slope == threaded.fitted_slope
        assert base.mean_gaps == threaded.mean_gaps
        assert base.mean_gap_half_widths == threaded.mean_gap_half_widths

    def test_mean_gaps_use_extrapolated_reference(self):
        problem = cubic_multiplicative(1.0, 1.0)
        phi = TestFunction.ATAN_SQ
        report = estimate_weak_errors(
            problem, ssbe_reference(problem), [2.0**-3, 2.0**-4], 8, 1, [phi],
            master_seed=6, fine_step=2.0**-6,
        )[phi]
        grids = [generate_path(6, i, 1.0, 2.0**-6, 1) for i in range(8)]
        target = np.mean([
            2.0 * phi(simulate("ssbe", problem, BeConfig(m=64), g, 1)[-1])
            - phi(simulate("ssbe", problem, BeConfig(m=32), g, 1)[-1])
            for g in grids
        ])
        for m, gap in zip((8, 16), report.mean_gaps):
            scheme = np.mean(
                [phi(simulate("be", problem, BeConfig(m=m), g, 1)[-1]) for g in grids]
            )
            assert gap == pytest.approx(abs(target - scheme), rel=1e-12, abs=1e-15)

    def test_order_one_on_linear_problem(self):
        problem = linear_additive(3.0, 1.0)
        reference = linear_exact_reference(LIN)
        report = estimate_weak_errors(
            problem,
            reference,
            [2.0**-4, 2.0**-5, 2.0**-6],
            300,
            2,
            [TestFunction.ATAN_ABS],
            master_seed=12,
            fine_step=2.0**-9,
        )[TestFunction.ATAN_ABS]
        assert 0.7 <= report.fitted_slope <= 1.3
        assert report.errors[0] > report.errors[-1]
        assert report.n_failed == 0

    @pytest.mark.parametrize(
        "deltas", [[2.0**-3, 2.0**-3], [2.0**-2, 2.0**-3, 2.0**-3]], ids=["only", "among-others"]
    )
    def test_repeated_step_size_is_rejected_before_any_run(self, monkeypatch, deltas):
        # two equal step sizes crashed in the slope fit after every path ran,
        # or ran a duplicate lane and reported it twice
        import sdepca.montecarlo as mc

        def no_run(*args, **kwargs):
            raise AssertionError("the lanes ran")

        monkeypatch.setattr(mc, "_run_lanes_in_spans", no_run)
        problem = linear_additive(3.0, 1.0)
        with pytest.raises(ValueError, match="step size 0.125 is repeated"):
            estimate_weak_errors(
                problem, linear_exact_reference(LIN), deltas, 20, 1, [TestFunction.COS_ABS], 1,
                fine_step=2.0**-6,
            )

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda phis: estimate_weak_errors(
                linear_additive(3.0, 1.0), linear_exact_reference(LIN), [2.0**-3], 20, 1, phis, 1,
                fine_step=2.0**-6,
            ),
            lambda phis: ergodic_mean_traces(
                linear_additive(3.0, 1.0), BeConfig(m=4), [0.0, 1.0], 2, 20, phis, 1
            ),
        ],
        ids=["weak", "ergodic"],
    )
    def test_repeated_test_function_is_rejected_before_any_run(self, monkeypatch, estimate):
        # a repeated test function was run and reported twice
        import sdepca.montecarlo as mc

        def no_run(*args, **kwargs):
            raise AssertionError("the lanes ran")

        monkeypatch.setattr(mc, "_run_lanes_in_spans", no_run)
        phis = [TestFunction.COS_ABS, TestFunction.SIN_SQ, TestFunction.COS_ABS]
        with pytest.raises(ValueError, match="^test function cos_abs is repeated$"):
            estimate(phis)

    def test_single_delta_flags_undefined_slope(self):
        problem = linear_additive(3.0, 1.0)
        reference = linear_exact_reference(LIN)
        with pytest.warns(UserWarning, match="slope undefined"):
            report = estimate_weak_errors(
                problem,
                reference,
                [2.0**-4],
                20,
                1,
                [TestFunction.COS_ABS],
                master_seed=5,
                fine_step=2.0**-6,
            )[TestFunction.COS_ABS]
        assert report.fitted_slope is None

    def test_failure_budget_aborts(self):
        # the reference's split-step lanes fail next to BE's, on the 23 of
        # 30 paths that pass 0.3
        problem = nan_above(0.3)
        with pytest.raises(MonteCarloFailure, match="23 path failures out of 30"):
            estimate_weak_errors(
                problem,
                ssbe_reference(problem),
                [2.0**-3],
                30,
                1,
                [TestFunction.COS_ABS],
                master_seed=5,
                fine_step=2.0**-5,
            )

    def test_a_test_function_that_overflows_everywhere_is_a_failure(self):
        # from x0 = 1e300 every endpoint is near 5e298, where |x|^2
        # overflows and sin(|x|^2) is NaN; this was a report of NaN errors
        # with n_failed 0.  The paths' states are finite, so no path has a
        # record of the run
        params = LinearAdditiveParams(3.0, 1.0, 1e300)
        problem = linear_additive(3.0, 1.0, x0=1e300)
        with pytest.raises(MonteCarloFailure, match="^20 path failures out of 20 ") as info:
            estimate_weak_errors(
                problem,
                linear_exact_reference(params),
                [2.0**-3, 2.0**-4],
                20,
                1,
                [TestFunction.SIN_SQ],
                master_seed=5,
                fine_step=2.0**-5,
            )
        assert info.value.failures == [{"path": p, "phi": "sin_sq"} for p in range(20)]

    def test_a_test_function_that_overflows_fails_its_paths_for_it_alone(self):
        # additive noise of 5.6e153 from 0: the endpoints are the noise
        # scale times about N(0, 1), the largest 2.54 (path 145) and the
        # next 2.23 over the lanes, so |x|^2 overflows past 1.34e154 on
        # that one path.  There sin(|x|^2) is NaN and arctan(|x|) is pi/2:
        # the path fails for sin_sq alone, within the budget of 1 in 1000
        problem = SdepcaProblem(
            dim_state=1,
            dim_noise=1,
            drift=lambda x, y: -x,
            diffusion=lambda x, y: np.full(x.shape + (1,), 5.6e153),
            drift_jacobian_x=lambda x, y: np.full(x.shape + (1,), -1.0),
            initial_state=[0.0],
        )
        # arctan(|x|) is pi/2 on every path, so its errors are 0
        with pytest.warns(UserWarning, match="slope undefined"):
            reports = estimate_weak_errors(
                problem,
                ssbe_reference(problem),
                [2.0**-3, 2.0**-4],
                1000,
                1,
                [TestFunction.SIN_SQ, TestFunction.ATAN_ABS],
                master_seed=5,
                fine_step=2.0**-5,
            )
        assert reports[TestFunction.SIN_SQ].n_failed == 1
        assert reports[TestFunction.ATAN_ABS].n_failed == 0
        for report in reports.values():
            values = report.errors + report.half_widths + report.mean_gaps + report.mean_gap_half_widths
            assert np.isfinite(values).all()

    def test_failure_log_identical_across_workers(self):
        problem = nan_above(0.3)
        logs = []
        # one span of 30 paths, and five of 6
        for workers in (1, 5):
            with pytest.raises(MonteCarloFailure) as info:
                estimate_weak_errors(
                    problem,
                    linear_exact_reference(LIN),
                    [2.0**-3],
                    30,
                    1,
                    [TestFunction.COS_ABS],
                    master_seed=5,
                    fine_step=2.0**-5,
                    n_workers=workers,
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
            estimate_weak_errors(
                problem,
                linear_exact_reference(LIN),
                [2.0**-3, 2.0**-4],
                30,
                1,
                [TestFunction.COS_ABS],
                master_seed=5,
                fine_step=2.0**-5,
            )
        log = info.value.failures
        n_failed = len({entry["path"] for entry in log})
        assert len(log) > n_failed
        assert str(info.value).startswith(f"{n_failed} path failures out of 30 ")

    def test_failure_log_keeps_the_reference_records(self):
        # the split-step reference's lanes fail on paths of their own; their
        # records carry the lane's own step and are marked apart from BE's
        problem = nan_above(0.3)
        with pytest.raises(MonteCarloFailure) as info:
            estimate_weak_errors(
                problem,
                ssbe_reference(problem),
                [2.0**-3],
                30,
                1,
                [TestFunction.COS_ABS],
                master_seed=5,
                fine_step=2.0**-5,
            )
        log = info.value.failures
        assert all({"path", "delta", "k", "l", "kind"} <= set(entry) for entry in log)
        ref = [entry for entry in log if entry.get("reference")]
        be = [entry for entry in log if "reference" not in entry]
        assert {entry["delta"] for entry in ref} == {2.0**-5, 2.0**-4}
        assert all(entry["l"] < round(1 / entry["delta"]) for entry in ref)
        assert {entry["delta"] for entry in be} == {2.0**-3}
        # BE failed on other paths, and on some paths only the reference failed
        ref_only = {e["path"] for e in ref} - {e["path"] for e in be}
        assert ref_only and ref_only < {entry["path"] for entry in log}
        assert [entry["path"] for entry in log] == sorted(entry["path"] for entry in log)
        n_failed = len({entry["path"] for entry in log})
        assert str(info.value).startswith(f"{n_failed} path failures out of 30 ")

    def test_validations(self):
        problem = linear_additive(3.0, 1.0)
        reference = linear_exact_reference(LIN)
        with pytest.raises(ValueError):
            estimate_weak_errors(problem, reference, [0.3], 10, 1, [TestFunction.COS_ABS], 0)
        with pytest.raises(ValueError):
            estimate_weak_errors(
                problem, reference, [2.0**-12], 10, 1, [TestFunction.COS_ABS], 0
            )  # finer than the fine grid
        with pytest.raises(ValueError):
            estimate_weak_errors(problem, reference, [2.0**-4], 10, 1.5, [TestFunction.COS_ABS], 0)
        with pytest.raises(ValueError, match="another problem"):
            estimate_weak_errors(
                problem, ssbe_reference(linear_additive(3.0, 1.0)), [2.0**-4], 10, 1,
                [TestFunction.COS_ABS], 0,
            )
        with pytest.raises(TypeError):  # a whole-lattice callable is no reference
            estimate_weak_errors(
                problem, lambda increments, fine_step, T: None, [2.0**-4], 10, 1,
                [TestFunction.COS_ABS], 0,
            )
        with pytest.raises(ValueError, match="^need at least one step size"):
            estimate_weak_errors(problem, reference, [], 10, 1, [TestFunction.COS_ABS], 0)

    def test_report_serialization(self, tmp_path):
        problem = linear_additive(3.0, 1.0)
        reference = linear_exact_reference(LIN)
        report = estimate_weak_errors(
            problem,
            reference,
            [2.0**-4, 2.0**-5],
            25,
            1,
            [TestFunction.COS_ABS],
            master_seed=3,
            fine_step=2.0**-7,
        )[TestFunction.COS_ABS]
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


class TestStreamedNoise:
    @pytest.mark.parametrize("cubic", [False, True], ids=["exact-linear", "ssbe-cubic"])
    def test_weak_estimate_holds_less_than_one_fine_lattice(self, cubic):
        # the estimate draws its noise one piece at a time, so one span
        # never holds its whole fine lattice at once
        import tracemalloc

        n_paths, T = 128, 6
        if cubic:
            problem = cubic_multiplicative(1.0, 1.0)
            reference = ssbe_reference(problem)
        else:
            problem = linear_additive(3.0, 1.0)
            reference = linear_exact_reference(LIN)
        tracemalloc.start()
        try:
            estimate_weak_errors(
                problem, reference, [2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9], n_paths, T,
                [TestFunction.COS_ABS], master_seed=3,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_paths * T * 2048 * 8

    def test_one_span_holds_less_than_one_unit_block(self):
        # a span holds one piece of 256 fine steps and the lanes' coarsened
        # copies of it, not a unit block: 2048 steps of 2048 paths, 32 MiB
        import tracemalloc

        problem = linear_additive(3.0, 1.0)
        lanes = [*linear_exact_reference(LIN).lanes, *(Lane("be", f) for f in (32, 16, 8, 4))]
        tracemalloc.start()
        try:
            _lane_worker(problem, lanes, 1, 2.0**-11, 7, 0, 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_default_spans_match_small_chunks(self, n_workers):
        # a span is one per worker, so its width depends on the worker
        # count; the reports must not
        linear = linear_additive(3.0, 1.0)
        cubic = cubic_multiplicative(1.0, 1.0)
        phis = [TestFunction.COS_ABS, TestFunction.SIN_SQ]
        weak = (linear, linear_exact_reference(LIN), [2.0**-4, 2.0**-6], 60, 2, phis, 5)
        chains = (cubic, BeConfig(m=4), [-1.0, 2.0], 6, 40, phis, 3)
        for estimate, args, kwargs in (
            (estimate_weak_errors, weak, dict(fine_step=2.0**-10)),
            (ergodic_mean_traces, chains, {}),
        ):
            default = estimate(*args, n_workers=n_workers, **kwargs)
            # spans of 7 paths of the 60, and of 5 of the 40
            small = estimate(*args, n_workers=9, **kwargs)
            for phi in phis:
                assert json.dumps(default[phi].as_dict()) == json.dumps(small[phi].as_dict())

    def test_forked_workers_rekey_the_generators_they_inherit(self, monkeypatch):
        # a forked worker starts with a copy of the parent's free list of
        # generators, left mid-stream by a span of another seed, and keys
        # its paths on them; an in-process run on new generators must agree
        monkeypatch.setattr(brownian, "_FREE_RNGS", [])
        list(increment_pieces(99, 0, 40, 300, 2.0**-11))
        assert len(brownian._FREE_RNGS) == 40
        args = (cubic_multiplicative(1.0, 1.0), BeConfig(m=4), 2.0, -2.0, 40, 6, 3)
        forked = contraction_estimate(*args, n_workers=2)
        monkeypatch.setattr(brownian, "_FREE_RNGS", [])
        fresh = contraction_estimate(*args)
        assert json.dumps(forked.as_dict()) == json.dumps(fresh.as_dict())

    @pytest.mark.parametrize(
        "n_workers, factor, dim_noise, widths",
        [
            # one span per worker, of at most 4 MiB of noise: 2048 paths of
            # one piece of 256 fine steps at r = 1
            (1, 1, 1, [2048, 2048, 904]),
            (2, 1, 1, [2048, 2048, 904]),
            (3, 1, 1, [1667, 1667, 1666]),
            (4, 1, 1, [1250] * 4),
            # a piece holds whole steps of the widest lane, here 512 fine steps
            (3, 512, 1, [1024] * 4 + [904]),
            # and one column per noise dimension
            (1, 1, 2, [1024] * 4 + [904]),
        ],
    )
    def test_span_widths_follow_from_the_worker_count(
        self, monkeypatch, n_workers, factor, dim_noise, widths
    ):
        import sdepca.montecarlo as mc

        def span_bounds(problem, lanes, K, fine_step, master_seed, lo, hi):
            return [np.zeros((hi - lo, 1))], [(lo, hi)]

        monkeypatch.setattr(mc, "_lane_worker", span_bounds)
        problem = dataclasses.replace(linear_additive(3.0, 1.0), dim_noise=dim_noise)
        lanes = [Lane("be"), Lane("be", factor)]
        _, spans = mc._run_lanes_in_spans(problem, lanes, 1, 2.0**-10, 1, 5000, n_workers)
        assert [hi - lo for lo, hi in spans] == widths
        assert [lo for lo, _ in spans] == [0, *(hi for _, hi in spans[:-1])]


class TestSpanArguments:
    """Every estimator rejects a worker count that is not a positive
    integer, and a path count below 2, naming the argument: a standard error
    needs two paths."""

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda n_paths=8, **kw: estimate_weak_errors(
                linear_additive(3.0, 1.0), linear_exact_reference(LIN), [2.0**-2, 2.0**-3],
                n_paths=n_paths, T=1, phis=[TestFunction.COS_ABS], master_seed=1, fine_step=2.0**-4,
                **kw,
            )[TestFunction.COS_ABS],
            lambda n_paths=8, **kw: ergodic_mean_traces(
                linear_additive(3.0, 1.0), BeConfig(m=4), [0.0, 1.0], 2, n_paths=n_paths,
                phis=[TestFunction.COS_ABS], master_seed=1, **kw,
            ),
            lambda n_paths=8, **kw: contraction_estimate(
                linear_additive(3.0, 1.0), BeConfig(m=4), 1.0, -1.0, n_paths=n_paths, K=2,
                master_seed=1, **kw,
            ),
            lambda n_paths=8, **kw: moment_estimate(
                linear_additive(3.0, 1.0), BeConfig(m=4), 1, n_paths=n_paths, K=2, master_seed=1,
                **kw,
            ),
        ],
        ids=["weak", "ergodic", "contraction", "moment"],
    )
    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_workers", 0), ("n_workers", 1.5), ("n_paths", 0), ("n_paths", -3), ("n_paths", 1),
        ],
    )
    def test_bad_span_arguments_are_rejected(self, estimate, name, value):
        rule = "an integer of at least 2" if name == "n_paths" else "a positive integer"
        with pytest.raises(ValueError, match=f"^{name} must be {rule}"):
            estimate(**{name: value})

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda K: ergodic_mean_traces(
                linear_additive(3.0, 1.0), BeConfig(m=4), [0.0, 1.0], K, n_paths=8,
                phis=[TestFunction.COS_ABS], master_seed=1,
            ),
            lambda K: contraction_estimate(
                linear_additive(3.0, 1.0), BeConfig(m=4), 1.0, -1.0, n_paths=8, K=K, master_seed=1
            ),
            lambda K: moment_estimate(
                linear_additive(3.0, 1.0), BeConfig(m=4), 1, n_paths=8, K=K, master_seed=1
            ),
        ],
        ids=["ergodic", "contraction", "moment"],
    )
    @pytest.mark.parametrize("K", [2.5, 2.0, math.nan])
    def test_a_block_count_that_is_not_an_integer_is_rejected(self, estimate, K):
        # 2.5 raised a TypeError from inside the runner
        with pytest.raises(ValueError, match=f"^K must be an integer, got {K!r}"):
            estimate(K)


class TestErgodicTrace:
    def test_a_start_of_the_wrong_width_is_rejected(self):
        # one noise column would drive a 2-column chain of the d = 1 problem
        with pytest.raises(ValueError, match="^a lane start has 2 entries, not dim_state 1"):
            ergodic_mean_traces(
                cubic_multiplicative(1.0, 1.0), BeConfig(m=4), [[1.0, 2.0]], 2, 8,
                [TestFunction.COS_ABS], 1,
            )

    @pytest.mark.parametrize("start", [0.5, np.array(0.5)], ids=["float", "0-d"])
    def test_a_scalar_is_one_start(self, start):
        # these raised TypeError from len() of the initials
        args = (cubic_multiplicative(1.0, 1.0), BeConfig(m=4))
        rest = (2, 8, [TestFunction.COS_ABS], 1)
        scalar = ergodic_mean_traces(*args, start, *rest)[TestFunction.COS_ABS]
        listed = ergodic_mean_traces(*args, [0.5], *rest)[TestFunction.COS_ABS]
        assert scalar.initials == [[0.5]]
        assert json.dumps(scalar.as_dict()) == json.dumps(listed.as_dict())

    def test_a_step_that_is_not_dyadic_is_rejected_naming_m(self):
        with pytest.raises(ValueError, match="^the step 1/m for m = 10 must be a power of two"):
            ergodic_mean_traces(
                linear_additive(3.0, 1.0), BeConfig(m=10), [0.0, 1.0], 2, 8,
                [TestFunction.COS_ABS], 1,
            )

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
        # five workers take spans of 6 paths
        b = ergodic_mean_trace(problem, BeConfig(m=4), n_workers=5, **kwargs)
        assert a.traces == b.traces
        assert a.spread == b.spread

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_several_phis_match_single_calls(self, n_workers):
        # one run of the chains gives each test function the report of its
        # own call, byte for byte
        problem = cubic_multiplicative(1.0, 1.0)
        phis = [TestFunction.ATAN_ABS, TestFunction.SIN_SQ, TestFunction.EXP_NEG_SQ]
        args = (problem, BeConfig(m=4), [-1.0, 2.0], 4, 40)
        kwargs = dict(master_seed=3, n_workers=n_workers)
        reports = ergodic_mean_traces(*args, phis, **kwargs)
        assert list(reports) == phis
        for phi in phis:
            single = ergodic_mean_trace(*args, phi, **kwargs)
            assert json.dumps(reports[phi].as_dict()) == json.dumps(single.as_dict())

    def test_empty_initials_are_rejected_before_any_run(self, monkeypatch):
        import sdepca.montecarlo as mc

        def no_run(*args, **kwargs):
            raise AssertionError("the chains ran")

        monkeypatch.setattr(mc, "_chain_anchors", no_run)
        problem = linear_additive(3.0, 1.0)
        for initials in ([], np.empty((0, 1))):
            with pytest.raises(ValueError, match="initials must hold at least one"):
                ergodic_mean_traces(
                    problem, BeConfig(m=4), initials, 2, 8, [TestFunction.COS_ABS], 1
                )

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


def time_average(states, m, phi):
    """(1/K) sum of phi over the anchors Y_0 .. Y_{K-1} of the states at the
    steps of 1/m."""
    return _mean(phi(states[::m][:-1]))


class TestTimeAverage:
    def test_constant_trajectory(self):
        states = np.full((9, 1), 2.0)
        assert time_average(states, 2, TestFunction.ATAN_ABS) == pytest.approx(math.atan(2.0))

    def test_single_block_returns_phi_x0(self):
        states = np.array([[3.0], [0.0], [0.7]])
        assert time_average(states, 2, TestFunction.COS_ABS) == pytest.approx(math.cos(3.0))

    def test_long_run_second_moment_near_stationary(self):
        # ergodic theorem on one long run: the time average of |x|^2 lands on
        # the stationary variance up to the known O(delta) scheme bias
        # (about -2.4% at m = 64) plus the run's own Monte Carlo error,
        # estimated by batch means
        problem = linear_additive(3.0, 1.0)
        m, K = 64, 2000
        grid = generate_path(77, 0, float(K), 1.0 / m, 1)
        states = simulate("be", problem, BeConfig(m=m), grid, K)

        def sq_norm(x):
            return np.sum(x * x, axis=-1)

        mean_sq = time_average(states, m, sq_norm)
        target = law(LIN).stationary_variance
        block_means = sq_norm(states[::m][:-1]).reshape(40, 50).mean(axis=1)
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

    @pytest.mark.parametrize("x, y", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, math.nan)])
    def test_non_finite_initials_rejected_before_any_run(self, x, y):
        def drift(x, y):
            pytest.fail("the chains ran")

        problem = SdepcaProblem(
            dim_state=1,
            dim_noise=1,
            drift=drift,
            diffusion=lambda x, y: np.ones(x.shape + (1,)),
            initial_state=[0.0],
        )
        with pytest.raises(ValueError, match="^initial values must be finite"):
            contraction_estimate(problem, BeConfig(m=4), x, y, 10, 5, master_seed=0)

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
        # eight workers take spans of 4 paths
        b = contraction_estimate(
            problem, BeConfig(m=4), 1.0, -1.0, 30, 5, master_seed=9, n_workers=8
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
    return run_scheme_batch("be", problem, cfg, incs, start, K).anchors


def hand_means(values):
    """Per-row means and standard errors of a (rows, n_paths) array, every path finite."""
    assert np.isfinite(values).all()
    pairs = [_mean_se(row) for row in values]
    return [m for m, _ in pairs], [se for _, se in pairs]


class TestStackedStartsMatchSoloRuns:
    """The estimators run every start as one lane of one run; each report
    must equal a reduction of separate per-start runs, so a misplaced start
    axis shows here even though every worker count runs the same code."""

    def test_ergodic_trace(self):
        problem = cubic_multiplicative(1.0, 1.0)
        cfg, K, n, phi = BeConfig(m=4), 5, 13, TestFunction.SIN_SQ
        initials = [-1.5, 0.25, 2.0]
        # three workers take spans of 5, 5 and 3 paths
        report = ergodic_mean_trace(problem, cfg, initials, K, n, phi, 11, n_workers=3)
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
        report = contraction_estimate(problem, cfg, 1.5, -0.5, n, K, 11, n_workers=3)
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


class TestMean:
    """Every mean sums contiguous rows of paths, so a masked or transposed
    grid gives, byte for byte, what each of its rows gives alone: the
    worker-count invariance of every report rests on this."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 31), st.integers(3, 700)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e5, 1e150]),
    )
    def test_a_masked_or_transposed_grid_sums_as_its_rows_alone(self, shape, seed, scale):
        rng = np.random.default_rng(seed)
        a, b, n = shape
        # path-major, as a grid masked on its path axis is; an offset keeps
        # the rows from summing to about 0
        grid = scale * (rng.standard_normal((n, a, b)) + 2.0).transpose(1, 2, 0)
        keep = rng.random(n) < 0.9
        keep[:2] = True
        for values in (grid, grid[..., keep], grid.transpose(1, 0, 2)[..., keep]):
            means, ses = _mean_se(values)
            alone = [_mean_se(np.array(values[idx])) for idx in np.ndindex(values.shape[:-1])]
            together = np.stack([means.ravel(), ses.ravel()], axis=1)
            assert together.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("value", [0.1, -3.7e-5, 5e-324, 1e300])
    def test_a_row_of_equal_entries_is_exact(self, value):
        means, ses = _mean_se(np.full((3, 1001), value))
        assert means.tolist() == [value] * 3
        assert ses.tolist() == [0.0] * 3

    def test_every_chain_report_starts_exact(self):
        # every path starts at the same state, so the k = 0 entry is that
        # state's value with a standard error of exactly 0
        problem, cfg = cubic_multiplicative(1.0, 1.0, x0=0.3), BeConfig(m=4)
        ergodic = ergodic_mean_trace(problem, cfg, [-1.5, 0.25], 3, 37, TestFunction.SIN_SQ, 5)
        starts = TestFunction.SIN_SQ(np.array([[-1.5], [0.25]]))
        assert [trace[0] for trace in ergodic.traces] == starts.tolist()
        assert [se[0] for se in ergodic.standard_errors] == [0.0, 0.0]
        assert ergodic.spread[0] == starts[0] - starts[1]
        contraction = contraction_estimate(problem, cfg, 1.5, -0.5, 37, 3, master_seed=5)
        assert (contraction.mean_sq_diffs[0], contraction.half_widths[0]) == (4.0, 0.0)
        moment = moment_estimate(problem, cfg, 2, 37, 3, master_seed=5)
        assert (moment.moments[0], moment.half_widths[0]) == ((0.3**2) ** 2, 0.0)


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
    estimator, with the same failure records for any worker count."""

    # few paths get above 1.5
    problem = nan_above(1.5)

    @pytest.mark.parametrize(
        "estimate, interleaved",
        [
            (
                lambda problem, **kw: ergodic_mean_trace(
                    problem, BeConfig(m=4), [-0.5, 0.5], 3, 30, TestFunction.COS_ABS, 5, **kw
                ),
                False,
            ),
            (
                lambda problem, **kw: contraction_estimate(
                    problem, BeConfig(m=4), 0.5, -0.5, 30, 3, 5, **kw
                ),
                False,
            ),
            (lambda problem, **kw: moment_estimate(problem, BeConfig(m=4), 1, 30, 3, 5, **kw), False),
            (
                lambda problem, **kw: ergodic_mean_trace(
                    problem, BeConfig(m=4), [-1.0, -0.5, 0.0, 0.5, 1.0], 3, 30,
                    TestFunction.COS_ABS, 5, **kw
                ),
                True,
            ),
        ],
        ids=["ergodic", "contraction", "moment", "ergodic-5-starts"],
    )
    def test_failed_paths_past_the_budget_abort(self, estimate, interleaved):
        logs = []
        # one span of 30 paths, and five of 6
        for workers in (1, 5):
            with pytest.raises(MonteCarloFailure) as info:
                estimate(self.problem, n_workers=workers)
            logs.append(info.value.failures)
        paths = [entry["path"] for entry in logs[0]]
        assert 0 < len(set(paths)) < 30
        assert paths == sorted(paths)
        assert all(entry["kind"] == "nonfinite" for entry in logs[0])
        assert logs[0] == logs[1]
        # the records run by (path, k, l, start): the CLI prints the first
        keys = [(e["path"], e["k"], e["l"], e["start"]) for e in logs[0]]
        assert keys == sorted(keys)
        if interleaved:
            # several starts of one path fail at different steps, a later
            # start first, so the order is not that of the starts
            assert any(a[0] == b[0] and a[1:3] < b[1:3] and a[3] > b[3] for a, b in zip(keys, keys[1:]))


    def test_a_test_function_that_overflows_is_named_in_the_log(self):
        # every state of the chains from 1e300 is finite, so no path has a
        # record of the run, but |x|^2 overflows: sin_sq is NaN on every
        # path and names itself in the log; moment logs the path alone
        problem = linear_additive(3.0, 1.0, x0=1e300)
        with pytest.raises(MonteCarloFailure, match="^10 path failures out of 10 ") as info:
            ergodic_mean_trace(problem, BeConfig(m=4), [1e300], 2, 10, TestFunction.SIN_SQ, 5)
        assert info.value.failures == [{"path": p, "phi": "sin_sq"} for p in range(10)]
        with pytest.raises(MonteCarloFailure, match="^10 path failures out of 10 ") as info:
            moment_estimate(problem, BeConfig(m=4), 1, 10, 2, 5)
        assert info.value.failures == [{"path": p} for p in range(10)]


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sequence_is_rejected(self, bad):
        # a NaN compares false and an inf makes the tolerance infinite, so
        # this passed with ok=True and no hypothesis failure
        with pytest.raises(ValueError, match="^sequence must be finite and nonnegative"):
            check_recursion_bound([1.0, bad, 0.5], 2.0, 1.0, 0.5, 0.125, 8)


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
        report = estimate_weak_errors(
            problem,
            reference,
            [2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9],
            500,
            6,
            [TestFunction.EXP_NEG_SQ],
            master_seed=2024,
        )[TestFunction.EXP_NEG_SQ]
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
        problem = cubic_multiplicative(1.0, 1.0)
        grid = generate_path(44, 0, 2.0, 2.0**-6, 1)
        reference = ssbe_reference(problem)
        finals = lane_finals(problem, reference.lanes[0], grid.increments[None], 2.0**-6, 2)
        solo = simulate("ssbe", problem, BeConfig(m=64), grid, 2)
        assert finals[0, 0] == solo[-1, 0]

    def test_ssbe_reference_extrapolates_over_h_and_2h(self):
        problem = cubic_multiplicative(1.0, 1.0)
        grid = generate_path(44, 0, 2.0, 2.0**-6, 1)
        reference = ssbe_reference(problem)
        incs = grid.increments[None]
        fine = lane_finals(problem, reference.lanes[0], incs, 2.0**-6, 2)
        coarse = lane_finals(problem, reference.lanes[1], incs, 2.0**-6, 2)
        x_h = simulate("ssbe", problem, BeConfig(m=64), grid, 2)[-1]
        x_2h = simulate("ssbe", problem, BeConfig(m=32), grid, 2)[-1]
        for phi in TestFunction:
            got = (2.0 * phi(fine) - phi(coarse))[0]
            assert got == 2.0 * phi(x_h) - phi(x_2h)

    @pytest.mark.parametrize(
        "lanes",
        [
            (Lane("ssbe"), Lane("be", 2)),
            (Lane("ssbe"), Lane("ssbe", 4)),
            (Lane("ssbe", 2), Lane("ssbe")),
            (Lane("ssbe"), Lane("ssbe", 2, x0=np.array([0.5]))),
            (Lane("ssbe"), Lane("ssbe", 2), Lane("ssbe", 4)),
            (),
        ],
        ids=["another-scheme", "four-times", "half", "another-start", "three-lanes", "no-lane"],
    )
    def test_a_reference_is_one_lane_or_an_h_2h_pair(self, lanes):
        with pytest.raises(ValueError, match="^a reference is one lane, or a lane and its copy"):
            Reference(cubic_multiplicative(1.0, 1.0), lanes)

    def test_an_h_2h_pair_from_one_start_is_a_reference(self):
        problem = cubic_multiplicative(1.0, 1.0)
        assert type(ssbe_reference(problem)) is Reference
        start = np.array([0.5])
        pair = (Lane("ssbe", x0=start), Lane("ssbe", 2, x0=start.copy()))
        assert Reference(problem, pair).lanes == pair

    def test_linear_reference_matches_path_sampler(self):
        # the reference lane fed pieces cut across the unit blocks, against
        # exact_finals_batch on the whole lattice as one piece
        incs = np.stack([generate_path(44, i, 2.0, 2.0**-8, 1).increments for i in range(3)])
        lane = linear_exact_reference(LIN).lanes[0]
        pieces = np.array_split(incs.swapaxes(0, 1), [100, 256, 300], axis=0)
        (run,) = run_lanes(None, [lane], pieces, 3, 2**8, 2)
        assert run.anchors[-1, :, 0].tolist() == exact_finals_batch(LIN, incs[:, :, 0], 2.0**-8, 2).tolist()


class TestTracerContract:
    def test_names_the_bench_tracer_wraps_stay_in_montecarlo(self):
        # bench/tracing.py swaps these attributes of sdepca.montecarlo for
        # timed wrappers by name, so a traced run fails if one is cut here
        import sdepca.brownian
        import sdepca.integrators
        import sdepca.linear_analytic
        import sdepca.montecarlo as mc

        owners = {
            "generate_increments": sdepca.brownian,
            "coarsen_array": sdepca.brownian,
            "run_scheme_batch": sdepca.integrators,
            "exact_finals_batch": sdepca.linear_analytic,
        }
        for name, owner in owners.items():
            assert getattr(mc, name) is getattr(owner, name)
