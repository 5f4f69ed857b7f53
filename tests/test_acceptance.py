"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line (run with `pytest -s`
to see them live).  The expensive Monte Carlo runs are computed once per
session, twice each: with one worker and with several workers on a different
chunking, writing output files both times so the determinism criterion can
compare raw bytes.

The two claims of the paper are checked where they can be resolved:

* criterion 2 (weak order 1, cubic problem): the fitted order of the mean
  gap |E phi(X(T)) - E phi(Y_T)|.  The reference is split-step backward
  Euler at h = 2^-11 extrapolated over h and 2h, which cancels its own O(h)
  weak bias.  The pathwise metric E|phi(X(T)) - phi(Y_T)| is not asserted:
  with state-dependent noise it carries the strong order 1/2.  At
  delta = 2^-9 the per-path spread is about 30 times the weak error, so the
  run needs many paths to resolve the slope (see EXAMPLE2_PATHS);
* criterion 8b (invariant measure, linear problem): E|Y_30|^2 at
  delta = 2^-4 against backward Euler's own stationary second moment in
  closed form, and the order-1 convergence of that moment to the SDE's
  stationary variance.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from sdepca.integrators import BeConfig, be_mean_multiplier, be_step, solve_implicit
from sdepca.linear_analytic import (
    LinearAdditiveParams,
    exact_mean,
    exact_sample_integer,
    exact_variance,
    law,
)
from sdepca.montecarlo import (
    EXAMPLE1_ERGODIC_PHIS,
    EXAMPLE1_WEAK_PHIS,
    EXAMPLE2_ERGODIC_PHIS,
    EXAMPLE2_WEAK_PHIS,
    contraction_estimate,
    ergodic_mean_trace,
    estimate_weak_errors,
    fit_order,
    linear_exact_reference,
    moment_estimate,
    ssbe_reference,
)
from sdepca.problems import (
    cubic_multiplicative,
    cubic_multiplicative_dissipativity,
    linear_additive,
)

MASTER_SEED = 2024
DELTAS = [2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9]
FINE_STEP = 2.0**-11
SLOPE_BAND = (0.7, 1.3)

LIN_PARAMS = LinearAdditiveParams(theta1=3.0, theta2=1.0, x0=1.0)


def emit(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def write_outputs(report, stem):
    json_path = stem.with_suffix(".json")
    csv_path = stem.with_suffix(".csv")
    report.to_json(json_path)
    report.to_csv(csv_path)
    return [json_path, csv_path]


@pytest.fixture(scope="session")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def weak_order_example1(outdir):
    problem = linear_additive(3.0, 1.0, x0=1.0)
    reference = linear_exact_reference(LIN_PARAMS)
    runs = {}
    elapsed = {}
    for label, workers, chunk in (("a", 1, 512), ("b", 2, 500)):
        t0 = time.time()
        reports = estimate_weak_errors(
            problem, reference, DELTAS, 1000, 5, EXAMPLE1_WEAK_PHIS, MASTER_SEED,
            fine_step=FINE_STEP, n_workers=workers, chunk_size=chunk,
        )
        elapsed[label] = time.time() - t0
        files = []
        for phi in EXAMPLE1_WEAK_PHIS:
            files += write_outputs(reports[phi], outdir / f"weak1_{label}_{phi.value}")
        runs[label] = (reports, files)
    return runs, elapsed


#: Paths for criterion 2.  Resampling 80 000 paths (seeds 2024-2028) puts
#: all four mean-gap slopes in band in 71% of runs at 4000 paths, 89% at
#: 8000, 97% at 12 000 and 98% at 16 000.  16 000 paths take about 105 s on
#: one core of a 2-core box, and run "b" about 60 s on two worker processes,
#: inside the 600 s budget.  Chunks of 2000+ paths halve the per-path solver
#: overhead against chunks of 512.
EXAMPLE2_PATHS = 16_000


@pytest.fixture(scope="session")
def weak_order_example2(outdir):
    problem = cubic_multiplicative(1.0, 1.0, x0=2.0)
    reference = ssbe_reference(problem)
    runs = {}
    elapsed = {}
    for label, workers, chunk in (("a", 1, 2048), ("b", 2, 2000)):
        t0 = time.time()
        reports = estimate_weak_errors(
            problem, reference, DELTAS, EXAMPLE2_PATHS, 6, EXAMPLE2_WEAK_PHIS, MASTER_SEED,
            fine_step=FINE_STEP, n_workers=workers, chunk_size=chunk,
        )
        elapsed[label] = time.time() - t0
        files = []
        for phi in EXAMPLE2_WEAK_PHIS:
            files += write_outputs(reports[phi], outdir / f"weak2_{label}_{phi.value}")
        runs[label] = (reports, files)
    return runs, elapsed


@pytest.fixture(scope="session")
def ergodicity_runs(outdir):
    cfg = BeConfig(m=16)
    cases = [
        ("ex1", linear_additive(3.0, 1.0), EXAMPLE1_ERGODIC_PHIS),
        ("ex2", cubic_multiplicative(1.0, 1.0), EXAMPLE2_ERGODIC_PHIS),
    ]
    runs = {}
    for label, workers, chunk in (("a", 1, 512), ("b", 2, 1000)):
        reports = {}
        files = []
        for name, problem, phis in cases:
            for phi in phis:
                report = ergodic_mean_trace(
                    problem, cfg, [-2.0, -1.0, 0.0, 1.0, 2.0], 30, 2000, phi,
                    MASTER_SEED, n_workers=workers, chunk_size=chunk,
                )
                reports[(name, phi)] = report
                files += write_outputs(report, outdir / f"ergodic_{label}_{name}_{phi.value}")
        runs[label] = (reports, files)
    return runs


@pytest.fixture(scope="session")
def contraction_runs(outdir):
    cfg = BeConfig(m=16)
    lin = linear_additive(3.0, 1.0)
    cubic = cubic_multiplicative(1.0, 1.0)
    params2 = cubic_multiplicative_dissipativity(1.0, 1.0)
    runs = {}
    for label, workers, chunk in (("a", 1, 512), ("b", 2, 1000)):
        rep1 = contraction_estimate(
            lin, cfg, 2.0, -2.0, 2000, 20, MASTER_SEED, n_workers=workers, chunk_size=chunk
        )
        rep2 = contraction_estimate(
            cubic, cfg, 2.0, -2.0, 2000, 20, MASTER_SEED, params=params2,
            n_workers=workers, chunk_size=chunk,
        )
        files = write_outputs(rep1, outdir / f"contraction_{label}_ex1")
        files += write_outputs(rep2, outdir / f"contraction_{label}_ex2")
        runs[label] = ((rep1, rep2), files)
    return runs


@pytest.fixture(scope="session")
def moment_runs(outdir):
    cfg = BeConfig(m=16)
    lin = linear_additive(3.0, 1.0)
    cubic = cubic_multiplicative(1.0, 1.0)
    params2 = cubic_multiplicative_dissipativity(1.0, 1.0)
    runs = {}
    for label, workers, chunk in (("a", 1, 512), ("b", 2, 5000)):
        rep2 = moment_estimate(
            cubic, cfg, 1, 1000, 50, MASTER_SEED, params=params2,
            n_workers=workers, chunk_size=chunk,
        )
        rep1 = moment_estimate(
            lin, cfg, 1, 10_000, 30, MASTER_SEED, n_workers=workers, chunk_size=chunk
        )
        files = write_outputs(rep2, outdir / f"moment_{label}_ex2")
        files += write_outputs(rep1, outdir / f"moment_{label}_ex1")
        runs[label] = ((rep1, rep2), files)
    return runs


class TestCriterion1:
    def test_weak_order_example1(self, weak_order_example1):
        runs, elapsed = weak_order_example1
        reports, _ = runs["a"]
        slopes = {phi.value: reports[phi].fitted_slope for phi in EXAMPLE1_WEAK_PHIS}
        in_band = all(SLOPE_BAND[0] <= s <= SLOPE_BAND[1] for s in slopes.values())
        within_time = elapsed["a"] < 300.0
        detail = (
            "slopes " + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items())
            + f"; elapsed {elapsed['a']:.0f}s"
        )
        assert emit("1 (weak order, Example 1)", in_band and within_time, detail), detail
        # ordering of errors, not just the fit: coarser steps err more
        for phi in EXAMPLE1_WEAK_PHIS:
            assert reports[phi].errors[0] > reports[phi].errors[-1]


class TestCriterion2:
    def test_weak_order_example2(self, weak_order_example2):
        runs, elapsed = weak_order_example2
        reports, _ = runs["a"]
        gap_slopes = {phi.value: reports[phi].mean_gap_slope for phi in EXAMPLE2_WEAK_PHIS}
        out_of_band = [
            k for k, v in gap_slopes.items()
            if v is None or not SLOPE_BAND[0] <= v <= SLOPE_BAND[1]
        ]
        within_time = elapsed["a"] < 600.0
        failed = []
        if out_of_band:
            failed.append(f"mean-gap slope outside {SLOPE_BAND} for {out_of_band}")
        if not within_time:
            failed.append("elapsed exceeds the 600 s budget")
        detail = (
            "mean-gap slopes "
            + ", ".join(f"{k}={'none' if v is None else f'{v:.3f}'}" for k, v in gap_slopes.items())
            + "; mean gaps +- 95% half-widths "
            + "; ".join(
                f"{phi.value}: "
                + ", ".join(
                    f"{g:.2e}+-{h:.1e}"
                    for g, h in zip(reports[phi].mean_gaps, reports[phi].mean_gap_half_widths)
                )
                for phi in EXAMPLE2_WEAK_PHIS
            )
            + f"; elapsed {elapsed['a']:.0f}s"
        )
        message = ("FAILED: " + "; ".join(failed) + " | " if failed else "") + detail
        assert emit("2 (weak order, Example 2)", not failed, detail), message


class TestCriterion3:
    def test_exact_law_against_high_precision(self):
        with mpmath.workdps(50):
            t1 = mpmath.mpf(3)
            t2 = mpmath.mpf(1)
            mu = t2 / t1 + (1 - t2 / t1) * mpmath.e ** (-t1)
            sigma = (1 - mpmath.e ** (-2 * t1)) / (2 * t1)
            stationary = sigma / (1 - mu**2)
        lw = law(LIN_PARAMS)
        devs = (
            abs(lw.mu_one / float(mu) - 1.0),
            abs(lw.sigma_one / float(sigma) - 1.0),
            abs(lw.stationary_variance / float(stationary) - 1.0),
        )
        ok = all(d <= 1e-12 for d in devs)
        detail = f"relative deviations vs 50-digit oracle: {['%.1e' % d for d in devs]}"
        assert emit("3a (exact-law oracle)", ok, detail), detail

    def test_integer_sampler_moments(self):
        n, k = 100_000, 5
        rng = np.random.default_rng(MASTER_SEED)
        finals = np.empty(n)
        for i in range(n):
            finals[i] = exact_sample_integer(LIN_PARAMS, rng, k)[-1]
        mean_se = finals.std(ddof=1) / math.sqrt(n)
        mean_dev = abs(finals.mean() - exact_mean(LIN_PARAMS, float(k)))
        var = finals.var(ddof=1)
        var_se = var * math.sqrt(2.0 / (n - 1))
        var_dev = abs(var - exact_variance(LIN_PARAMS, float(k)))
        ok = mean_dev <= 4 * mean_se and var_dev <= 4 * var_se
        detail = (
            f"mean dev {mean_dev:.2e} vs 4SE {4*mean_se:.2e}; "
            f"variance dev {var_dev:.2e} vs 4SE {4*var_se:.2e} (N={n})"
        )
        assert emit("3b (sampler moments)", ok, detail), detail


class TestCriterion4:
    def test_variance_limits_split(self):
        integer_diffs = [
            abs(exact_variance(LIN_PARAMS, float(k + 1)) - exact_variance(LIN_PARAMS, float(k)))
            for k in range(20, 30)
        ]
        integer_converged = all(d < 1e-6 for d in integer_diffs)
        half_diffs = [
            abs(exact_variance(LIN_PARAMS, k + 1.5) - exact_variance(LIN_PARAMS, k + 0.5))
            for k in range(20, 30)
        ]
        half_converged = all(d < 1e-6 for d in half_diffs)
        lim_int = exact_variance(LIN_PARAMS, 60.0)
        lim_half = exact_variance(LIN_PARAMS, 60.5)
        split = abs(lim_half - lim_int)
        ok = integer_converged and half_converged and split > 1e-3
        detail = (
            f"integer limit {lim_int:.6f}, half-integer limit {lim_half:.6f}, "
            f"split {split:.4f} (> 1e-3); diffs at k=20: {integer_diffs[0]:.1e}"
        )
        assert emit("4 (variance limits split)", ok, detail), detail


def _bisect(residual, lo, hi, tol=1e-13):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = residual(mid)
        if abs(value) <= tol or hi - lo < 1e-16:
            return mid
        if value < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCriterion5:
    def test_linear_solver_oracle(self):
        rng = np.random.default_rng(MASTER_SEED)
        worst = 0.0
        for _ in range(10_000):
            theta1 = float(rng.uniform(0.1, 10.0))
            theta2 = float(rng.uniform(-5.0, 5.0))
            m = int(rng.integers(1, 128))
            problem = linear_additive(theta1, theta2)
            cfg = BeConfig(m=m)
            x_prev = float(rng.uniform(-10.0, 10.0))
            y = float(rng.uniform(-10.0, 10.0))
            dB = float(rng.normal(0.0, 0.5))
            got = be_step(problem, cfg, np.array([x_prev]), np.array([y]), np.array([dB]))[0]
            want = (x_prev + dB + cfg.delta * theta2 * y) / (1.0 + cfg.delta * theta1)
            worst = max(worst, abs(got - want))
        ok = worst <= 1e-12
        detail = f"worst |BE step - closed form| = {worst:.2e} over 10^4 tuples (tol 1e-12)"
        assert emit("5a (linear solver oracle)", ok, detail), detail

    def test_cubic_solver_oracle(self):
        problem = cubic_multiplicative(1.0, 1.0)
        rng = np.random.default_rng(MASTER_SEED + 1)
        worst = 0.0
        for _ in range(1000):
            delta = float(rng.choice([0.5, 0.25, 0.125, 0.0625]))
            rhs = float(rng.uniform(-8.0, 8.0))
            y = float(rng.uniform(-3.0, 3.0))

            def residual(v):
                return v - delta * (-(v**3) - 10.0 * v + 2.0 * y + 1.0) - rhs

            width = 1.0 + abs(rhs)
            while residual(rhs - width) > 0.0 or residual(rhs + width) < 0.0:
                width *= 2.0
            root = _bisect(residual, rhs - width, rhs + width)
            got = solve_implicit(
                problem.drift, problem.drift_jacobian_x, np.array([y]), delta, np.array([rhs])
            )[0]
            worst = max(worst, abs(got - root))
        ok = worst <= 1e-10
        detail = f"worst |implicit solve - bisection oracle| = {worst:.2e} over 10^3 rhs (tol 1e-10)"
        assert emit("5b (cubic solver oracle)", ok, detail), detail


class TestCriterion6:
    def test_mixing_spread(self, ergodicity_runs):
        reports, _ = ergodicity_runs["a"]
        lines = []
        ok = True
        for (name, phi), report in reports.items():
            spread = report.spread[-1]
            budget = 3.0 * report.pooled_se[-1]
            ok = ok and spread < budget
            lines.append(f"{name}/{phi.value}: spread={spread:.2e} < 3SE={budget:.2e}")
        detail = "; ".join(lines)
        assert emit("6 (ergodic mixing spread)", ok, detail), detail


class TestCriterion7:
    def test_linear_contraction_exact_law(self, contraction_runs):
        (rep1, _), _ = contraction_runs["a"]
        mult = be_mean_multiplier(3.0, 1.0, 16)
        expected = np.array([16.0 * mult ** (2 * k) for k in range(21)])
        got = np.array(rep1.mean_sq_diffs)
        ok = np.allclose(got, expected, rtol=1e-10, atol=1e-12)
        worst_rel = float(np.max(np.abs(got - expected) / expected))
        detail = f"max relative deviation {worst_rel:.2e} (rtol 1e-10, atol 1e-12 on values down to {expected[-1]:.1e})"
        assert emit("7a (linear contraction law)", ok, detail), detail

    def test_cubic_contraction_bound(self, contraction_runs):
        (_, rep2), _ = contraction_runs["a"]
        bound = rep2.bound
        factor = rep2.fitted_decay_factor
        factor_ok = factor <= bound * (1.0 + 3.0 * rep2.decay_factor_se / factor)
        # per-block mean-square contraction bound |x-y|^2 * rbar^(k-1), with
        # 3 standard errors of Monte Carlo slack
        per_k_ok = True
        dist_sq = 16.0
        for k in range(1, 21):
            bound_k = dist_sq * bound ** (k - 1)
            slack = 3.0 * rep2.half_widths[k] / 1.96
            per_k_ok = per_k_ok and rep2.mean_sq_diffs[k] <= bound_k + slack
        ok = factor_ok and per_k_ok
        detail = (
            f"fitted decay {factor:.3e} (se {rep2.decay_factor_se:.1e}) <= bound {bound:.3e}; "
            f"per-k contraction bound holds for k <= 20: {per_k_ok}"
        )
        assert emit("7b (cubic contraction bound)", ok, detail), detail


class TestCriterion8:
    def test_cubic_moment_bounded(self, moment_runs):
        (_, rep2), _ = moment_runs["a"]
        # fixed cap consistent with the C*(1 + |x0|^2) moment bound, x0 = 2
        cap = 10.0
        ok = not rep2.growth_flag and rep2.n_failed == 0 and max(rep2.moments) < cap
        detail = (
            f"growth_flag={rep2.growth_flag}, trace[50]={rep2.moments[-1]:.4f}, "
            f"max={max(rep2.moments):.4f} < cap {cap}, failed paths={rep2.n_failed}"
        )
        assert emit("8a (cubic moment bounded)", ok, detail), detail

    def test_linear_long_run_second_moment(self, moment_runs):
        # BE's integer-time chain on the linear problem is a Gaussian AR(1):
        # Y_{k+1} = M_m Y_k + sum_l rho^(m-l) dB_l with rho = 1/(1 + theta1 delta),
        # so its stationary second moment is
        # delta rho^2 (1 - rho^(2m)) / (1 - rho^2) / (1 - M_m^2).
        def be_stationary_moment(m):
            with mpmath.workdps(50):
                t1 = mpmath.mpf(LIN_PARAMS.theta1)
                t2 = mpmath.mpf(LIN_PARAMS.theta2)
                delta = mpmath.mpf(1) / m
                rho = 1 / (1 + t1 * delta)
                mult = rho**m + (t2 / t1) * (1 - rho**m)
                noise = delta * rho**2 * (1 - rho ** (2 * m)) / (1 - rho**2)
                return float(noise / (1 - mult**2))

        (rep1, _), _ = moment_runs["a"]
        oracle = be_stationary_moment(16)
        got = rep1.moments[-1]
        se = rep1.half_widths[-1] / 1.96
        dev = abs(got - oracle)
        # the paper's invariant-measure theorem: BE's stationary law converges
        # to the SDE's with order 1 in delta
        target = law(LIN_PARAMS).stationary_variance
        ms = [16, 32, 64, 128]
        gaps = [abs(be_stationary_moment(m) - target) / target for m in ms]
        order, _ = fit_order([1.0 / m for m in ms], gaps)
        ok = (
            dev <= 4.0 * se
            and dev / oracle < 0.05
            and SLOPE_BAND[0] <= order <= SLOPE_BAND[1]
        )
        detail = (
            f"E|Y_30|^2 = {got:.5f} vs BE stationary {oracle:.6f} at delta 2^-4 "
            f"(dev {dev / se:.2f} SE, band 4 SE and 5%); "
            f"gap to {target:.5f} at m={ms}: {['%.2f%%' % (100 * g) for g in gaps]}, "
            f"order {order:.3f}"
        )
        assert emit("8b (linear stationary moment)", ok, detail), detail


class TestCriterion9:
    def test_outputs_byte_identical_across_workers(
        self,
        weak_order_example1,
        weak_order_example2,
        ergodicity_runs,
        contraction_runs,
        moment_runs,
    ):
        pairs = []
        for fixture in (weak_order_example1[0], weak_order_example2[0], ergodicity_runs,
                        contraction_runs, moment_runs):
            files_a = fixture["a"][1]
            files_b = fixture["b"][1]
            assert len(files_a) == len(files_b)
            pairs += list(zip(files_a, files_b))
        mismatched = [
            (a.name, b.name) for a, b in pairs if a.read_bytes() != b.read_bytes()
        ]
        ok = not mismatched
        detail = f"{len(pairs)} file pairs compared across worker counts; mismatches: {mismatched}"
        assert emit("9 (worker-count determinism)", ok, detail), detail
