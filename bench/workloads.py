"""The benchmark's workloads: their inputs, estimator calls and checks.

Each workload runs in rounds.  A round makes the same estimator calls on
the noise of one master seed, writes every report with the package's
serializers and checks it.  An operation is one report: one test
function's weak-error table, one ergodic trace, one contraction trace or
one moment trace.
"""

from __future__ import annotations

import math
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import oracles
from sdepca import (
    BeConfig,
    LinearAdditiveParams,
    contraction_estimate,
    ergodic_mean_trace,
    estimate_weak_errors,
    linear_exact_reference,
    make_problem,
    moment_estimate,
    ssbe_reference,
)
from sdepca.montecarlo import EXAMPLE1_WEAK_PHIS, EXAMPLE2_ERGODIC_PHIS, EXAMPLE2_WEAK_PHIS
from sdepca.problems import cubic_multiplicative_dissipativity

DELTAS = [2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9]
FINE_STEP = 2.0**-11
Z95 = 1.96

#: A check that fails because of a fault in the program that the README
#: names.  An operation that fails only such checks is counted as failed
#: and leaves the run correct.
KNOWN_FAULT = "linear-reference-bias"


@dataclass
class Operation:
    name: str
    report: object = None
    failed_checks: list = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        if not ok:
            self.failed_checks.append(name)

    @property
    def failed(self) -> bool:
        return bool(self.failed_checks)

    @property
    def unexpected(self) -> list:
        """Failed checks that no known fault accounts for."""
        return [c for c in self.failed_checks if c != KNOWN_FAULT]


@dataclass
class Round:
    operations: list
    n_paths: int  # summed over the round's estimator calls
    headline_half_width: float


def _call(op_names, estimator, tracer):
    """Run one estimator call; on an exception every operation it feeds fails."""
    span = tracer.span("montecarlo.estimator") if tracer else nullcontext()
    try:
        with span:
            return estimator(), []
    except Exception:
        traceback.print_exc()
        return None, [Operation(name, failed_checks=["raised"]) for name in op_names]


def _serialize(ops, out_dir: Path, tracer) -> None:
    for op in ops:
        if op.report is None:
            continue
        span = tracer.span("montecarlo.serialize") if tracer else nullcontext()
        stem = out_dir / op.name.replace("/", "_")
        with span:
            op.report.to_json(stem.with_suffix(".json"))
            op.report.to_csv(stem.with_suffix(".csv"))
        if tracer:
            for suffix in (".json", ".csv"):
                tracer.counts["montecarlo.serialize.bytes"] += stem.with_suffix(suffix).stat().st_size


def _falls_strictly(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


class WeakWorkload:
    """One ``estimate_weak_errors`` call per round, four test functions."""

    pool_workers = 1
    T: int
    n_paths: int
    phis: tuple
    slope_band: tuple

    def __init__(self, wrap=lambda problem: problem):
        self.problem = wrap(self.make_problem())
        self.reference = self.make_reference(self.problem)

    def run_round(self, master_seed: int, n_workers: int, out_dir: Path, tracer=None) -> Round:
        names = [f"{self.name}/{phi.value}" for phi in self.phis]
        reports, ops = _call(
            names,
            lambda: estimate_weak_errors(
                self.problem, self.reference, DELTAS, self.n_paths, self.T, self.phis,
                master_seed, fine_step=FINE_STEP, n_workers=n_workers,
            ),
            tracer,
        )
        headline = math.nan
        if reports is not None:
            for name, phi in zip(names, self.phis):
                op = Operation(name, reports[phi])
                self.check(op, phi)
                ops.append(op)
            # the widest of the four mean-gap half-widths at the finest step
            headline = max(r.mean_gap_half_widths[-1] for r in reports.values())
        _serialize(ops, out_dir, tracer)
        return Round(ops, self.n_paths, headline)

    def check(self, op: Operation, phi) -> None:
        r = op.report
        op.check("n_failed", r.n_failed == 0)
        op.check("errors-fall", _falls_strictly(r.errors))
        lo, hi = self.slope_band
        op.check("pathwise-slope", r.fitted_slope is not None and lo <= r.fitted_slope <= hi)


class WeakLinear(WeakWorkload):
    """Example 1: additive noise, the exact linear reference."""

    name = "weak-linear"
    T = 5
    n_paths = 2000
    phis = EXAMPLE1_WEAK_PHIS
    slope_band = (0.7, 1.3)  # additive noise: BE's strong order is 1
    target_half_width = 1e-5
    theta1, theta2, x0 = 3.0, 1.0, 1.0

    def __init__(self, wrap=lambda problem: problem):
        super().__init__(wrap)
        self.closed_form = {
            phi: [
                oracles.linear_weak_error(
                    phi.value, self.theta1, self.theta2, self.x0, self.T, round(1 / d)
                )
                for d in DELTAS
            ]
            for phi in self.phis
        }

    def make_problem(self):
        return make_problem("linear-additive", theta1=self.theta1, theta2=self.theta2, x0=self.x0)

    def make_reference(self, problem):
        return linear_exact_reference(LinearAdditiveParams(self.theta1, self.theta2, self.x0))

    def check(self, op: Operation, phi) -> None:
        super().check(op, phi)
        r = op.report
        op.check(
            KNOWN_FAULT,
            all(
                abs(gap - exact) <= 4.0 * hw / Z95
                for gap, exact, hw in zip(r.mean_gaps, self.closed_form[phi], r.mean_gap_half_widths)
            ),
        )


class WeakCubic(WeakWorkload):
    """Example 2: cubic drift, multiplicative noise, the extrapolated SSBE reference."""

    name = "weak-cubic"
    T = 6
    n_paths = 512
    phis = EXAMPLE2_WEAK_PHIS
    slope_band = (0.4, 0.85)  # BE's strong order 1/2; see the README
    target_half_width = 1e-5
    #: sin(x^2 + pi/2) is flat at 0, near where the chain stays, so its
    #: pathwise error rests on a few excursions (5 of 8192 paths carry 90%
    #: of its variance): on 512 paths it falls over the four steps, but not
    #: reliably at each one, and its slope spreads over 0.28-0.92
    coarse_only = ("sin_sq_shift",)

    def make_problem(self):
        return make_problem("cubic-multiplicative", a=1.0, b=1.0, x0=2.0)

    def make_reference(self, problem):
        return ssbe_reference(problem)

    def check(self, op: Operation, phi) -> None:
        if phi.value in self.coarse_only:
            op.check("n_failed", op.report.n_failed == 0)
            op.check("errors-fall", op.report.errors[0] > op.report.errors[-1])
        else:
            super().check(op, phi)


class LongRun:
    """The invariant-measure presets at m = 16: many short coarse chains."""

    name = "long-run"
    #: Timed runs use one process, like the other workloads, so that the
    #: host speed gauged in that process speaks for the whole round.  The
    #: traced run checks the reports on this many worker processes.
    pool_workers = 2
    m = 16
    #: 300 paths keep a round near 3.5 s in one process, so the host factor
    #: is gauged often; the 1500 of the linear moment make three chunks of
    #: the default 512, so both workers of the traced run get work
    n_paths = 300
    n_paths_linear_moment = 1500
    initials = [-2.0, -1.0, 0.0, 1.0, 2.0]
    target_half_width = 1e-3
    theta1, theta2 = 3.0, 1.0

    def __init__(self, wrap=lambda problem: problem):
        self.cfg = BeConfig(m=self.m)
        self.linear = wrap(make_problem("linear-additive", theta1=self.theta1, theta2=self.theta2))
        self.cubic = wrap(make_problem("cubic-multiplicative", a=1.0, b=1.0))
        self.cubic_params = cubic_multiplicative_dissipativity(1.0, 1.0)
        self.contraction_oracle = oracles.linear_contraction_trace(
            self.theta1, self.theta2, self.m, 2.0, -2.0, 20
        )
        self.moment_oracle = oracles.be_stationary_second_moment(self.theta1, self.theta2, self.m)

    def run_round(self, master_seed: int, n_workers: int, out_dir: Path, tracer=None) -> Round:
        cfg, n = self.cfg, self.n_paths
        kw = dict(n_workers=n_workers)
        calls = [
            (
                f"ergodic/{phi.value}",
                n,
                lambda phi=phi: ergodic_mean_trace(
                    self.cubic, cfg, self.initials, 30, n, phi, master_seed, **kw
                ),
                self.check_ergodic,
            )
            for phi in EXAMPLE2_ERGODIC_PHIS
        ] + [
            (
                "contraction/linear",
                n,
                lambda: contraction_estimate(self.linear, cfg, 2.0, -2.0, n, 20, master_seed, **kw),
                self.check_linear_contraction,
            ),
            (
                "contraction/cubic",
                n,
                lambda: contraction_estimate(
                    self.cubic, cfg, 2.0, -2.0, n, 20, master_seed, params=self.cubic_params, **kw
                ),
                self.check_cubic_contraction,
            ),
            (
                "moment/linear",
                self.n_paths_linear_moment,
                lambda: moment_estimate(
                    self.linear, cfg, 1, self.n_paths_linear_moment, 30, master_seed, **kw
                ),
                self.check_linear_moment,
            ),
            (
                "moment/cubic",
                n,
                lambda: moment_estimate(
                    self.cubic, cfg, 1, n, 50, master_seed, params=self.cubic_params, **kw
                ),
                self.check_cubic_moment,
            ),
        ]
        ops = []
        headline = math.nan
        for name, paths, estimator, check in calls:
            report, failed = _call([f"{self.name}/{name}"], estimator, tracer)
            ops += failed
            if report is not None:
                op = Operation(f"{self.name}/{name}", report)
                op.check("n_failed", report.n_failed == 0)
                check(op)
                ops.append(op)
                if name == "moment/linear":
                    headline = report.half_widths[-1]
        _serialize(ops, out_dir, tracer)
        return Round(ops, sum(paths for _, paths, _, _ in calls), headline)

    @staticmethod
    def check_ergodic(op: Operation) -> None:
        r = op.report
        op.check("spread", r.spread[-1] < 3.0 * r.pooled_se[-1])

    def check_linear_contraction(self, op: Operation) -> None:
        # the tolerance of acceptance criterion 7a: late in the trace the
        # coupled chains differ by ~1e-8, and cancellation in Y^x - Y^y
        # leaves a rounding error near 1e-10 relative
        op.check(
            "contraction-law",
            all(
                abs(got - want) <= 1e-12 + 1e-10 * want
                for got, want in zip(op.report.mean_sq_diffs, self.contraction_oracle)
            ),
        )

    @staticmethod
    def check_cubic_contraction(op: Operation) -> None:
        r = op.report
        factor = r.fitted_decay_factor
        op.check("decay-factor", factor is not None and factor < 1.0 and factor < r.bound)

    def check_linear_moment(self, op: Operation) -> None:
        r = op.report
        op.check(
            "stationary-moment",
            abs(r.moments[-1] - self.moment_oracle) <= 4.0 * r.half_widths[-1] / Z95,
        )

    @staticmethod
    def check_cubic_moment(op: Operation) -> None:
        op.check("growth-flag", not op.report.growth_flag)


WORKLOADS = {w.name: w for w in (WeakCubic, WeakLinear, LongRun)}
