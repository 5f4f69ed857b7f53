"""Spans and counters for the traced run, recorded from the benchmark's side.

The traced run swaps the names that ``sdepca.montecarlo`` calls into the
lower layers (``generate_increments``, ``coarsen_array``,
``run_scheme_batch``, ``exact_finals_batch``) for wrappers that record a
span around each call, and counts coefficient rows by wrapping the drift
and Jacobian of the problem the benchmark passes in.  The wrappers return
what they wrap unchanged, so a traced run computes the same numbers as an
untraced one; the benchmark checks this byte for byte.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Spans ``[name, start, end, parent]`` and named counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def busy(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus what their child spans cover."""
        total = 0.0
        for index, (n, start, end, _) in enumerate(self.spans):
            if n == name:
                children = sum(e - s for _, s, e, p in self.spans if p == index)
                total += end - start - children
        return total


def _rows(x) -> int:
    """States in a batch of shape (..., d)."""
    return x.size // x.shape[-1]


def counted_problem(problem, tracer: Tracer):
    """``problem`` whose drift and Jacobian count the rows they evaluate."""
    drift, jacobian = problem.drift, problem.drift_jacobian_x

    def counted_drift(x, y):
        tracer.counts["integrators.drift_rows"] += _rows(x)
        return drift(x, y)

    def counted_jacobian(x, y):
        tracer.counts["integrators.jacobian_rows"] += _rows(x)
        return jacobian(x, y)

    return dataclasses.replace(
        problem,
        drift=counted_drift,
        drift_jacobian_x=None if jacobian is None else counted_jacobian,
    )


@contextmanager
def instrument(tracer: Tracer):
    """Route the lower-layer calls of ``sdepca.montecarlo`` through spans."""
    import sdepca.montecarlo as mc

    names = ("generate_increments", "coarsen_array", "run_scheme_batch", "exact_finals_batch")
    original = {name: getattr(mc, name) for name in names}

    def generate_increments(*args, **kwargs):
        with tracer.span("brownian.generate_increments"):
            out = original["generate_increments"](*args, **kwargs)
        tracer.counts["brownian.normals"] += out.size
        return out

    def coarsen_array(increments, factor):
        with tracer.span("brownian.coarsen_array"):
            out = original["coarsen_array"](increments, factor)
        tracer.counts["brownian.coarsen_array.bytes"] += increments.nbytes + out.nbytes
        return out

    def run_scheme_batch(scheme, problem, cfg, increments, x0, K, record="anchors"):
        with tracer.span(f"integrators.{scheme}"):
            run = original["run_scheme_batch"](scheme, problem, cfg, increments, x0, K, record)
        tracer.counts["integrators.calls"] += 1
        tracer.counts["integrators.steps"] += increments.shape[0] * K * cfg.m
        tracer.counts["integrators.failed_rows"] += len(run.failures)
        return run

    def exact_finals_batch(*args, **kwargs):
        with tracer.span("linear_analytic.exact_finals_batch"):
            return original["exact_finals_batch"](*args, **kwargs)

    wrappers = {
        "generate_increments": generate_increments,
        "coarsen_array": coarsen_array,
        "run_scheme_batch": run_scheme_batch,
        "exact_finals_batch": exact_finals_batch,
    }
    for name, wrapper in wrappers.items():
        setattr(mc, name, wrapper)
    try:
        yield
    finally:
        for name, fn in original.items():
            setattr(mc, name, fn)
