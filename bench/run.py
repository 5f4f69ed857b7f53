"""Run one workload of sdepca's benchmark and print its metrics as JSON.

    python3 bench/run.py --workload weak-cubic --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
A run repeats whole rounds of the workload (see ``workloads.py``) until
``--seconds`` have passed, checks every report, and prints one JSON object
as its last line: ``correct``, ``attempted`` and ``failed`` operations, and
the metrics.  With ``--trace 0`` these are the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run in one process.  See
README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 11
#: Round 0 of every run draws its noise from this master seed, so the
#: per-path variance behind time_to_target_s is the same in every run; round
#: r >= 1 uses seed * SEED_STRIDE + r.
FIXED_SEED = 2024
SEED_STRIDE = 1000


def _master_seed(seed: int, index: int) -> int:
    return FIXED_SEED if index == 0 else seed * SEED_STRIDE + index


def _setup_probes(workload: str, repeats: int) -> list[dict]:
    probes = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def _peak_rss_mb() -> float:
    """Peak RSS of this process, which runs every round of a timed run."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_round(workload, master_seed, n_workers, out_dir, tracer=None):
    out_dir.mkdir()
    start = time.perf_counter()
    result = workload.run_round(master_seed, n_workers, out_dir, tracer)
    return result, time.perf_counter() - start


def _rounds(seconds: float):
    """Round indices until the next round would end past ``seconds``."""
    start = time.perf_counter()
    index = 0
    last = 0.0
    while index == 0 or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        yield index
        last = time.perf_counter() - round_start
        index += 1


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _tally(rounds) -> tuple[int, int, list]:
    ops = [op for r in rounds for op in r.operations]
    unexpected = sorted({f"{op.name}: {c}" for op in ops for c in op.unexpected})
    return len(ops), sum(op.failed for op in ops), unexpected


def _report_failures(rounds) -> None:
    seen = {}
    for r in rounds:
        for op in r.operations:
            for check in op.failed_checks:
                seen[(op.name, check)] = seen.get((op.name, check), 0) + 1
    for (name, check), count in sorted(seen.items()):
        print(f"bench: {name} failed check {check} in {count} round(s)", file=sys.stderr)


def end_to_end(workloads, name: str, seed: int, seconds: float) -> dict:
    from hostspeed import host_factor

    workload = workloads.WORKLOADS[name]()
    rounds, times = [], []
    host_factor()  # warm-up
    factors = [host_factor()]
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-") as tmp:
        for index in _rounds(seconds):
            result, elapsed = _timed_round(
                workload, _master_seed(seed, index), 1, Path(tmp) / str(index)
            )
            factors.append(host_factor())
            rounds.append(result)
            times.append(elapsed)
    peak_rss = _peak_rss_mb()
    setup_wall = statistics.median(p["setup_s"] for p in _setup_probes(name, SETUP_REPEATS))
    factors.append(host_factor())
    # each time at the reference host speed: its wall time over the mean
    # host factor gauged just before and just after it (see README)
    scaled = [t / (0.5 * (a + b)) for t, a, b in zip(times, factors, factors[1:])]
    setup = setup_wall / (0.5 * (factors[-2] + factors[-1]))
    print(
        f"bench: {len(rounds)} rounds, median wall time {statistics.median(times):.3f} s,"
        f" set-up wall time {setup_wall:.4f} s,"
        f" host factors {min(factors):.3f}-{max(factors):.3f}",
        file=sys.stderr,
    )
    # the median round time, scaled by the paths the target half-width
    # needs, at the per-path variance of round 0 (see README)
    scale = (rounds[0].headline_half_width / workload.target_half_width) ** 2
    time_to_target = statistics.median(scaled) * scale
    attempted, failed, unexpected = _tally(rounds)
    _report_failures(rounds)
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": _metric(setup, "s"),
            "paths_per_s": _metric(
                statistics.median(r.n_paths / t for r, t in zip(rounds, scaled)), "paths/s"
            ),
            "time_to_target_s": _metric(time_to_target, "s"),
            "peak_rss_mb": _metric(peak_rss, "MB"),
        },
    }


def _outputs(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def traced(workloads, name: str, seed: int, seconds: float) -> dict:
    from tracing import Tracer, counted_problem, instrument

    cls = workloads.WORKLOADS[name]
    plain = cls()
    tracer = Tracer()
    counted = cls(wrap=lambda problem: counted_problem(problem, tracer))
    rounds, overheads = [], []
    identical = True
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-traced-") as tmp:
        for index in _rounds(seconds):
            master_seed = _master_seed(seed, index)
            base = Path(tmp) / str(index)
            base.mkdir()
            elapsed = {}
            variants = [("plain", plain, None), ("traced", counted, tracer)]
            if index % 2:  # alternate the order, so that warm-up is not counted as overhead
                variants.reverse()
            for label, workload, tr in variants:
                with instrument(tr) if tr else nullcontext():
                    result, elapsed[label] = _timed_round(workload, master_seed, 1, base / label, tr)
                rounds.append(result)
            compared = [base / "plain", base / "traced"]
            if plain.pool_workers > 1:
                result, _ = _timed_round(plain, master_seed, plain.pool_workers, base / "workers")
                rounds.append(result)
                compared.append(base / "workers")
            overheads.append(100.0 * (elapsed["traced"] - elapsed["plain"]) / elapsed["plain"])
            outputs = [_outputs(d) for d in compared]
            if any(o != outputs[0] for o in outputs[1:]):
                identical = False
                print(f"bench: round {index}: traced reports differ from untraced", file=sys.stderr)
    n_rounds = len(overheads)
    import_s = statistics.median(p["import_s"] for p in _setup_probes(name, 5))

    counts = tracer.counts
    steps = counts["integrators.steps"]
    stepping_s = tracer.busy("integrators.be") + tracer.busy("integrators.ssbe")

    def per_round(value):
        return value / n_rounds

    metrics = {
        "brownian.generate_increments.s": (per_round(tracer.busy("brownian.generate_increments")), "s"),
        "brownian.normals": (per_round(counts["brownian.normals"]), "count"),
        "brownian.coarsen_array.s": (per_round(tracer.busy("brownian.coarsen_array")), "s"),
        "brownian.coarsen_array.bytes": (per_round(counts["brownian.coarsen_array.bytes"]), "bytes"),
        "integrators.ssbe.s": (per_round(tracer.busy("integrators.ssbe")), "s"),
        "integrators.be.s": (per_round(tracer.busy("integrators.be")), "s"),
        "integrators.steps": (per_round(steps), "count"),
        "integrators.steps_per_call": (steps / max(counts["integrators.calls"], 1), "count"),
        "integrators.steps_per_s": (steps / stepping_s if stepping_s else 0.0, "1/s"),
        "integrators.drift_rows_per_step": (counts["integrators.drift_rows"] / max(steps, 1), "count"),
        "integrators.jacobian_rows_per_step": (
            counts["integrators.jacobian_rows"] / max(steps, 1), "count",
        ),
        "integrators.failed_rows": (per_round(counts["integrators.failed_rows"]), "count"),
        "linear_analytic.exact_finals_batch.s": (
            per_round(tracer.busy("linear_analytic.exact_finals_batch")), "s",
        ),
        "montecarlo.estimator.self_s": (per_round(tracer.self_time("montecarlo.estimator")), "s"),
        "montecarlo.serialize.s": (per_round(tracer.busy("montecarlo.serialize")), "s"),
        "montecarlo.serialize.bytes": (per_round(counts["montecarlo.serialize.bytes"]), "bytes"),
        "setup.import_s": (import_s, "s"),
        "trace.overhead": (statistics.median(overheads), "%"),
    }
    attempted, failed, unexpected = _tally(rounds)
    _report_failures(rounds)
    return {
        "correct": identical and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(v, unit) for k, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "sdepca" / "__init__.py").is_file():
        print(f"bench: no sdepca sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    run = traced if args.trace else end_to_end
    result = run(workloads, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
