"""Command-line experiment runner.

Each subcommand reproduces one experiment or analysis check as a data file:

* ``moments``      analytic mean/variance curves of the linear problem
* ``weak-order``   log-log weak-error table plus fitted slope
* ``ergodicity``   mean traces of phi(Y_k) from several initial values
* ``contraction``  mean-square distance of coupled chains vs the bound
* ``check``        dissipativity conditions, contraction rates and probes
* ``simulate``     a single trajectory as CSV

Options can be given as flags or in a flat ``key = value`` config file
(flags win).  Outputs are byte-identical for identical config and seed,
independent of ``--threads``, the number of worker processes.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import re
import sys
from pathlib import Path

from . import __version__
from .brownian import generate_path, steps_per_unit, write_path
from .integrators import SCHEMES, BeConfig, NonConvergenceError, NonFiniteError, simulate
from .linear_analytic import LinearAdditiveParams, exact_mean, exact_variance, law
from .model import contraction_rates, check_ergodicity_condition, check_moment_condition, probe_dissipativity
from .montecarlo import (
    MonteCarloFailure,
    TestFunction,
    contraction_estimate,
    ergodic_mean_traces,
    estimate_weak_errors,
    write_csv,
)
from .problems import BUILTINS, default_dissipativity, make_problem

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

#: Most points on the time grid of ``moments``, t = 0 included.
_MAX_GRID_POINTS = 10**6


class ValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose errors are validation errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word such as -1,0.5 or -1e6 is a value, not an option
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ValidationError(message)


def _emit_error(code: str, detail: str) -> None:
    sys.stderr.write(f"error_code={code} detail={detail}\n")


def _parse_step(text: str) -> float:
    """Accept '2^-6', '2**-6' or a plain float literal."""
    token = text.strip().replace("**", "^")
    if "^" in token:
        base, _, expo = token.partition("^")
        return float(base) ** float(expo)
    return float(token)


def _list_of(parse):
    """A parser of comma-separated lists of what ``parse`` reads."""
    return lambda text: [parse(tok) for tok in text.split(",") if tok.strip()]


def _parse_phi(text: str) -> TestFunction:
    try:
        return TestFunction(text.strip())
    except ValueError:
        raise ValidationError(
            f"unknown test function {text!r}; known: {[t.value for t in TestFunction]}"
        ) from None


def load_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` file; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


#: Every built-in's parameters, each defaulting to its entry in BUILTINS.
_PARAMS = {key: (float, None) for entry in BUILTINS.values() for key in entry.params}
_PROBLEM = {"problem": (str, "linear-additive"), **_PARAMS}
_X0 = {"x0": (float, None)}
_SEED = {"master_seed": (int, 2024)}
_OUTPUT = {"output": (str, None), "format": (str, "csv")}
_THREADS = {"threads": (int, 1)}
#: The built-in whose law ``moments`` writes in closed form.
_MOMENTS_PROBLEM = "linear-additive"

#: Each subcommand's options: exactly those that its runner reads.
_SPECS = {
    "moments": {
        **{key: _PARAMS[key] for key in BUILTINS[_MOMENTS_PROBLEM].params},
        **_X0, **_OUTPUT,
        "t_max": (float, 10.0),
        "grid_step": (float, 0.05),
    },
    "weak-order": {
        **_PROBLEM, **_X0, **_SEED, **_OUTPUT, **_THREADS,
        "T": (int, None),
        "fine_step": (_parse_step, 2.0**-11),
        "deltas": (_list_of(_parse_step), [2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9]),
        "n_paths": (int, None),
        "phis": (_list_of(_parse_phi), None),
    },
    "ergodicity": {
        **_PROBLEM, **_SEED, **_OUTPUT, **_THREADS,
        "initials": (_list_of(float), [-2.0, -1.0, 0.0, 1.0, 2.0]),
        "K": (int, 30),
        "n_paths": (int, 2000),
        "phis": (_list_of(_parse_phi), [TestFunction.ATAN_ABS]),
        "m": (int, 16),
    },
    "contraction": {
        **_PROBLEM, **_SEED, **_OUTPUT, **_THREADS,
        "x": (float, 2.0),
        "y": (float, -2.0),
        "K": (int, 20),
        "n_paths": (int, 2000),
        "m": (int, 16),
    },
    "check": {
        **_PROBLEM, **_SEED, **_OUTPUT,
        "lambda1": (float, None),
        "lambda2": (float, None),
        "lambda3": (float, None),
        "p": (int, 1),
        "n_probes": (int, 10000),
        "radius": (float, 5.0),
        "m": (int, 16),
    },
    "simulate": {
        **_PROBLEM, **_X0, **_SEED,
        "output": (str, None),
        "K": (int, 5),
        "m": (int, 16),
        "fine_step": (_parse_step, None),
        "path_index": (int, 0),
        "scheme": (str, "be"),
        "dump_path": (str, None),
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sdepca",
        description="Simulation and invariant-measure diagnostics for SDEs "
        "with piecewise-constant arguments.",
    )
    parser.add_argument("--version", action="version", version=f"sdepca {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _SPECS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key = value config file")
        for key in spec:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    return parser


def _resolve(args: argparse.Namespace, command: str) -> dict:
    spec = _SPECS[command]
    file_values = load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(spec)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    cfg = {}
    for key, (convert, default) in spec.items():
        raw = getattr(args, key)
        if raw is None:
            raw = file_values.get(key)
        try:
            cfg[key] = default if raw is None else convert(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"bad value for {key}: {raw!r} ({exc})") from None
    if cfg.get("format", "csv") not in ("csv", "json"):
        raise ValidationError(f"format must be csv or json, got {cfg['format']!r}")
    if cfg.get("threads", 1) < 1:
        raise ValidationError("threads must be >= 1")
    return cfg


def _build_problem(cfg: dict, name: str | None = None):
    """The built-in problem ``name``, by default the one that ``cfg`` names,
    and its parameters besides ``x0``: each from ``cfg`` if set there, else
    its default in BUILTINS.  A parameter that it does not take is an error."""
    name = cfg["problem"] if name is None else name
    if name not in BUILTINS:
        raise ValidationError(f"unknown problem {name!r}")
    params = BUILTINS[name].params
    for key in _PARAMS:
        if key not in params and cfg.get(key) is not None:
            raise ValidationError(f"problem {name} takes no {key}; its parameters are {list(params)}")
    kwargs = {key: default if cfg[key] is None else cfg[key] for key, default in params.items()}
    x0 = {} if cfg.get("x0") is None else {"x0": cfg["x0"]}
    return make_problem(name, **kwargs, **x0), kwargs


def _check_writable(*paths: str | Path) -> None:
    """Fail before any run if a file of ``paths`` is a directory, named with a
    trailing separator as given, or its directory is missing."""
    for path in paths:
        text = os.fspath(path)
        if text.endswith(("/", os.sep)) or Path(text).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), text)
        if not Path(text).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), text)


def _output_path(cfg: dict, command: str, suffix: str = "") -> Path:
    """``--output`` or ``sdepca_<command>.<format>``, with ``_<suffix>`` after its stem, checked."""
    text = cfg["output"] or f"sdepca_{command}.{cfg.get('format', 'csv')}"
    _check_writable(text)
    base = Path(text)
    path = base.with_name(f"{base.stem}_{suffix}{base.suffix}") if suffix else base
    _check_writable(path)
    return path


def _write_report(report, path: Path, fmt: str) -> None:
    """An estimator's report as ``fmt``, csv or json."""
    if fmt == "json":
        report.to_json(path)
    else:
        report.to_csv(path)


def _report_paths(cfg: dict, command: str, phis) -> dict:
    """Each test function's output path, named after it when there are several."""
    return {phi: _output_path(cfg, command, phi.value if len(phis) > 1 else "") for phi in phis}


def _write_reports(cfg: dict, command: str, paths: dict, reports, summary) -> None:
    """Each test function's report at its path, and a stdout line with ``summary(report)``."""
    for phi, path in paths.items():
        _write_report(reports[phi], path, cfg["format"])
        print(f"{command}[{phi.value}]: {summary(reports[phi])} -> {path}")


def _cmd_moments(cfg: dict) -> int:
    for key in ("t_max", "grid_step"):
        if not 0.0 < cfg[key] < math.inf:
            raise ValidationError(f"{key} must be positive and finite, got {cfg[key]}")
    ratio = cfg["t_max"] / cfg["grid_step"]
    if not ratio < _MAX_GRID_POINTS or round(ratio) + 1 > _MAX_GRID_POINTS:
        raise ValidationError(
            f"t_max / grid_step must give at most {_MAX_GRID_POINTS} grid points,"
            f" got t_max={cfg['t_max']} and grid_step={cfg['grid_step']}"
        )
    n = round(ratio)
    problem, kwargs = _build_problem(cfg, _MOMENTS_PROBLEM)
    params = LinearAdditiveParams(**kwargs, x0=float(problem.initial_state[0]))
    path = _output_path(cfg, "moments")
    ts = [k * cfg["grid_step"] for k in range(n + 1)]
    means = [exact_mean(params, t) for t in ts]
    variances = [exact_variance(params, t) for t in ts]
    if cfg["format"] == "json":
        table = {"t": ts, "mean": means, "variance": variances}
        path.write_text(json.dumps(table, indent=2) + "\n")
    else:
        write_csv(path, "t,mean,variance", ts, means, variances)
    lw = law(params)
    print(f"moments: wrote {path} (mu(1)={lw.mu_one:.6g}, stationary={lw.is_stationary})")
    return EXIT_OK


def _slope_text(slope) -> str:
    return "nan" if slope is None else f"{slope:.4f}"


def _cmd_weak_order(cfg: dict) -> int:
    problem, kwargs = _build_problem(cfg)
    preset = BUILTINS[cfg["problem"]].weak
    T = preset.T if cfg["T"] is None else cfg["T"]
    n_paths = preset.n_paths if cfg["n_paths"] is None else cfg["n_paths"]
    phis = list(preset.phis) if cfg["phis"] is None else cfg["phis"]
    paths = _report_paths(cfg, "weak-order", phis)
    reports = estimate_weak_errors(
        problem,
        preset.reference(problem, **kwargs),
        cfg["deltas"],
        n_paths,
        T,
        phis,
        cfg["master_seed"],
        fine_step=cfg["fine_step"],
        n_workers=cfg["threads"],
    )

    def summary(report):
        note = "" if report.gap_resolved else " (unresolved: finest mean gap within its 95% half-width)"
        return (
            f"slope={_slope_text(report.fitted_slope)}"
            f" mean_gap_slope={_slope_text(report.mean_gap_slope)}{note}"
        )

    _write_reports(cfg, "weak-order", paths, reports, summary)
    return EXIT_OK


def _cmd_ergodicity(cfg: dict) -> int:
    problem, _ = _build_problem(cfg)
    paths = _report_paths(cfg, "ergodicity", cfg["phis"])
    reports = ergodic_mean_traces(
        problem,
        BeConfig(m=cfg["m"]),
        cfg["initials"],
        cfg["K"],
        cfg["n_paths"],
        cfg["phis"],
        cfg["master_seed"],
        n_workers=cfg["threads"],
    )

    def summary(report):
        return f"spread(K)={report.spread[-1]:.3e} pooled_se={report.pooled_se[-1]:.3e}"

    _write_reports(cfg, "ergodicity", paths, reports, summary)
    return EXIT_OK


def _cmd_contraction(cfg: dict) -> int:
    problem, kwargs = _build_problem(cfg)
    try:
        params = default_dissipativity(cfg["problem"], **kwargs)
        if not check_ergodicity_condition(params):
            params = None
    except ValueError:
        params = None
    path = _output_path(cfg, "contraction")
    report = contraction_estimate(
        problem,
        BeConfig(m=cfg["m"]),
        cfg["x"],
        cfg["y"],
        cfg["n_paths"],
        cfg["K"],
        cfg["master_seed"],
        params=params,
        n_workers=cfg["threads"],
    )
    _write_report(report, path, cfg["format"])
    factor = "nan" if report.fitted_decay_factor is None else f"{report.fitted_decay_factor:.4e}"
    bound = "n/a" if report.bound is None else f"{report.bound:.4e}"
    print(f"contraction: decay_factor={factor} bound={bound} -> {path}")
    return EXIT_OK


def _cmd_check(cfg: dict) -> int:
    problem, kwargs = _build_problem(cfg)
    be = BeConfig(m=cfg["m"])  # m < 1 is an error also where no rate reads it
    defaults = default_dissipativity(cfg["problem"], **kwargs)
    overrides = {key: cfg[key] for key in ("lambda1", "lambda2", "lambda3") if cfg[key] is not None}
    params = dataclasses.replace(defaults, **overrides)
    path = _output_path(cfg, "check")
    ergodic = check_ergodicity_condition(params)
    moment_ok = check_moment_condition(params, cfg["p"])
    probe = probe_dissipativity(problem, params, cfg["n_probes"], cfg["radius"], cfg["master_seed"])
    result = {
        "problem": cfg["problem"],
        "lambda1": params.lambda1,
        "lambda2": params.lambda2,
        "lambda3": params.lambda3,
        "ergodicity_condition": ergodic,
        "moment_condition_p": cfg["p"],
        "moment_condition": moment_ok,
        "probe": probe.to_dict(),
    }
    if ergodic:
        result["contraction_rates"] = dataclasses.asdict(contraction_rates(params, be.m))
    if cfg["format"] == "json":
        path.write_text(json.dumps(result, indent=2) + "\n")
    else:
        lines = ["key,value"]

        def emit(prefix, obj):
            for key, value in obj.items():
                if isinstance(value, dict):
                    emit(f"{prefix}{key}.", value)
                else:
                    lines.append(f"{prefix}{key},{value}")

        emit("", result)
        path.write_text("\n".join(lines) + "\n")
    print(
        f"check: ergodicity_condition={ergodic} moment_condition(p={cfg['p']})={moment_ok} "
        f"probe_passed={probe.passed} -> {path}"
    )
    return EXIT_OK


def _cmd_simulate(cfg: dict) -> int:
    if cfg["scheme"] not in SCHEMES:
        raise ValidationError(f"unknown scheme {cfg['scheme']!r}")
    problem, _ = _build_problem(cfg)
    be = BeConfig(m=cfg["m"])
    fine_step = cfg["fine_step"]
    if fine_step is None:
        steps_per_unit(be.delta, f"the step 1/m for m = {be.m}")
        fine_step = be.delta
    path = _output_path(cfg, "simulate")
    if cfg["dump_path"]:
        _check_writable(cfg["dump_path"])
    try:
        grid = generate_path(
            cfg["master_seed"], cfg["path_index"], float(cfg["K"]), fine_step, problem.dim_noise
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    if cfg["dump_path"]:
        write_path(grid, cfg["dump_path"])
    states = simulate(cfg["scheme"], problem, be, grid, cfg["K"])
    header = "t," + ",".join(f"x_{j}" for j in range(problem.dim_state))
    write_csv(path, header, [n / be.m for n in range(len(states))], *states.T)
    print(f"simulate[{cfg['scheme']}]: {len(states)} states -> {path}")
    return EXIT_OK


_RUNNERS = {
    "moments": _cmd_moments,
    "weak-order": _cmd_weak_order,
    "ergodicity": _cmd_ergodicity,
    "contraction": _cmd_contraction,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _resolve(args, args.command)
        return _RUNNERS[args.command](cfg)
    except (ValidationError, OSError, ValueError) as exc:
        _emit_error("invalid_config", str(exc))
        return EXIT_VALIDATION
    except (NonConvergenceError, NonFiniteError, MonteCarloFailure) as exc:
        _emit_error("numerical_failure", str(exc))
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
