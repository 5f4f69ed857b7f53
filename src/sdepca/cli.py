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
import json
import sys
from pathlib import Path

from . import __version__
from .brownian import generate_path, write_path
from .integrators import (
    BeConfig,
    NonConvergenceError,
    NonFiniteError,
    simulate_be,
    simulate_em,
    simulate_ssbe,
)
from .linear_analytic import LinearAdditiveParams, exact_mean, exact_variance, law
from .model import contraction_rates, check_ergodicity_condition, check_moment_condition, probe_dissipativity, DissipativityParams
from .montecarlo import (
    EXAMPLE1_WEAK_PHIS,
    EXAMPLE2_WEAK_PHIS,
    MonteCarloFailure,
    TestFunction,
    contraction_estimate,
    ergodic_mean_trace,
    estimate_weak_errors,
    linear_exact_reference,
    ssbe_reference,
    write_csv,
)
from .problems import default_dissipativity, make_problem

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class ValidationError(Exception):
    pass


def _emit_error(code: str, detail: str) -> None:
    sys.stderr.write(f"error_code={code} detail={detail}\n")


def _parse_step(text: str) -> float:
    """Accept '2^-6', '2**-6' or a plain float literal."""
    token = text.strip().replace("**", "^")
    if "^" in token:
        base, _, expo = token.partition("^")
        return float(base) ** float(expo)
    return float(token)


def _parse_step_list(text: str) -> list[float]:
    return [_parse_step(tok) for tok in text.split(",") if tok.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_phi(text: str) -> TestFunction:
    try:
        return TestFunction(text.strip())
    except ValueError:
        raise ValidationError(
            f"unknown test function {text!r}; known: {[t.value for t in TestFunction]}"
        ) from None


def _parse_phi_list(text: str) -> list[TestFunction]:
    return [_parse_phi(tok) for tok in text.split(",") if tok.strip()]


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


_COMMON = {
    "problem": (str, "linear-additive"),
    "theta1": (float, 3.0),
    "theta2": (float, 1.0),
    "a": (float, 1.0),
    "b": (float, 1.0),
    "x0": (float, None),
    "master_seed": (int, 2024),
    "output": (str, None),
    "format": (str, "csv"),
    "threads": (int, 1),
}

_SPECS = {
    "moments": {**_COMMON, "t_max": (float, 10.0), "grid_step": (float, 0.05)},
    "weak-order": {
        **_COMMON,
        "T": (int, None),
        "fine_step": (_parse_step, 2.0**-11),
        "deltas": (_parse_step_list, [2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9]),
        "n_paths": (int, None),
        "phis": (_parse_phi_list, None),
    },
    "ergodicity": {
        **_COMMON,
        "initials": (_parse_float_list, [-2.0, -1.0, 0.0, 1.0, 2.0]),
        "K": (int, 30),
        "n_paths": (int, 2000),
        "phi": (_parse_phi, TestFunction.ATAN_ABS),
        "m": (int, 16),
    },
    "contraction": {
        **_COMMON,
        "x": (float, 2.0),
        "y": (float, -2.0),
        "K": (int, 20),
        "n_paths": (int, 2000),
        "m": (int, 16),
    },
    "check": {
        **_COMMON,
        "lambda1": (float, None),
        "lambda2": (float, None),
        "lambda3": (float, None),
        "p": (int, 1),
        "n_probes": (int, 10000),
        "radius": (float, 5.0),
        "m": (int, 16),
    },
    "simulate": {
        **_COMMON,
        "K": (int, 5),
        "m": (int, 16),
        "fine_step": (_parse_step, None),
        "path_index": (int, 0),
        "scheme": (str, "be"),
        "dump_path": (str, None),
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        raw = getattr(args, key, None)
        if raw is None and key in file_values:
            raw = file_values[key]
        if raw is None:
            cfg[key] = default
        else:
            try:
                cfg[key] = convert(raw) if isinstance(raw, str) else raw
            except ValidationError:
                raise
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bad value for {key}: {raw!r} ({exc})") from None
    if cfg["format"] not in ("csv", "json"):
        raise ValidationError(f"format must be csv or json, got {cfg['format']!r}")
    if cfg["threads"] < 1:
        raise ValidationError("threads must be >= 1")
    return cfg


def _build_problem(cfg: dict):
    name = cfg["problem"]
    if name == "linear-additive":
        kwargs = {"theta1": cfg["theta1"], "theta2": cfg["theta2"]}
    elif name == "cubic-multiplicative":
        kwargs = {"a": cfg["a"], "b": cfg["b"]}
    else:
        raise ValidationError(f"unknown problem {name!r}")
    if cfg["x0"] is not None:
        kwargs["x0"] = cfg["x0"]
    try:
        return make_problem(name, **kwargs), kwargs
    except (KeyError, ValueError) as exc:
        raise ValidationError(str(exc)) from None


def _output_path(cfg: dict, command: str, suffix: str = "") -> Path:
    ext = cfg["format"]
    if cfg["output"]:
        base = Path(cfg["output"])
        if suffix:
            return base.with_name(base.stem + f"_{suffix}" + base.suffix)
        return base
    name = f"sdepca_{command}{'_' + suffix if suffix else ''}.{ext}"
    return Path(name)


def _write_report(report, path: Path, fmt: str) -> None:
    """An estimator's report as ``fmt``, csv or json."""
    if fmt == "json":
        report.to_json(path)
    else:
        report.to_csv(path)


def _cmd_moments(cfg: dict) -> int:
    if cfg["problem"] != "linear-additive":
        raise ValidationError("moments requires the linear-additive problem (analytic law)")
    if cfg["grid_step"] <= 0.0 or cfg["t_max"] <= 0.0:
        raise ValidationError("t_max and grid_step must be positive")
    params = LinearAdditiveParams(cfg["theta1"], cfg["theta2"], cfg["x0"] if cfg["x0"] is not None else 1.0)
    n = int(round(cfg["t_max"] / cfg["grid_step"]))
    ts = [k * cfg["grid_step"] for k in range(n + 1)]
    means = [exact_mean(params, t) for t in ts]
    variances = [exact_variance(params, t) for t in ts]
    path = _output_path(cfg, "moments")
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
    is_linear = cfg["problem"] == "linear-additive"
    T = cfg["T"] if cfg["T"] is not None else (5 if is_linear else 6)
    n_paths = cfg["n_paths"] if cfg["n_paths"] is not None else (1000 if is_linear else 2000)
    phis = cfg["phis"] if cfg["phis"] is not None else list(
        EXAMPLE1_WEAK_PHIS if is_linear else EXAMPLE2_WEAK_PHIS
    )
    if is_linear:
        params = LinearAdditiveParams(kwargs["theta1"], kwargs["theta2"], float(problem.initial_state[0]))
        reference = linear_exact_reference(params)
    else:
        reference = ssbe_reference(problem)
    reports = estimate_weak_errors(
        problem,
        reference,
        cfg["deltas"],
        n_paths,
        T,
        phis,
        cfg["master_seed"],
        fine_step=cfg["fine_step"],
        n_workers=cfg["threads"],
    )
    for phi in phis:
        report = reports[phi]
        suffix = phi.value if len(phis) > 1 else ""
        path = _output_path(cfg, "weak-order", suffix)
        _write_report(report, path, cfg["format"])
        note = "" if report.gap_resolved else " (unresolved: finest mean gap within its 95% half-width)"
        print(
            f"weak-order[{phi.value}]: slope={_slope_text(report.fitted_slope)}"
            f" mean_gap_slope={_slope_text(report.mean_gap_slope)}{note} -> {path}"
        )
    return EXIT_OK


def _cmd_ergodicity(cfg: dict) -> int:
    problem, _ = _build_problem(cfg)
    report = ergodic_mean_trace(
        problem,
        BeConfig(m=cfg["m"]),
        cfg["initials"],
        cfg["K"],
        cfg["n_paths"],
        cfg["phi"],
        cfg["master_seed"],
        n_workers=cfg["threads"],
    )
    path = _output_path(cfg, "ergodicity")
    _write_report(report, path, cfg["format"])
    print(
        f"ergodicity[{cfg['phi'].value}]: spread(K)={report.spread[-1]:.3e} "
        f"pooled_se={report.pooled_se[-1]:.3e} -> {path}"
    )
    return EXIT_OK


def _cmd_contraction(cfg: dict) -> int:
    problem, kwargs = _build_problem(cfg)
    try:
        params = default_dissipativity(cfg["problem"], **{k: v for k, v in kwargs.items() if k != "x0"})
        if not check_ergodicity_condition(params):
            params = None
    except (KeyError, ValueError):
        params = None
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
    path = _output_path(cfg, "contraction")
    _write_report(report, path, cfg["format"])
    factor = "nan" if report.fitted_decay_factor is None else f"{report.fitted_decay_factor:.4e}"
    bound = "n/a" if report.bound is None else f"{report.bound:.4e}"
    print(f"contraction: decay_factor={factor} bound={bound} -> {path}")
    return EXIT_OK


def _cmd_check(cfg: dict) -> int:
    problem, kwargs = _build_problem(cfg)
    defaults = default_dissipativity(cfg["problem"], **{k: v for k, v in kwargs.items() if k != "x0"})
    try:
        params = DissipativityParams(
            lambda1=cfg["lambda1"] if cfg["lambda1"] is not None else defaults.lambda1,
            lambda2=cfg["lambda2"] if cfg["lambda2"] is not None else defaults.lambda2,
            lambda3=cfg["lambda3"] if cfg["lambda3"] is not None else defaults.lambda3,
            f00_norm_sq=defaults.f00_norm_sq,
            g00_norm_sq=defaults.g00_norm_sq,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
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
        rates = contraction_rates(params, 1.0 / cfg["m"], cfg["m"])
        result["contraction_rates"] = dataclasses.asdict(rates)
    path = _output_path(cfg, "check")
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
    if cfg["format"] != "csv":
        raise ValidationError("simulate writes trajectories as csv only")
    if cfg["scheme"] not in ("be", "em", "ssbe"):
        raise ValidationError(f"unknown scheme {cfg['scheme']!r}")
    problem, _ = _build_problem(cfg)
    fine_step = cfg["fine_step"] if cfg["fine_step"] is not None else 1.0 / cfg["m"]
    try:
        grid = generate_path(
            cfg["master_seed"], cfg["path_index"], float(cfg["K"]), fine_step, problem.dim_noise
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    if cfg["dump_path"]:
        write_path(grid, cfg["dump_path"])
    runner = {"be": simulate_be, "em": simulate_em, "ssbe": simulate_ssbe}[cfg["scheme"]]
    trajectory = runner(problem, BeConfig(m=cfg["m"]), grid, cfg["K"])
    path = _output_path(cfg, "simulate")
    trajectory.to_csv(path)
    print(f"simulate[{cfg['scheme']}]: {trajectory.states.shape[0]} states -> {path}")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args, args.command)
        return _RUNNERS[args.command](cfg)
    except ValidationError as exc:
        _emit_error("invalid_config", str(exc))
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        _emit_error("invalid_config", str(exc))
        return EXIT_VALIDATION
    except ValueError as exc:
        _emit_error("invalid_config", str(exc))
        return EXIT_VALIDATION
    except (NonConvergenceError, NonFiniteError, MonteCarloFailure) as exc:
        _emit_error("numerical_failure", str(exc))
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
