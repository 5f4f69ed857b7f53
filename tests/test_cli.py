import json

import numpy as np
import pytest

from sdepca.brownian import generate_path, read_path
from sdepca.cli import build_parser, main
from sdepca.integrators import BeConfig, simulate
from sdepca.linear_analytic import LinearAdditiveParams, exact_mean, exact_variance
from sdepca.problems import linear_additive


def run_cli(*args):
    return main(list(args))


class TestCheck:
    def test_reports_false_condition_with_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        code = run_cli(
            "check",
            "--problem", "linear-additive",
            "--lambda1", "1", "--lambda2", "1", "--lambda3", "1",
            "--format", "json",
            "--output", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ergodicity_condition"] is False
        assert "contraction_rates" not in payload

    def test_cubic_defaults_pass_probe(self, tmp_path):
        out = tmp_path / "check.json"
        code = run_cli(
            "check",
            "--problem", "cubic-multiplicative",
            "--n-probes", "2000",
            "--format", "json",
            "--output", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ergodicity_condition"] is True
        assert payload["probe"]["passed"] is True
        assert payload["contraction_rates"]["rbar1_block"] < 1.0

    def test_csv_variant(self, tmp_path):
        out = tmp_path / "check.csv"
        code = run_cli("check", "--output", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] == "key,value"


class TestValidation:
    def test_non_dyadic_delta_is_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "weak-order",
            "--deltas", "0.3",
            "--n-paths", "4",
            "--T", "1",
            "--output", str(tmp_path / "w.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error_code=invalid_config")

    def test_empty_deltas_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        code = run_cli(
            "weak-order",
            "--deltas", ",",
            "--n-paths", "20",
            "--T", "1",
            "--output", str(tmp_path / "w.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error_code=invalid_config")
        assert "need at least one step size" in err
        assert list(tmp_path.iterdir()) == []

    def test_empty_initials_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        code = run_cli(
            "ergodicity",
            "--initials", ",",
            "--n-paths", "20",
            "--K", "2",
            "--output", str(tmp_path / "e.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error_code=invalid_config")
        assert "initials must hold at least one initial value" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("weak-order", ["--T", "1", "--format", "json"]),
            ("ergodicity", ["--K", "2", "--format", "json"]),
            ("contraction", ["--K", "2", "--format", "json"]),
        ],
    )
    def test_one_path_is_exit_2_and_writes_nothing(self, tmp_path, capsys, command, extra):
        # a standard error needs two paths: one path would write Infinity,
        # which is not JSON
        code = run_cli(command, "--n-paths", "1", *extra, "--output", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error_code=invalid_config")
        assert "n_paths must be an integer of at least 2, got 1" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args, message",
        [
            # NaN and Infinity are not JSON, and a NaN start fails every path
            (["moments", "--x0", "nan", "--format", "json"], "theta2 and x0 must be finite"),
            (["moments", "--theta2", "nan", "--format", "json"], "theta2 and x0 must be finite"),
            (["moments", "--theta1", "inf"], "theta1 must be positive and finite"),
            (["check", "--radius", "nan", "--format", "json"], "radius must be positive and finite"),
            (["check", "--radius", "inf", "--format", "json"], "radius must be positive and finite"),
            (["contraction", "--x=nan", "--n-paths", "20", "--K", "2"], "initial values must be finite"),
            (["contraction", "--y=-inf", "--n-paths", "20", "--K", "2"], "initial values must be finite"),
            (["ergodicity", "--initials", "0,nan", "--n-paths", "20", "--K", "2"],
             "initial values must be finite"),
            # every step is 2^-k with k <= 1023: 1/2^-1074 overflows a float,
            # and the error names the argument
            (["weak-order", "--fine-step", "2^-1074", "--n-paths", "2", "--T", "1"],
             "detail=fine_step must be a power of two"),
            (["simulate", "--fine-step", "2^-1074"], "detail=fine_step must be a power of two"),
            (["ergodicity", "--m", "10", "--n-paths", "20", "--K", "2"],
             "detail=the step 1/m for m = 10 must be a power of two"),
            # these raised OverflowError and ZeroDivisionError
            (["weak-order", "--fine-step", "2^2000"], "bad value for fine_step: '2^2000'"),
            (["simulate", "--m", "0"], "m must be a positive integer, got 0"),
            (["check", "--m", "0"], "m must be a positive integer, got 0"),
            # each builder checks its own parameters; these ran every path
            # and exited 3, or named lambda3
            (["simulate", "--theta1", "nan"], "detail=theta1 must be positive and finite, got nan"),
            (["ergodicity", "--theta1", "inf", "--n-paths", "20", "--K", "2"],
             "detail=theta1 must be positive and finite, got inf"),
            (["contraction", "--theta1", "nan", "--n-paths", "20", "--K", "2"],
             "detail=theta1 must be positive and finite, got nan"),
            (["weak-order", "--problem", "cubic-multiplicative", "--a", "nan", "--n-paths", "20", "--T", "1"],
             "detail=a and b must be finite, got nan and 1.0"),
            (["contraction", "--problem", "cubic-multiplicative", "--b=inf", "--n-paths", "20", "--K", "2"],
             "detail=a and b must be finite, got 1.0 and inf"),
            (["check", "--problem", "cubic-multiplicative", "--a", "nan"],
             "detail=a and b must be finite, got nan and 1.0"),
            # a seed or path index is one word of a Philox key; these raised
            # OverflowError
            (["check", "--master-seed", "-1"], "detail=master_seed must be a nonnegative integer below 2^64"),
            (["check", "--master-seed", str(2**64)], "detail=master_seed must be a nonnegative integer below 2^64"),
            (["ergodicity", "--master-seed", str(2**64), "--n-paths", "20", "--K", "2"],
             "detail=master_seed must be a nonnegative integer below 2^64"),
            (["simulate", "--path-index", str(2**64)], "detail=path_index must be a nonnegative integer below 2^64"),
            # the moments grid is bounded before it is built: 1e300 / 1e-300
            # raised OverflowError, and one point over the bound would be built
            (["moments", "--t-max", "1e300", "--grid-step", "1e-300"], "must give at most 1000000 grid points"),
            (["moments", "--t-max", "1000000", "--grid-step", "1"], "must give at most 1000000 grid points"),
            (["moments", "--t-max", "nan"], "detail=t_max must be positive and finite, got nan"),
            (["moments", "--grid-step", "0"], "detail=grid_step must be positive and finite, got 0.0"),
            # margins of NaN and -inf passed the probe, and are not JSON
            (["check", "--n-probes", "100", "--radius", "1e300", "--format", "json"],
             "detail=the coefficients overflow on the ball of radius 1e+300"),
            # simulate's default fine step is 1/m, and its error names m
            (["simulate", "--m", "3"], "detail=the step 1/m for m = 3 must be a power of two"),
            # a repeated test function ran once and was written twice
            (["weak-order", "--phis", "cos_abs,cos_abs", "--n-paths", "20", "--T", "1"],
             "detail=test function cos_abs is repeated"),
            (["ergodicity", "--phis", "sin_sq,sin_sq", "--n-paths", "20", "--K", "2"],
             "detail=test function sin_sq is repeated"),
            # constants that are not finite, or that overflow on the ball,
            # were blamed on the coefficients
            (["check", "--lambda1", "inf"], "detail=lambda1 must be finite, got inf"),
            (["check", "--lambda2", "inf"], "detail=lambda2 must be finite, got inf"),
            (["check", "--lambda3", "1e308"], "a probe margin with lambda3 is not finite"),
            (["check", "--problem", "cubic-multiplicative", "--lambda1", "1e308"],
             "a probe margin with lambda1 is not finite"),
            # only the contraction rates read m, and they run only when the
            # ergodicity condition holds; this exited 0
            (["check", "--lambda1", "1", "--m", "0"], "m must be a positive integer, got 0"),
            # a trailing separator names a directory: these wrote a file
            # newdir and files sub_<phi>, "." failed on its empty name, and
            # the dump path failed only once the noise was drawn
            (["moments", "--output", "newdir/"], "detail=[Errno 21] Is a directory: 'newdir/'"),
            (["weak-order", "--n-paths", "20", "--T", "1", "--output", "sub/"],
             "detail=[Errno 21] Is a directory: 'sub/'"),
            (["weak-order", "--n-paths", "20", "--T", "1", "--output", "."],
             "detail=[Errno 21] Is a directory: '.'"),
            (["simulate", "--K", "1", "--dump-path", "dump/"], "detail=[Errno 21] Is a directory: 'dump/'"),
        ],
        ids=["moments-x0", "moments-theta2", "moments-theta1", "check-nan", "check-inf",
             "contraction-x", "contraction-y", "ergodicity-initial", "weak-order-subnormal",
             "simulate-subnormal", "ergodicity-m10", "weak-order-overflow", "simulate-m0",
             "check-m0", "simulate-theta1", "ergodicity-theta1", "contraction-theta1",
             "weak-order-cubic-a", "contraction-cubic-b", "check-cubic-a", "check-seed-negative",
             "check-seed-2^64", "ergodicity-seed-2^64", "simulate-index-2^64",
             "moments-grid-overflow", "moments-grid-bound", "moments-t-max-nan",
             "moments-grid-step-0", "check-probe-overflow", "simulate-m3",
             "weak-order-repeated-phi", "ergodicity-repeated-phi", "check-lambda1-inf",
             "check-lambda2-inf", "check-lambda3-overflow", "check-cubic-lambda1-overflow",
             "check-m0-not-ergodic", "moments-output-slash", "weak-order-output-slash",
             "weak-order-output-dot", "simulate-dump-path-slash"],
    )
    def test_bad_input_is_exit_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, args, message):
        # relative paths name files in tmp_path, and "." names tmp_path
        monkeypatch.chdir(tmp_path)
        if "--output" not in args:
            args = [*args, "--output", str(tmp_path / "out")]
        code = run_cli(*args)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error_code=invalid_config")
        assert message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args, message",
        [
            (["weak-order", "--bogus", "1"], "detail=unrecognized arguments: --bogus 1"),
            (["ergodicity", "--K"], "detail=argument --K: expected one argument"),
            ([], "detail=the following arguments are required: command"),
        ],
        ids=["unknown-flag", "missing-value", "no-command"],
    )
    def test_argument_errors_are_exit_2_with_the_error_line(
        self, tmp_path, monkeypatch, capsys, args, message
    ):
        # an argument error is a validation error: one error_code line
        monkeypatch.chdir(tmp_path)
        code = run_cli(*args)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error_code=invalid_config")
        assert message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args, key, value",
        [
            (["ergodicity", "--n-paths", "20", "--K", "2"], "--initials", "-1,0.5"),
            (["simulate"], "--x0", "-1e6"),
            (["contraction", "--n-paths", "20", "--K", "2"], "--y", "-2.5e-1"),
        ],
        ids=["list", "exponent", "fraction-exponent"],
    )
    def test_a_negative_value_after_an_option_is_its_value(self, tmp_path, args, key, value):
        # a word that starts with '-' and a digit after an option is its value
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert run_cli(*args, key, value, "--output", str(spaced)) == 0
        assert run_cli(*args, f"{key}={value}", "--output", str(joined)) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_unknown_scheme_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--scheme", "rk4", "--dump-path", str(tmp_path / "path.spca"),
            "--output", str(tmp_path / "t.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error_code=invalid_config")
        assert "detail=unknown scheme 'rk4'" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["moments", "--output", "{dir}"],
            ["simulate", "--K", "1", "--dump-path", "{dir}", "--output", "{file}"],
            ["check", "--config", "{dir}", "--output", "{file}"],
        ],
        ids=["output", "dump-path", "config"],
    )
    def test_a_path_that_cannot_be_opened_is_exit_2(self, tmp_path, capsys, args):
        # a directory given as a file was an IsADirectoryError traceback (exit 1)
        directory = tmp_path / "dir"
        directory.mkdir()
        paths = {"dir": str(directory), "file": str(tmp_path / "out.csv")}
        code = run_cli(*(arg.format(**paths) for arg in args))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error_code=invalid_config")
        assert "Is a directory" in err
        assert list(tmp_path.iterdir()) == [directory]
        assert list(directory.iterdir()) == []

    @pytest.mark.parametrize(
        "args, runs",
        [
            (["weak-order", "--n-paths", "20", "--T", "1", "--phis", "cos_abs,sin_sq"], "estimate_weak_errors"),
            (["ergodicity", "--phis", "cos_abs,sin_sq", "--n-paths", "20", "--K", "2"], "ergodic_mean_traces"),
            (["contraction", "--n-paths", "20", "--K", "2"], "contraction_estimate"),
            (["moments"], "exact_mean"),
            (["check"], "probe_dissipativity"),
            (["simulate"], "generate_path"),
            (["simulate", "--dump-path", "{path}", "--output", "{dir}/t.csv"], "generate_path"),
        ],
        ids=["weak-order", "ergodicity", "contraction", "moments", "check", "simulate", "dump-path"],
    )
    @pytest.mark.parametrize(
        "path, message",
        [("{dir}", "Is a directory"), ("{dir}/missing/out.csv", "No such file or directory")],
        ids=["directory", "missing-directory"],
    )
    def test_an_output_that_cannot_be_written_is_exit_2_before_any_run(
        self, tmp_path, monkeypatch, capsys, args, runs, path, message
    ):
        # every output path is checked before the run, so that a directory
        # given to several test functions does not become files d_<phi>
        # beside it, and no run is lost to a missing directory
        def run(*args, **kwargs):
            raise AssertionError(f"{runs} ran")

        monkeypatch.setattr(f"sdepca.cli.{runs}", run)
        directory = tmp_path / "dir"
        directory.mkdir()
        if "{path}" not in args:
            args = args + ["--output", "{path}"]
        paths = {"dir": directory, "path": path.format(dir=directory)}
        code = run_cli(*(arg.format(**paths) for arg in args))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error_code=invalid_config")
        assert message in err
        assert list(tmp_path.iterdir()) == [directory]
        assert list(directory.iterdir()) == []

    def test_a_test_function_file_that_is_a_directory_is_exit_2_before_any_run(
        self, tmp_path, monkeypatch, capsys
    ):
        def run(*args, **kwargs):
            raise AssertionError("estimate_weak_errors ran")

        monkeypatch.setattr("sdepca.cli.estimate_weak_errors", run)
        taken = tmp_path / "w_cos_abs.csv"
        taken.mkdir()
        code = run_cli(
            "weak-order", "--phis", "sin_sq,cos_abs", "--n-paths", "20", "--T", "1",
            "--output", str(tmp_path / "w.csv"),
        )
        assert code == 2
        assert f"Is a directory: '{taken}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [taken]

    def test_an_unreadable_config_is_exit_2(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("K = 1\n")

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(type(cfg), "read_text", denied)
        code = run_cli("simulate", "--config", str(cfg), "--output", str(tmp_path / "t.csv"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error_code=invalid_config detail=[Errno 13]")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unknown_problem_is_exit_2(self, tmp_path, capsys):
        code = run_cli("check", "--problem", "fancy", "--output", str(tmp_path / "c.csv"))
        assert code == 2
        assert "error_code=" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["weak-order", "--problem", "linear-additive", "--a", "5", "--n-paths", "20", "--T", "1"],
             "detail=problem linear-additive takes no a"),
            (["check", "--problem", "cubic-multiplicative", "--theta1", "2"],
             "detail=problem cubic-multiplicative takes no theta1"),
            (["simulate", "--b=-1"], "detail=problem linear-additive takes no b"),
        ],
        ids=["weak-order-a", "check-theta1", "simulate-b"],
    )
    def test_a_parameter_of_another_problem_is_exit_2(self, tmp_path, capsys, args, message):
        # it used to be read and ignored: the run wrote the bytes of the run
        # without it
        code = run_cli(*args, "--output", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error_code=invalid_config")
        assert message in err
        assert list(tmp_path.iterdir()) == []

    def test_a_parameter_of_another_problem_in_a_config_file_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = cubic-multiplicative\na = 2\ntheta2 = 0.5\n")
        out = tmp_path / "c.csv"
        code = run_cli(
            "contraction", "--config", str(cfg), "--n-paths", "20", "--K", "2", "--output", str(out)
        )
        assert code == 2
        assert "detail=problem cubic-multiplicative takes no theta2" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_step_size_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        # it ran every path and then crashed with ZeroDivisionError (exit 1)
        code = run_cli(
            "weak-order", "--deltas", "2^-3,2^-3", "--n-paths", "20", "--T", "1",
            "--output", str(tmp_path / "w.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error_code=invalid_config")
        assert "detail=step size 0.125 is repeated" in err
        assert list(tmp_path.iterdir()) == []


#: Each subcommand's options: exactly those that it reads.
OPTIONS = {
    "moments": {"theta1", "theta2", "x0", "output", "format", "t_max", "grid_step"},
    "weak-order": {
        "problem", "theta1", "theta2", "a", "b", "x0", "master_seed", "output", "format", "threads",
        "T", "fine_step", "deltas", "n_paths", "phis",
    },
    "ergodicity": {
        "problem", "theta1", "theta2", "a", "b", "master_seed", "output", "format", "threads",
        "initials", "K", "n_paths", "phis", "m",
    },
    "contraction": {
        "problem", "theta1", "theta2", "a", "b", "master_seed", "output", "format", "threads",
        "x", "y", "K", "n_paths", "m",
    },
    "check": {
        "problem", "theta1", "theta2", "a", "b", "master_seed", "output", "format",
        "lambda1", "lambda2", "lambda3", "p", "n_probes", "radius", "m",
    },
    "simulate": {
        "problem", "theta1", "theta2", "a", "b", "x0", "master_seed", "output",
        "K", "m", "fine_step", "path_index", "scheme", "dump_path",
    },
}


class TestOptions:
    def test_each_subcommand_takes_exactly_its_options(self):
        (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
        found = {
            name: {a.dest for a in sub._actions if a.dest not in ("help", "config")}
            for name, sub in commands.choices.items()
        }
        assert found == OPTIONS
        assert sum(len(keys) for keys in found.values()) == 79

    @pytest.mark.parametrize(
        "args",
        [
            ["moments", "--problem", "linear-additive"],
            ["moments", "--a", "1"],
            ["moments", "--b", "1"],
            ["moments", "--master-seed", "1"],
            ["moments", "--threads", "2"],
            ["ergodicity", "--x0", "1"],
            ["contraction", "--x0", "1"],
            ["check", "--x0", "1"],
            ["check", "--threads", "2"],
            ["simulate", "--threads", "2"],
            ["simulate", "--format", "csv"],
        ],
        ids=lambda args: " ".join(args[:2]),
    )
    def test_an_option_that_a_subcommand_does_not_read_is_exit_2(
        self, tmp_path, monkeypatch, capsys, args
    ):
        # each of these was accepted and changed nothing, or accepted one value
        monkeypatch.chdir(tmp_path)
        code = run_cli(*args)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error_code=invalid_config")
        assert f"detail=unrecognized arguments: {args[1]} {args[2]}" in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_value_is_exit_2(self, tmp_path, capsys):
        code = run_cli("moments", "--t-max", "soon", "--output", str(tmp_path / "m.csv"))
        assert code == 2

    def test_unknown_config_key_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key = 3\n")
        code = run_cli("moments", "--config", str(cfg), "--output", str(tmp_path / "m.csv"))
        assert code == 2

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        # explicit Euler blows up on the stiff cubic from x0 = 10
        code = run_cli(
            "simulate",
            "--problem", "cubic-multiplicative",
            "--x0", "10",
            "--scheme", "em",
            "--m", "2",
            "--K", "4",
            "--output", str(tmp_path / "t.csv"),
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error_code=numerical_failure")

    # In the two commands below every path fails.  The estimators must report
    # that as a numerical failure, counting every failed path, rather than
    # divide by zero.  The coupled pair from 1e200 solves, but the square of
    # its distance overflows.
    def test_contraction_with_every_path_failed_is_exit_3(self, tmp_path, capsys):
        code = run_cli(
            "contraction",
            "--problem", "cubic-multiplicative",
            "--x", "1e200",
            "--y", "1",
            "--n-paths", "20",
            "--K", "3",
            "--output", str(tmp_path / "c.csv"),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error_code=numerical_failure")
        assert "20 path failures out of 20 exceed the budget" in err

    def test_weak_order_whose_test_function_overflows_is_exit_3(self, tmp_path, capsys):
        # every path's endpoint is finite, but |x|^2 overflows and sin_sq is
        # NaN; this exited 0 with a report of NaN errors and n_failed 0
        code = run_cli(
            "weak-order",
            "--problem", "linear-additive",
            "--x0", "1e300",
            "--n-paths", "20",
            "--T", "1",
            "--format", "json",
            "--output", str(tmp_path / "w.json"),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error_code=numerical_failure")
        assert "20 path failures out of 20 exceed the budget; first: {'path': 0, 'phi': 'sin_sq'}" in err
        assert list(tmp_path.iterdir()) == []

    def test_weak_order_of_bounded_test_functions_from_a_huge_start(self, tmp_path):
        # |x| of an endpoint near 5e298 is finite, so cos_abs and atan_abs
        # are too; they failed every path when |x| was taken from |x|^2.
        # arctan(|x|) is pi/2 on every path, so its errors are 0
        with pytest.warns(UserWarning, match="slope undefined"):
            code = run_cli(
                "weak-order",
                "--problem", "linear-additive",
                "--x0", "1e300",
                "--n-paths", "20",
                "--T", "1",
                "--phis", "cos_abs,atan_abs",
                "--format", "json",
                "--output", str(tmp_path / "w.json"),
            )
        assert code == 0
        for phi in ("cos_abs", "atan_abs"):
            report = json.loads((tmp_path / f"w_{phi}.json").read_text())
            assert report["n_failed"] == 0

    def test_ergodicity_with_every_path_failed_is_exit_3(self, tmp_path, capsys):
        code = run_cli(
            "ergodicity",
            "--problem", "cubic-multiplicative",
            # the diffusion kick a*x + b*y overflows in the first step
            "--initials", "1e308",
            "--output", str(tmp_path / "e.csv"),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error_code=numerical_failure")
        assert "2000 path failures out of 2000 exceed the budget" in err


class TestMoments:
    def test_matches_analytic_law(self, tmp_path):
        out = tmp_path / "moments.csv"
        code = run_cli(
            "moments",
            "--theta1", "3", "--theta2", "1",
            "--t-max", "2", "--grid-step", "0.25",
            "--output", str(out),
        )
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        params = LinearAdditiveParams(3.0, 1.0, 1.0)
        assert data.shape == (9, 3)
        for t, mean, variance in data:
            assert mean == pytest.approx(exact_mean(params, t), rel=1e-12, abs=1e-15)
            assert variance == pytest.approx(exact_variance(params, t), rel=1e-12, abs=1e-15)

    def test_rejects_cubic_problem(self, tmp_path):
        # the law is that of the linear problem, which takes no --problem
        code = run_cli(
            "moments", "--problem", "cubic-multiplicative", "--output", str(tmp_path / "m.csv")
        )
        assert code == 2


class TestSimulate:
    def test_writes_trajectory_and_dump(self, tmp_path):
        out = tmp_path / "run.csv"
        dump = tmp_path / "path.spca"
        code = run_cli(
            "simulate",
            "--problem", "linear-additive",
            "--K", "2", "--m", "4",
            "--dump-path", str(dump),
            "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x_0"
        assert len(lines) == 10  # 2*4 steps + initial state + header
        fine_step, increments = read_path(dump)
        assert fine_step == 0.25
        assert increments.shape == (8, 1)

    def test_csv_round_trip_exact(self, tmp_path):
        target = tmp_path / "trajectory.csv"
        code = run_cli(
            "simulate", "--K", "2", "--m", "4", "--fine-step", "2^-2",
            "--master-seed", "2", "--path-index", "7", "--output", str(target),
        )
        assert code == 0
        grid = generate_path(2, 7, 2.0, 2.0**-2, 1)
        states = simulate("be", linear_additive(3.0, 1.0), BeConfig(m=4), grid, 2)
        header = target.read_text().splitlines()[0]
        assert header == "t,x_0"
        data = np.loadtxt(target, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 1], states[:, 0])
        np.testing.assert_array_equal(data[:, 0], np.arange(9) / 4)

    def test_json_format_rejected(self, tmp_path):
        # a trajectory is written as csv alone, so simulate takes no --format
        code = run_cli("simulate", "--format", "json", "--output", str(tmp_path / "t.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "x0", ["1e6", "1e15", "1e30", "1e52", "1e60", "1e102", "1e110", "1e300"]
    )
    def test_large_start_solves_to_the_rounding_floor(self, tmp_path, x0):
        # From 1e6 the first block's anchor makes -x^3 and 2y cancel near
        # 2e6, so some states cannot meet an absolute residual of 1e-12;
        # each must meet the BE equation at least to its rounding floor.
        # The solve starts at the problem's closed-form root.  From the
        # right-hand side instead, Newton needed about 60 and 115 iterations
        # from 1e15 and 1e30, ran out of its 200 from 1e60 and 1e102, and
        # overflowed the cube from 1e110 and 1e300.
        out, dump = tmp_path / "run.csv", tmp_path / "path.spca"
        code = run_cli(
            "simulate",
            "--problem", "cubic-multiplicative",
            "--x0", x0,
            "--dump-path", str(dump),
            "--output", str(out),
        )
        assert code == 0
        x = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        _, increments = read_path(dump)
        m, delta, eps = 16, 1.0 / 16, np.finfo(float).eps
        assert x.shape == (5 * m + 1,)
        beyond_tol = 0
        for n in range(5 * m):
            x_new, y = x[n + 1], x[n // m * m]
            rhs = x[n] + (x[n] + y) * increments[n, 0]
            f = -(x_new * x_new * x_new) - 10.0 * x_new + 2.0 * y + 1.0
            jac = -3.0 * x_new**2 - 10.0
            residual = abs(x_new - delta * f - rhs)
            floor = 4.0 * eps * (abs(x_new) + abs(rhs) + delta * (abs(f) + abs(jac * x_new)))
            assert residual <= max(1e-12, floor), (n, x_new, residual, floor)
            beyond_tol += residual > 1e-12
        assert beyond_tol > 0  # the floor, not the absolute tolerance, decided


class TestWeakOrder:
    ARGS = (
        "weak-order",
        "--T", "1",
        "--n-paths", "24",
        "--fine-step", "2^-7",
        "--deltas", "2^-3,2^-4",
        "--phis", "cos_abs",
        "--master-seed", "7",
    )

    def test_json_contains_slope(self, tmp_path):
        out = tmp_path / "weak.json"
        code = run_cli(*self.ARGS, "--format", "json", "--output", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["phi"] == "cos_abs"
        assert isinstance(payload["fitted_slope"], float)
        assert len(payload["errors"]) == 2

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "weak.csv"
        code = run_cli(*self.ARGS, "--output", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,error,ci_half_width"
        assert len(lines) == 3

    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(*self.ARGS, "--format", "json", "--output", str(a))
        run_cli(*self.ARGS, "--format", "json", "--threads", "3", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_multiple_phis_fan_out(self, tmp_path):
        out = tmp_path / "weak.json"
        code = run_cli(
            "weak-order",
            "--T", "1",
            "--n-paths", "8",
            "--fine-step", "2^-6",
            "--deltas", "2^-3,2^-4",
            "--phis", "cos_abs,sin_sq",
            "--format", "json",
            "--output", str(out),
        )
        assert code == 0
        assert (tmp_path / "weak_cos_abs.json").exists()
        assert (tmp_path / "weak_sin_sq.json").exists()

    def test_stdout_flags_an_unresolved_mean_gap(self, tmp_path, capsys):
        # on 200 paths the finest cos_abs gap is beyond its half-width and
        # the sin_sq gap is not; the report files stay as they were
        code = run_cli(
            "weak-order",
            "--T", "1",
            "--n-paths", "200",
            "--fine-step", "2^-6",
            "--deltas", "2^-1,2^-2",
            "--phis", "cos_abs,sin_sq",
            "--master-seed", "7",
            "--format", "json",
            "--output", str(tmp_path / "weak.json"),
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        flagged = []
        for phi, line in zip(("cos_abs", "sin_sq"), lines):
            payload = json.loads((tmp_path / f"weak_{phi}.json").read_text())
            assert "gap_resolved" not in payload
            assert line.startswith(
                f"weak-order[{phi}]: slope={payload['fitted_slope']:.4f}"
                f" mean_gap_slope={payload['mean_gap_slope']:.4f}"
            )
            if payload["mean_gaps"][-1] <= payload["mean_gap_half_widths"][-1]:
                flagged.append(phi)
            assert ("(unresolved: finest mean gap within its 95% half-width)" in line) == (phi in flagged)
        assert flagged == ["sin_sq"]


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# moments preset\n"
            "theta1 = 3\n"
            "theta2 = 1\n"
            "t_max = 2.0\n"
            "grid_step = 1.0\n"
        )
        out = tmp_path / "m.csv"
        code = run_cli("moments", "--config", str(cfg), "--grid-step", "0.5", "--output", str(out))
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (5, 3)  # flag override wins: 0.5 grid over [0, 2]

    def test_ergodicity_smoke(self, tmp_path):
        out = tmp_path / "erg.csv"
        code = run_cli(
            "ergodicity",
            "--initials=-1,1",
            "--K", "3",
            "--n-paths", "16",
            "--m", "4",
            "--phis", "atan_abs",
            "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,trace_0,trace_1,spread"
        assert len(lines) == 5

    def test_ergodicity_phis_fan_out_as_single_runs(self, tmp_path, capsys):
        # the test functions share one run of the chains; each file and
        # stdout line is that of a run with its test function alone
        args = ("ergodicity", "--initials=-1,1", "--K", "3", "--n-paths", "16", "--m", "4", "--format", "json")
        both = tmp_path / "both"
        both.mkdir()
        assert run_cli(*args, "--phis", "atan_abs,sin_sq", "--output", str(both / "erg.json")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(p.name for p in both.iterdir()) == ["erg_atan_abs.json", "erg_sin_sq.json"]
        for phi, line in zip(("atan_abs", "sin_sq"), lines):
            fanned, single = both / f"erg_{phi}.json", tmp_path / f"{phi}.json"
            assert run_cli(*args, "--phis", phi, "--output", str(single)) == 0
            assert fanned.read_bytes() == single.read_bytes()
            assert line.replace(str(fanned), str(single)) == capsys.readouterr().out.strip()

    def test_contraction_smoke(self, tmp_path):
        out = tmp_path / "con.json"
        code = run_cli(
            "contraction",
            "--problem", "cubic-multiplicative",
            "--K", "4",
            "--n-paths", "16",
            "--m", "4",
            "--format", "json",
            "--output", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["bound"] is not None
        assert len(payload["mean_sq_diffs"]) == 5
