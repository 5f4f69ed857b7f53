import json

import numpy as np
import pytest

from sdepca.brownian import read_path
from sdepca.cli import main
from sdepca.linear_analytic import LinearAdditiveParams, exact_mean, exact_variance


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

    def test_unknown_problem_is_exit_2(self, tmp_path, capsys):
        code = run_cli("moments", "--problem", "fancy", "--output", str(tmp_path / "m.csv"))
        assert code == 2
        assert "error_code=" in capsys.readouterr().err

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

    # In the two commands below every path starts at 1e200, whose cube
    # overflows, so the implicit solve fails on every path whatever its
    # tolerance.  The estimators must report that as a numerical failure,
    # counting every failed path, rather than divide by zero.
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

    def test_ergodicity_with_every_path_failed_is_exit_3(self, tmp_path, capsys):
        code = run_cli(
            "ergodicity",
            "--problem", "cubic-multiplicative",
            "--initials", "1e200",
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

    def test_json_format_rejected(self, tmp_path):
        code = run_cli("simulate", "--format", "json", "--output", str(tmp_path / "t.json"))
        assert code == 2

    @pytest.mark.parametrize("x0", ["1e6", "1e15", "1e30", "1e52"])
    def test_large_start_solves_to_the_rounding_floor(self, tmp_path, x0):
        # From 1e6 the first block's anchor makes -x^3 and 2y cancel near
        # 2e6, so some states cannot meet an absolute residual of 1e-12;
        # each must meet the BE equation at least to its rounding floor.
        # From 1e15 and 1e30 the first solve needs about 60 and 115 Newton
        # iterations.  From 1e52 the first residual, about 6e154, has a
        # square that overflows.
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
            "--phi", "atan_abs",
            "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,trace_0,trace_1,spread"
        assert len(lines) == 5

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
