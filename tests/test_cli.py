"""Command-line surface: payload shapes, exit codes, determinism, csv forms."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import faberfib
from faberfib import ABS_TAU, parse_qsqrt5, parse_scalar
from faberfib.cli import MAX_BELL_N, MAX_FIB_COUNT, main
from faberfib.exact import MAX_SCALAR_NESTING

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run_json(capsys, *argv):
    """Run a request that must succeed; parse its stdout as strict JSON."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out, parse_constant=reject_constant)


def run_usage_error(capsys, *argv):
    """Run a request that must fail with exit 2; return its JSON error object."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError"
    return error


class TestHappyPaths:
    def test_revert_example(self, capsys):
        payload = run_json(capsys, "revert", "--coeffs", "0,1,1,1,1")
        assert payload["command"] == "revert"
        assert payload["order"] == 4
        assert payload["coefficients"] == ["0", "1", "-1", "1", "-1"]

    def test_inverse_matches_revert(self, capsys):
        inverse = run_json(capsys, "inverse", "--coeffs", "0,1,1,1,1", "--order", "4")
        revert = run_json(capsys, "revert", "--coeffs", "0,1,1,1,1")
        assert inverse["coefficients"] == revert["coefficients"]

    def test_bell(self, capsys):
        payload = run_json(capsys, "bell", "--n", "3", "--m", "2", "--coeffs", "1,1/2,5")
        assert parse_scalar(payload["value"]) == 1  # 2 * u_1 * u_2 = 1

    def test_faber_k(self, capsys):
        payload = run_json(capsys, "faber-k", "--n", "1", "--p", "-2", "--coeffs", "1,3,0")
        assert payload["value"] == "-6"

    def test_fib(self, capsys):
        payload = run_json(capsys, "fib", "--count", "10")
        assert payload["values"] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_ptilde_exact(self, capsys):
        payload = run_json(capsys, "ptilde", "--order", "4")
        table = payload["coefficients"]
        assert [row["exact"] for row in table] == [
            "1/2 - 1/2*sqrt5",
            "9/2 - 3/2*sqrt5",
            "8 - 4*sqrt5",
            "49/2 - 21/2*sqrt5",
        ]

    def test_ptilde_float(self, capsys):
        payload = run_json(capsys, "ptilde", "--order", "2", "--format", "float")
        assert abs(payload["coefficients"][0]["float"] + 0.6180339887498949) < 1e-15

    def test_ptilde_eval_exact(self, capsys):
        payload = run_json(capsys, "ptilde-eval", "--z", "1/4 + 1/4*sqrt5")
        assert payload["mode"] == "exact"
        assert payload["exact"] == "1"
        assert payload["re"] == 1.0 and payload["im"] == 0.0

    def test_ptilde_eval_numeric(self, capsys):
        payload = run_json(capsys, "ptilde-eval", "--z", "0.1,0.2")
        assert payload["mode"] == "numeric"
        assert payload["precision"] == 128
        assert abs(complex(payload["re"], payload["im"])) > 0

    def test_schwarz_solve(self, capsys):
        payload = run_json(capsys, "schwarz-solve", "--coeffs", "1,0,0")
        candidate = payload["candidate"]
        assert candidate["coefficients"] == ["0", "0"]
        assert candidate["feasible"] is True

    def test_tremblay(self, capsys):
        payload = run_json(
            capsys, "tremblay", "--coeffs", "0,1,1", "--mu", "1/2", "--rho", "1/4"
        )
        assert payload["in_definition_window"] is True
        assert payload["coefficients"] == ["0", "2", "12/5"]

    def test_class_lhs(self, capsys):
        payload = run_json(
            capsys, "class-lhs", "--coeffs", "0,1,1/10",
            "--gamma", "1", "--mu", "1", "--rho", "1",
        )
        assert payload["coefficients"] == ["1", "1/5"]

    def test_witness_consistent(self, capsys):
        payload = run_json(
            capsys, "witness", "--coeffs", "0,1,1/10,1/20,1/50",
            "--gamma", "1", "--mu", "1", "--rho", "1",
        )
        assert payload["verdict"] == "consistent-to-order-4"
        assert payload["map_candidate"]["feasible"] is True
        assert payload["map_candidate"]["coefficients"][0] == "-1/10 - 1/10*sqrt5"

    def test_witness_violated(self, capsys):
        payload = run_json(
            capsys, "witness", "--coeffs", "0,1,10,0",
            "--gamma", "1", "--mu", "1", "--rho", "1",
        )
        assert payload["verdict"] == "necessary-condition-violated"

    def test_bound_theorem1(self, capsys):
        payload = run_json(
            capsys, "bound", "--theorem", "1", "--n", "3",
            "--gamma", "1", "--mu", "1", "--rho", "1",
        )
        assert payload["kind"] == "general-coefficient"
        assert payload["exact"] == "-1/6 + 1/6*sqrt5"
        assert parse_qsqrt5(payload["exact"]) == ABS_TAU / 3
        assert abs(payload["bound_float"] - 0.2060113295832983) < 1e-14
        assert payload["error_bound"] < 1e-14
        assert "branch" not in payload

    def test_bound_theorem2_both(self, capsys):
        payload = run_json(
            capsys, "bound", "--theorem", "2",
            "--gamma", "1", "--mu", "1", "--rho", "1",
        )
        a2, a3 = payload["bounds"]
        assert a2["branch"] == "first"
        assert abs(a2["bound_float"] - 0.1998623747707316) < 1e-12
        assert a3["branch"] == "second"
        assert a3["second_bracket_negative"] is True
        assert {b["label"] for b in a3["branches"]} == {"first", "second"}

    def test_check_corollaries(self, capsys):
        payload = run_json(capsys, "check-corollaries", "--which", "all")
        assert payload["all_pass"] is True
        assert len(payload["rows"]) == 25
        assert all(row["pass"] for row in payload["rows"])

    def test_check_corollaries_custom_grid(self, capsys):
        payload = run_json(
            capsys, "check-corollaries", "--which", "1",
            "--gammas", "1,2+i", "--ns", "3,4",
        )
        assert payload["all_pass"] is True
        assert len(payload["rows"]) == 4


class TestFloatFormat:
    def test_revert_floats(self, capsys):
        payload = run_json(capsys, "revert", "--coeffs", "0,1,1,1,1", "--format", "float")
        assert payload["coefficients"] == [0.0, 1.0, -1.0, 1.0, -1.0]

    def test_complex_coefficients_become_pairs(self, capsys):
        payload = run_json(
            capsys, "class-lhs", "--coeffs", "0,1,1/10",
            "--gamma", "i", "--mu", "1", "--rho", "1", "--format", "float",
        )
        leading = payload["coefficients"][1]
        assert abs(leading["re"]) < 1e-15 and abs(leading["im"] + 0.2) < 1e-15


class TestCsv:
    def test_fib_csv(self, capsys):
        code, out, err = run_cli(capsys, "fib", "--count", "3", "--output", "csv")
        assert code == 0
        assert out == "n,value\n0,0\n1,1\n2,1\n3,2\n"

    def test_bound_csv_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--theorem", "2", "--gamma", "1",
            "--mu", "1", "--rho", "1", "--output", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,gamma,mu,rho,branch,exact,float,error_bound"
        assert len(lines) == 3
        assert lines[1].startswith("2,1,1,1,first,")
        assert lines[2].startswith("3,1,1,1,second,")

    def test_theorem1_csv_has_empty_branch(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--theorem", "1", "--n", "4", "--gamma", "2",
            "--mu", "1", "--rho", "1", "--output", "csv",
        )
        assert code == 0
        row = out.strip().split("\n")[1]
        assert row.startswith("4,2,1,1,,")

    def test_ptilde_csv(self, capsys):
        code, out, _ = run_cli(capsys, "ptilde", "--order", "2", "--output", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,exact,float"
        assert lines[1] == "1,1/2 - 1/2*sqrt5,-0.6180339887498949"

    def test_corollary_csv(self, capsys):
        code, out, _ = run_cli(capsys, "check-corollaries", "--which", "2", "--output", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "corollary,bound,gamma,n,expected,actual,pass"
        assert len(lines) == 4

    def test_csv_unsupported(self, capsys):
        error = run_usage_error(capsys, "revert", "--coeffs", "0,1,0", "--output", "csv")
        assert "no csv form" in error["message"]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        run_usage_error(capsys, "frobnicate")

    def test_unknown_flag(self, capsys):
        run_usage_error(capsys, "fib", "--count", "3", "--frob")

    def test_malformed_scalar(self, capsys):
        run_usage_error(capsys, "revert", "--coeffs", "0,1,zebra")

    def test_theorem1_needs_n(self, capsys):
        error = run_usage_error(
            capsys, "bound", "--theorem", "1", "--gamma", "1", "--mu", "1", "--rho", "1"
        )
        assert "--n" in error["message"]

    def test_domain_errors_are_json(self, capsys):
        code, out, err = run_cli(
            capsys, "class-lhs", "--coeffs", "0,1,0",
            "--gamma", "0", "--mu", "1", "--rho", "1",
        )
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert "gamma" in error["message"]

    def test_pole_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "ptilde-eval", "--z", "-1")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "ZeroDivisionError"

    def test_nonnormalized_revert(self, capsys):
        code, _, err = run_cli(capsys, "revert", "--coeffs", "0,2,0")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_bad_order_values(self, capsys):
        assert run_cli(capsys, "ptilde", "--order", "0")[0] == 3
        assert run_cli(capsys, "fib", "--count", "-1")[0] == 3
        assert run_cli(
            capsys, "bound", "--theorem", "1", "--n", "2",
            "--gamma", "1", "--mu", "1", "--rho", "1",
        )[0] == 3

    def test_precision_floor(self, capsys):
        run_usage_error(capsys, "ptilde", "--order", "2", "--precision", "52")

    def test_precision_budget(self, capsys):
        assert run_cli(capsys, "fib", "--count", "2", "--precision", "32768")[0] == 0
        error = run_usage_error(capsys, "fib", "--count", "2", "--precision", "32769")
        assert "at most 32768" in error["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("ptilde-eval", "--z", "1/0"),
            ("ptilde-eval", "--z", "(1/0)*i"),
            ("revert", "--coeffs", "0,1,1/0"),
            ("class-lhs", "--coeffs", "0,1,0", "--gamma", "1/0", "--mu", "1", "--rho", "1"),
            ("class-lhs", "--coeffs", "0,1,0", "--gamma", "1", "--mu", "2/0", "--rho", "1"),
        ],
    )
    def test_zero_denominator_is_usage_error(self, capsys, argv):
        assert "zero denominator" in run_usage_error(capsys, *argv)["message"]

    @pytest.mark.parametrize("point", ["nan", "inf", "-inf", "1e400,0", "0,nan", "nanj"])
    def test_nonfinite_point_is_usage_error(self, capsys, point):
        assert "not finite" in run_usage_error(capsys, "ptilde-eval", f"--z={point}")["message"]


def nested(depth, body="1/2"):
    return "(" * depth + body + ")" * depth


class TestBudgets:
    def test_scalar_nesting_at_budget_parses(self, capsys):
        payload = run_json(capsys, "revert", "--coeffs", f"0,1,{nested(MAX_SCALAR_NESTING)}")
        assert payload["coefficients"] == ["0", "1", "-1/2"]

    @pytest.mark.parametrize("depth", [MAX_SCALAR_NESTING + 1, 300])
    def test_scalar_nesting_past_budget_is_usage_error(self, capsys, depth):
        error = run_usage_error(capsys, "revert", "--coeffs", f"0,1,{nested(depth)}")
        assert "nests parentheses deeper" in error["message"]
        run_usage_error(
            capsys, "class-lhs", "--coeffs", "0,1,0",
            "--gamma", nested(depth), "--mu", "1", "--rho", "1",
        )
        error = run_usage_error(capsys, "ptilde-eval", "--z", nested(depth))
        assert f"nests parentheses deeper than {MAX_SCALAR_NESTING} levels" in error["message"]
        assert nested(depth) not in error["message"]

    def test_fib_count_budget(self, capsys):
        code, out, err = run_cli(capsys, "fib", "--count", str(MAX_FIB_COUNT + 1))
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert str(MAX_FIB_COUNT) in error["message"]

    def test_bell_n_at_budget(self, capsys):
        # m = n and m = 1 each have a single partition, so the budget itself runs at once
        coeffs = ",".join(str(k) for k in range(2, MAX_BELL_N + 2))
        for m, expected in ((MAX_BELL_N, str(2**MAX_BELL_N)), (1, str(MAX_BELL_N + 1))):
            code, out, _ = run_cli(capsys, "bell", "--n", str(MAX_BELL_N), "--m", str(m),
                                   "--coeffs", coeffs)
            assert code == 0
            assert json.loads(out)["value"] == expected

    def test_bell_n_budget_checked_before_partitions(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("partial_bell ran past the budget")

        monkeypatch.setattr(faberfib.cli, "partial_bell", unreachable)
        coeffs = ",".join(["1"] * (MAX_BELL_N + 1))
        code, out, err = run_cli(capsys, "bell", "--n", str(MAX_BELL_N + 1), "--m", "1",
                                 "--coeffs", coeffs)
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert str(MAX_BELL_N) in error["message"]

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-text digit limit"
    )
    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_unrenderable_output_is_domain_error(self, capsys, output):
        # F_3100 has 648 digits, past a 640-digit int-to-text limit
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, "fib", "--count", "3100", "--output", output)
        finally:
            sys.set_int_max_str_digits(saved)
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert "digits" in error["message"]


class TestPrecisionEnv:
    def test_env_default_applied(self, capsys, monkeypatch):
        monkeypatch.setenv("FABERFIB_PRECISION", "256")
        payload = run_json(
            capsys, "bound", "--theorem", "1", "--n", "3",
            "--gamma", "1", "--mu", "1", "--rho", "1",
        )
        assert payload["precision"] == 256

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FABERFIB_PRECISION", "256")
        payload = run_json(
            capsys, "bound", "--theorem", "1", "--n", "3", "--precision", "64",
            "--gamma", "1", "--mu", "1", "--rho", "1",
        )
        assert payload["precision"] == 64

    def test_env_validation(self, capsys, monkeypatch):
        monkeypatch.setenv("FABERFIB_PRECISION", "10")
        run_usage_error(capsys, "fib", "--count", "2")
        monkeypatch.setenv("FABERFIB_PRECISION", "zebra")
        run_usage_error(capsys, "fib", "--count", "2")
        monkeypatch.setenv("FABERFIB_PRECISION", "32769")
        assert "at most 32768" in run_usage_error(capsys, "fib", "--count", "2")["message"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("ptilde", "--order", "6"),
            ("check-corollaries", "--which", "all"),
            ("bound", "--theorem", "2", "--gamma", "2+i", "--mu", "1", "--rho", "1"),
            ("witness", "--coeffs", "0,1,1/10,1/20", "--gamma", "3/2", "--mu", "1/2",
             "--rho", "1/4"),
        ],
    )
    def test_repeat_runs_identical(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        assert first[0] == 0

    def test_exact_strings_reparse(self, capsys):
        payload = run_json(
            capsys, "bound", "--theorem", "2", "--gamma", "3",
            "--mu", "1/2", "--rho", "1/4",
        )
        for bound in payload["bounds"]:
            for branch in bound["branches"]:
                if branch["exact"] is None:
                    continue
                text = branch["exact"]
                if text.startswith("sqrt("):
                    inner = parse_qsqrt5(text[len("sqrt(") : -1])
                    assert inner.sign() >= 0
                else:
                    assert parse_qsqrt5(text).sign() >= 0


def check_console_script(exe, env=None):
    """Run a `faberfib` executable in its own process: one success, one usage error."""
    ok = subprocess.run(
        [exe, "fib", "--count", "3"], capture_output=True, text=True, timeout=60, env=env
    )
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["values"] == [0, 1, 1, 2]
    bad = subprocess.run(
        [exe, "fib", "--count", "x"], capture_output=True, text=True, timeout=60, env=env
    )
    assert bad.returncode == 2, bad.stderr
    assert bad.stdout == ""
    assert json.loads(bad.stderr)["error"]["type"] == "UsageError"


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        """The script `[project.scripts]` declares, as an installer would write it.

        The wrapper imports the declared target and hands its return value to
        `sys.exit`, so the exit code seen here is the one a shell would see.
        It runs the `faberfib` package this suite imports, with no install.
        """
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert "faberfib" in scripts
        module, attr = scripts["faberfib"].split(":")

        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        wrapper = bin_dir / "faberfib"
        wrapper.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        wrapper.chmod(0o755)

        package_root = str(Path(faberfib.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        exe = shutil.which("faberfib", path=env["PATH"])
        assert exe == str(wrapper)
        check_console_script(exe, env)

    @pytest.mark.skipif(
        shutil.which("faberfib") is None, reason="faberfib console script not installed"
    )
    def test_console_script_on_path(self):
        """The script a real install put on PATH."""
        check_console_script(shutil.which("faberfib"))
