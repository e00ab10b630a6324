"""Command-line surface: arguments, outputs, files, and exit codes."""

import warnings

import numpy as np
import pytest

from lcco_ipm import (
    ObjectiveSpec,
    Problem,
    StartPoint,
    TRACE_HEADER,
    serialize_instance,
)
from lcco_ipm.cli import SWEEP_HEADER, _EXIT_BY_STATUS, main


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "small.lcco"
    code = main(
        [
            "generate",
            "--n", "4",
            "--m", "2",
            "--objective", "linear",
            "--seed", "7",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


def write_startless(tmp_path):
    p = Problem(
        A=[[1.0, 1.0]],
        b=[2.0],
        objective=ObjectiveSpec.linear([1.0, 2.0]),
    )
    path = tmp_path / "bare.lcco"
    path.write_text(serialize_instance(p))
    return path


def write_bad_start(tmp_path):
    # Feasible but far off center: proximity 0.66, above the 1/e gate.
    p = Problem(
        A=[[1.0, 1.0]],
        b=[2.0],
        objective=ObjectiveSpec.linear([1.0, 2.0]),
        start=StartPoint(x0=[1.9, 0.1], y0=[0.0], z0=[1.0, 2.0]),
    )
    path = tmp_path / "offcenter.lcco"
    path.write_text(serialize_instance(p))
    return path


class TestExitCodes:
    def test_status_mapping_is_the_documented_contract(self):
        assert _EXIT_BY_STATUS == {
            "converged": 0,
            "invalid_start": 2,
            "numerical_failure": 3,
            "iteration_cap": 4,
        }

    def test_usage_errors_exit_one(self, tmp_path, instance_path, capsys):
        assert main(["solve", str(instance_path), "--r", "0"]) == 1
        assert main(["solve", str(tmp_path / "missing.lcco")]) == 1
        assert main(["sweep", str(instance_path), "--r-max", "13",
                     "--out", str(tmp_path / "s.csv")]) == 1
        assert main(["solve", str(instance_path), "--theta", "abc"]) == 1
        assert main(["sweep", str(instance_path), "--r-max", "2",
                     "--out", str(tmp_path / "s.csv"), "--jobs", "2"]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 5

    def test_malformed_instance_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.lcco"
        path.write_text("LCCO 1\nn 2\nm oops\n")
        assert main(["solve", str(path)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_huge_declared_shape_is_a_parse_error(self, tmp_path, capsys):
        # The header asks for 2e12 entries; the parser must fail on the
        # first short row, not allocate what the header declares.
        path = tmp_path / "huge.lcco"
        path.write_text("LCCO 1\nn 2000000\nm 1000000\nA\n1 1\n")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 5, column 1" in err
        assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    def test_missing_start_exits_two(self, tmp_path, capsys):
        path = write_startless(tmp_path)
        assert main(["solve", str(path)]) == 2
        assert "no start block" in capsys.readouterr().err

    def test_inadmissible_start_exits_two(self, tmp_path, capsys):
        path = write_bad_start(tmp_path)
        assert main(["solve", str(path)]) == 2
        assert "status: invalid_start" in capsys.readouterr().out

    def test_zero_gap_start_exits_two_without_a_traceback(self, tmp_path, capsys):
        # x0 = 0 parses, but gives mu0 = 0: no relative gap to print.
        p = Problem(
            A=[[1.0, 1.0, 1.0]],
            b=[0.0],
            objective=ObjectiveSpec.linear([1.0, 2.0, 3.0]),
            start=StartPoint(x0=[0.0, 0.0, 0.0], y0=[0.0], z0=[1.0, 2.0, 3.0]),
        )
        path = tmp_path / "boundary.lcco"
        path.write_text(serialize_instance(p))
        assert "x 0 0 0" in path.read_text()
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert "status: invalid_start" in captured.out
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "start",
        [{"z 1 1 1 1": "z 1e308 1e308 1 1"},  # x0'z0 overflows: mu0 = inf
         {"x 1 1 1 1": "x" + " 1e-200" * 4, "z 1 1 1 1": "z" + " 1e-200" * 4},  # mu0 = 0
         # mu0 = 3/4, but x0_1 z0_1 / mu0 underflows to w_1 = 0
         {"x 1 1 1 1": "x 1e-200 1 1 1", "z 1 1 1 1": "z 1e-200 1 1 1"}],
    )
    @pytest.mark.parametrize("command", [["solve"], ["sweep", "--r-max", "2"]])
    def test_start_without_a_finite_barrier_value_exits_two(
        self, instance_path, tmp_path, capsys, start, command
    ):
        text = instance_path.read_text()
        for line, extreme in start.items():
            assert line in text
            text = text.replace(line, extreme)
        path = tmp_path / "extreme.lcco"
        path.write_text(text)
        out = ["--out", str(tmp_path / "sweep.csv")] if command[0] == "sweep" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command[0], str(path), *command[1:], *out]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "nan" not in captured.out
        if command[0] == "solve":
            assert "status: invalid_start" in captured.out
            assert captured.err == ""
        else:
            assert (tmp_path / "sweep.csv").read_text().count("invalid_start") == 2

    def test_iteration_cap_exits_four(self, instance_path, capsys):
        assert main(["solve", str(instance_path), "--max-iter", "1"]) == 4
        assert "status: iteration_cap" in capsys.readouterr().out


class TestGenerate:
    def test_writes_a_deterministic_instance(self, tmp_path, capsys):
        a = tmp_path / "a.lcco"
        b = tmp_path / "b.lcco"
        for path in (a, b):
            code = main(
                [
                    "generate",
                    "--n", "6",
                    "--m", "3",
                    "--objective", "quadratic",
                    "--seed", "5",
                    "--out", str(path),
                ]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert "wrote" in capsys.readouterr().out

    def test_rejects_impossible_shapes(self, tmp_path, capsys):
        # n = 2**50 asks for 8 PiB, beyond the 47-bit user address space,
        # so the allocation is refused without touching memory.
        for n, m in (("4", "4"), (str(2**50), "1")):
            code = main(
                [
                    "generate",
                    "--n", n,
                    "--m", m,
                    "--objective", "linear",
                    "--seed", "1",
                    "--out", str(tmp_path / "x.lcco"),
                ]
            )
            assert code == 1
        assert capsys.readouterr().err.count("error:") == 2


class TestSolve:
    def test_summary_and_trace(self, tmp_path, instance_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code = main(
            ["solve", str(instance_path), "--trace", str(trace_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "status: converged after 217 iterations" in out
        assert "(theoretical bound 225" in out
        lines = trace_path.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 218

    def test_check_agrees_with_the_reference(self, instance_path, capsys):
        code = main(["solve", str(instance_path), "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kkt:" in out
        assert "-> agree" in out

    def test_singular_oracle_system_gives_no_certificate(
        self, instance_path, capsys, monkeypatch
    ):
        # An exact zero pivot inside the enumeration raises numpy's own error.
        from lcco_ipm import cli

        def singular(problem):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "reference_solve_lp", singular)
        code = main(["solve", str(instance_path), "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: converged" in out
        assert out.endswith("reference: no certificate (Singular matrix)\n")

    def test_check_skips_reference_on_failed_runs(self, instance_path, capsys):
        code = main(
            ["solve", str(instance_path), "--max-iter", "1", "--check"]
        )
        out = capsys.readouterr().out
        assert code == 4
        assert "reference: skipped" in out

    def test_r_flag_changes_the_run(self, instance_path, capsys):
        code = main(["solve", str(instance_path), "--r", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: converged after 1653 iterations" in out

    def test_explicit_theta_flag(self, instance_path, capsys):
        code = main(["solve", str(instance_path), "--theta", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "theta=0.05" in out
        assert "(auto)" not in out


class TestCheckAboveTheEnumerationCaps:
    def generate(self, tmp_path, n, m, objective):
        path = tmp_path / f"{objective}_{n}.lcco"
        assert main(["generate", "--n", str(n), "--m", str(m), "--objective",
                     objective, "--seed", "3", "--out", str(path)]) == 0
        return path

    def test_large_lp_is_checked_against_highs(self, tmp_path, capsys):
        path = self.generate(tmp_path, 50, 25, "linear")
        assert main(["solve", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        verdict = [line for line in out.splitlines() if line.startswith("reference")]
        assert len(verdict) == 1
        assert verdict[0].startswith("reference (highs): objective ")
        assert verdict[0].endswith("-> agree")

    def test_highs_without_an_optimum_gives_no_certificate(
        self, tmp_path, capsys, monkeypatch
    ):
        import scipy.optimize

        def no_optimum(*args, **kwargs):
            return scipy.optimize.OptimizeResult(
                status=2, message="The problem is infeasible."
            )

        monkeypatch.setattr(scipy.optimize, "linprog", no_optimum)
        path = self.generate(tmp_path, 13, 6, "linear")
        assert main(["solve", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "reference: no certificate (The problem is infeasible.)" in out

    def test_large_qp_is_still_skipped(self, tmp_path, capsys):
        path = self.generate(tmp_path, 11, 5, "quadratic")
        assert main(["solve", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "reference: skipped (n=11 exceeds the enumeration limit)" in out


class TestSweep:
    def test_rows_argmin_and_determinism(self, tmp_path, instance_path, capsys):
        out_a = tmp_path / "sweep_a.csv"
        out_b = tmp_path / "sweep_b.csv"
        for out_path in (out_a, out_b):
            code = main(
                ["sweep", str(instance_path), "--r-max", "3",
                 "--out", str(out_path)]
            )
            assert code == 0
        stdout = capsys.readouterr().out
        assert "fewest iterations at r=1 (217 iterations)" in stdout
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["1", "2", "3"]
        iteration_counts = [int(row[2]) for row in rows]
        assert iteration_counts[0] == min(iteration_counts)
        assert all(row[7] == "converged" for row in rows)
        for row in rows:
            assert int(row[2]) <= int(row[3])

    def test_failed_rows_propagate_their_exit_code(self, tmp_path):
        path = write_bad_start(tmp_path)
        out_path = tmp_path / "rejected.csv"
        code = main(
            ["sweep", str(path), "--r-max", "2", "--out", str(out_path)]
        )
        assert code == 2
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        assert all(line.split(",")[7] == "invalid_start" for line in lines[1:])


class TestRoundTrip:
    def test_generated_file_solves_from_disk(self, tmp_path, capsys):
        # Quadratic end to end: generate, solve with check, verify verdict.
        path = tmp_path / "quad.lcco"
        assert main(
            [
                "generate",
                "--n", "6",
                "--m", "3",
                "--objective", "quadratic",
                "--seed", "5",
                "--out", str(path),
            ]
        ) == 0
        assert main(["solve", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "-> agree" in out
