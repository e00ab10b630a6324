"""Command-line surface: arguments, outputs, files, and exit codes."""

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
        err = capsys.readouterr().err
        assert err.count("error:") == 4

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

    def test_rejects_impossible_shapes(self, tmp_path):
        code = main(
            [
                "generate",
                "--n", "4",
                "--m", "4",
                "--objective", "linear",
                "--seed", "1",
                "--out", str(tmp_path / "x.lcco"),
            ]
        )
        assert code == 1


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

    def test_parallel_jobs_match_serial(self, tmp_path, instance_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(
            ["sweep", str(instance_path), "--r-max", "2", "--out", str(serial)]
        ) == 0
        assert main(
            ["sweep", str(instance_path), "--r-max", "2",
             "--out", str(parallel), "--jobs", "3"]
        ) == 0
        assert serial.read_bytes() == parallel.read_bytes()

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
