"""The experiment scripts under scripts/, driven through their main()."""

import hashlib
import importlib.util
import itertools
import re
from pathlib import Path

import pytest

from lcco_ipm import SolverConfig, generate_instance, solve, trace_to_csv
from lcco_ipm import solver as solver_module

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inequality_scan_prints_the_range_its_verdict_grades(capsys):
    # Next to w = 1 the expanded ratio cancels; the printed range must
    # come from the same factored form that check_eq117_inequality grades.
    script = load("check_inequalities")
    argv = ["--w-min", "0.9999", "--w-max", "1.0001", "--steps", "2000"]
    assert script.main(argv) == 0
    out = capsys.readouterr().out
    low, high = re.search(r"r= 2: .*ratio range \[(\S+), (\S+)\]", out).groups()
    assert 0.0 <= float(low) <= float(high) <= 1.0 + 1e-9


def test_trace_digest_is_reproducible(capsys):
    script = load("trace_digest")
    argv = ["--n", "4", "--seeds", "1", "--r", "1"]
    digests = []
    for _ in range(2):
        assert script.main(argv) == 0
        digests.append(capsys.readouterr().out)
    assert digests[0] == digests[1]
    assert re.fullmatch(r"runs 2, steps \d+, sha256 [0-9a-f]{64}\n", digests[0])


@pytest.mark.parametrize("block", [1, 7])
def test_trace_digest_equals_one_built_from_whole_solo_traces(block, monkeypatch, capsys):
    # Records streamed into per-run digests, in blocks of any depth, hash
    # as the whole trace of a solo run at the default depth does.
    script = load("trace_digest")
    monkeypatch.setattr(solver_module, "_BLOCK", block)
    assert script.main(["--n", "4", "--seeds", "1", "2", "--r", "1", "2"]) == 0
    monkeypatch.undo()
    digest = hashlib.sha256()
    for r in (1, 2):
        for kind, seed in itertools.product(("linear", "quadratic"), (1, 2)):
            result = solve(generate_instance(4, 2, kind, seed), SolverConfig(epsilon=1e-6, r=r))
            digest.update(hashlib.sha256(trace_to_csv(result.trace).encode()).digest())
            reprs = "".join(repr(record) for record in result.trace)
            digest.update(hashlib.sha256(reprs.encode()).digest())
            digest.update(
                f"{result.status},{result.iterations},{result.bound},"
                f"{result.gap_final!r}".encode()
            )
            for vector in (result.x, result.y, result.z):
                digest.update(vector.tobytes())
    assert capsys.readouterr().out.endswith(f"sha256 {digest.hexdigest()}\n")


def test_run_grid_table_matches_solo_runs_in_grid_order(tmp_path, capsys):
    # Each (n, r) group is one batch; rows still come in (n, kind, seed, r)
    # order and equal what one solve per run gives.
    script = load("run_grid")
    table = tmp_path / "grid.csv"
    argv = ["--n", "4", "6", "--seeds", "1", "2", "--r", "1", "2", "--out", str(table)]
    assert script.main(argv) == 0
    rows = table.read_text().splitlines()
    assert rows[0] == script.CSV_HEADER
    want = []
    for n, kind, seed, r in itertools.product((4, 6), ("linear", "quadratic"), (1, 2), (1, 2)):
        result = solve(generate_instance(n, n // 2, kind, seed), SolverConfig(epsilon=1e-6, r=r))
        max_gamma = max((rec.gamma for rec in result.trace), default=0.0)
        want.append(script.summarize(n, kind, seed, r, result, max_gamma)[1])
    assert rows[1:] == want
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1 + len(want) + 2


@pytest.mark.parametrize(
    "bad", [["--r", "13"], ["--n", "1"], ["--eps", "0"], ["--seeds", "-1"]]
)
def test_run_grid_rejects_bad_values_before_solving(bad, capsys):
    script = load("run_grid")
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--n", "4", "--seeds", "1", *bad])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert "error: " in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("bad", [["--n", "1"], ["--r", "0"], ["--seeds", "-1"]])
def test_trace_digest_rejects_bad_values_like_run_grid(bad, capsys):
    script = load("trace_digest")
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--n", "4", "--seeds", "1", *bad])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert "error: " in captured.err
    assert "Traceback" not in captured.err


def test_run_grid_opens_its_table_before_solving(tmp_path, capsys):
    script = load("run_grid")
    table = tmp_path / "missing" / "grid.csv"
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--n", "4", "--seeds", "1", "--out", str(table)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --out" in captured.err


def test_run_grid_keeps_an_existing_table_when_a_run_fails(tmp_path, monkeypatch):
    # The table is checked for writing up front but replaced only at the end.
    script = load("run_grid")
    table = tmp_path / "grid.csv"
    table.write_text("kept\n")

    def broken(*args, **kwargs):
        raise RuntimeError("solver broke")

    monkeypatch.setattr(script, "solve_many", broken)
    with pytest.raises(RuntimeError, match="solver broke"):
        script.main(["--n", "4", "--seeds", "1", "--out", str(table)])
    assert table.read_text() == "kept\n"


def test_run_grid_replaces_an_existing_table(tmp_path, capsys):
    script = load("run_grid")
    table = tmp_path / "grid.csv"
    table.write_text("an older, longer table\n" * 20)
    assert script.main(["--n", "4", "--seeds", "1", "--r", "1", "--out", str(table)]) == 0
    rows = table.read_text().splitlines()
    assert rows[0] == script.CSV_HEADER
    assert len(rows) == 1 + 2
