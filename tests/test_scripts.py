"""The experiment scripts under scripts/, driven through their main()."""

import hashlib
import importlib.util
import itertools
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lcco_ipm import R_MAX, SolverConfig, generate_instance, p_vector, solve, trace_to_csv
from lcco_ipm import solver as solver_module

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inequality_proof_covers_every_power_up_to_r_max(capsys):
    # At r = 1 eq115 and eq117 hold with equality for every w; at r = 2 so
    # does eq117 (the ratio is identically 1).
    script = load("check_inequalities")
    assert script.main(["--r-max", "12"]) == 0
    expected = [
        "r= 1: pointwise identity; ratio identity",
        "r= 2: pointwise (w-1)^2 x positive; ratio identity",
        *(f"r={r:>2}: pointwise (w-1)^2 x positive; ratio positive" for r in range(3, 13)),
        "proved for every w > 0",
    ]
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


@pytest.mark.parametrize("r", range(1, R_MAX + 1))
def test_inequality_proof_polynomials_are_the_monitored_kernel(r):
    # U_r (1 - w)^2 = (r-1)^2 (1 - w^r)^2 - P_r, exactly: the eq117
    # numerator is P_r.  And P_r is eq115's slack on the kernel the
    # monitors run, times r^2 w^(2r-2).
    script = load("check_inequalities")
    pointwise = script.pointwise(r)
    one_minus = script.poly((1, 0), (-1, r))
    square = script.mul(one_minus, one_minus)
    target = [
        (r - 1) ** 2 * a - b for a, b in itertools.zip_longest(square, pointwise, fillvalue=0)
    ]
    assert script.trim(script.mul(script.ratio(r), [1, -2, 1])) == script.trim(target)
    for w in (0.25, 0.5, 0.75, 1.5, 2.0, 3.0):
        p = p_vector([w], r)[0]
        terms = r * r * w ** (2 * r - 2) * np.array([w * w, w * p, -1.0, p * p / 4.0])
        exact = float(sum(Fraction(c) * Fraction(w) ** k for k, c in enumerate(pointwise)))
        assert abs(exact - terms.sum()) <= 1e-12 * np.abs(terms).sum(), (r, w)


def test_inequality_proof_fails_on_a_lowered_coefficient(monkeypatch, capsys):
    # P_4 has a double root at w = 1; lowering its w^4 coefficient by 1
    # makes P_4(1) = -1 while P_4(0) stays 1, so only Sturm's count can
    # find the root in (0, 1) that breaks the bound.
    script = load("check_inequalities")
    exact = script.pointwise

    def lowered(r):
        coefficients = exact(r)
        if r == 4:
            coefficients[4] -= 1
        return coefficients

    monkeypatch.setattr(script, "pointwise", lowered)
    assert script.main(["--r-max", "5"]) == 1
    out = capsys.readouterr().out
    assert "r= 4: pointwise NOT PROVED; ratio positive\n" in out
    assert out.count("NOT PROVED") == 2  # the r = 4 line and the closing line


@pytest.mark.parametrize(
    "coefficients, verdict",
    # Lowest power first.
    [
        ([0, 0], "identity"),
        ([2, 3, 1], "positive"),  # (w + 1)(w + 2): its roots are negative
        ([6, -5, 1], "NOT PROVED"),  # (w - 2)(w - 3): positive at 0 and at infinity
        ([1, -2, 1], "(w-1)^2 x positive"),
        ([2, -3, 1], "NOT PROVED"),  # (w - 1)(w - 2): a simple root at 1
        ([-1, 0, 1], "NOT PROVED"),  # (w - 1)(w + 1)
    ],
)
def test_inequality_proof_verdicts_on_small_polynomials(coefficients, verdict):
    assert load("check_inequalities").verdict(coefficients) == verdict


@pytest.mark.parametrize("bad", [["--r-max", "13"], ["--r-max", "0"]])  # outside [1, R_MAX]
def test_inequality_scan_rejects_bad_values_with_an_error_line(bad, capsys):
    script = load("check_inequalities")
    assert script.main(bad) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


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
    # Trace CSV and row bytes, streamed into per-run digests in blocks of
    # any depth, hash as the whole trace of a solo run at the default
    # depth does.
    script = load("trace_digest")
    monkeypatch.setattr(solver_module, "_CHUNK", 16 * block)  # B n = 16
    assert script.main(["--n", "4", "--seeds", "1", "2", "--r", "1", "2"]) == 0
    monkeypatch.undo()
    digest = hashlib.sha256()
    for r in (1, 2):
        for kind, seed in itertools.product(("linear", "quadratic"), (1, 2)):
            result = solve(generate_instance(4, 2, kind, seed), SolverConfig(epsilon=1e-6, r=r))
            digest.update(hashlib.sha256(trace_to_csv(result.trace).encode()).digest())
            digest.update(hashlib.sha256(result.trace.tobytes()).digest())
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


@pytest.mark.parametrize("name", ["run_grid", "trace_digest"])
def test_an_n_too_large_to_allocate_is_a_usage_error(name, monkeypatch, capsys):
    script = load(name)
    grid = getattr(script, "run_grid", script)
    made = []

    def generate(n, m, kind, seed):
        if n > 4:
            raise MemoryError
        made.append(n)
        return generate_instance(n, m, kind, seed)

    monkeypatch.setattr(grid, "generate_instance", generate)
    monkeypatch.setattr(script, "solve_many", None)  # nothing may be solved
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--n", "4", "100000", "--seeds", "1", "--r", "1"])
    assert exit_info.value.code == 2
    assert made == [4, 4]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert "error: --n: cannot allocate an instance with n = 100000" in captured.err
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
