"""The workloads, each driven through a real entry point of the repo.

BENCHMARK.json lists grid and cli; large is run by hand (see README).

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned.  A round is a fixed list of
operations, each of its own kind (one fixed input); runs are whole
rounds, so every run sees each kind equally often.  Before timing, an
untimed warm-up call pays the first-call costs a long-running user pays
once.

* grid  -- `scripts/run_grid.py`'s main(argv), once per (n, r) group;
           an operation is one such call.  Small n: Python overhead per
           step rules.
* large -- one library `lcco_ipm.solve()` at n = 200, m = 100.  Dense
           assembly and factorization rule.
* cli   -- `lcco_ipm.cli.main(["solve", FILE, "--r", "1", "--trace", OUT,
           "--check"])` on LCCO-v1 files written during set-up.  Adds
           parsing, trace export and the enumeration oracles to each solve.

Instance seeds are base seeds shifted by the benchmark's --seed.  The
generated starts are exactly centred, so iteration counts, and with them
the work in a round, depend only on (n, r) and not on the seed.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from measure import EPSILON, cli_failures, grid_row_failures, solve_failures

ROOT = Path(__file__).resolve().parent.parent


def computed_cost(n: int, m: int) -> dict:
    """Per-step cost of the dense step system, computed from its size."""
    dim = n + m
    return {
        "n": n,
        "m": m,
        "kkt_dim": dim,
        "factor_flops_per_step": dim**3 / 3.0,
        "kkt_bytes_per_step": 8 * dim**2,
    }


class Round:
    """Outcome of one round: (kind, ms, steps) per operation, and failures."""

    def __init__(self):
        self.ops: list[tuple[str, float, int]] = []
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, kind: str, ms: float, steps: int, reasons: list[str]) -> None:
        self.ops.append((kind, ms, steps))
        self.steps += steps
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.extend(reasons)

    def merge(self, other: "Round") -> None:
        self.ops += other.ops
        self.steps += other.steps
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons += other.reasons


class Grid:
    """run_grid.main per (n, r) group; both kinds x two seeds per group.

    r = 2 and r = 3 are left out only to keep a round short, so that a
    run repeats every group several times: per-step cost at fixed n
    barely depends on r.
    """

    name = "grid"
    groups = ((4, 1), (10, 1), (50, 1))
    kinds = ("linear", "quadratic")
    min_ops = 9  # three rounds
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seeds = [str(1 + seed), str(2 + seed)]
        self.workdir = workdir

    def load(self) -> None:
        import lcco_ipm  # noqa: F401  (set-up pays the package import)

        spec = importlib.util.spec_from_file_location("run_grid", ROOT / "scripts" / "run_grid.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["run_grid"] = module
        spec.loader.exec_module(module)
        self.run_grid = module

    def prepare(self) -> None:
        """run_grid generates its own instances, inside each operation."""

    def warm_up(self) -> None:
        table = self.workdir / "grid_warm_up.csv"
        with redirect_stdout(io.StringIO()):
            self.run_grid.main(["--n", "4", "--kinds", "linear", "--seeds", self.seeds[0],
                                "--r", "1", "--eps", repr(EPSILON), "--out", str(table)])
        table.unlink(missing_ok=True)

    def costs(self) -> list[dict]:
        return [computed_cost(n, n // 2) for n in sorted({n for n, _ in self.groups})]

    def run_round(self) -> Round:
        out = Round()
        expected = len(self.kinds) * len(self.seeds)
        for n, r in self.groups:
            table = self.workdir / f"grid_n{n}_r{r}.csv"
            table.unlink(missing_ok=True)
            argv = ["--n", str(n), "--kinds", *self.kinds, "--seeds", *self.seeds,
                    "--r", str(r), "--eps", repr(EPSILON), "--out", str(table)]
            start = time.perf_counter()
            try:
                with redirect_stdout(io.StringIO()):
                    code = self.run_grid.main(argv)
            except Exception:
                traceback.print_exc()
                code = "exception"
            ms = (time.perf_counter() - start) * 1e3
            rows = []
            if table.exists():
                with table.open(newline="") as handle:
                    rows = list(csv.DictReader(handle))
            reasons = [reason for row in rows for reason in grid_row_failures(row)]
            if len(rows) != expected:
                reasons.append(f"grid n={n} r={r}: {len(rows)} result rows, expected {expected}")
            if code != 0:
                reasons.append(f"grid n={n} r={r}: run_grid exit {code}")
            steps = sum(int(row["iterations"]) for row in rows
                        if row.get("iterations", "").isdigit())
            out.record(f"n{n}_r{r}", ms, steps, reasons)
        return out


class Large:
    """One library solve of a dense n = 200 quadratic program at r = 1."""

    name = "large"
    n, m = 200, 100
    min_ops = 3
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = 1 + seed

    def load(self) -> None:
        import lcco_ipm

        self.lib = lcco_ipm

    def prepare(self) -> None:
        self.problem = self.lib.generate_instance(self.n, self.m, "quadratic", self.seed)

    def warm_up(self) -> None:
        """A 10 s solve dwarfs any first-call cost; nothing to warm."""

    def costs(self) -> list[dict]:
        return [computed_cost(self.n, self.m)]

    def run_round(self) -> Round:
        import numpy as np

        out = Round()
        p = self.problem
        start = time.perf_counter()
        result = self.lib.solve(p, self.lib.SolverConfig(epsilon=EPSILON, r=1))
        ms = (time.perf_counter() - start) * 1e3
        # The oracles stop at n = 12, so check feasibility and the gap here,
        # in plain numpy, outside the solver's own code.
        q = p.objective.Q
        gradient = p.objective.c + (q @ result.x if q is not None else 0.0)
        primal = np.linalg.norm(p.A @ result.x - p.b) / (1.0 + np.linalg.norm(p.b))
        dual = np.linalg.norm(p.A.T @ result.y + result.z - gradient) / (
            1.0 + np.linalg.norm(gradient))
        out.record("solve", ms, result.iterations, solve_failures(
            f"large seed={self.seed}", result.status, result.iterations, result.bound,
            result.monitor_violations, len(result.trace), result.gap_final,
            float(primal), float(dual)))
        return out


class Cli:
    """In-process `lcco-ipm solve --trace --check` calls on written files."""

    name = "cli"
    # (kind, n, m): both enumeration oracles run, at their size caps.
    instances = (("quadratic", 10, 5), ("linear", 12, 6))
    min_ops = 40
    trace_rounds = 10

    def __init__(self, seed: int, workdir: Path):
        self.seeds = (1 + seed, 2 + seed)
        self.workdir = workdir

    def load(self) -> None:
        import lcco_ipm
        import lcco_ipm.cli

        self.lib = lcco_ipm
        self.cli = lcco_ipm.cli

    def prepare(self) -> None:
        self.files = []
        for kind, n, m in self.instances:
            for seed in self.seeds:
                problem = self.lib.generate_instance(n, m, kind, seed)
                path = self.workdir / f"{kind}_n{n}_seed{seed}.lcco"
                path.write_text(self.lib.serialize_instance(problem))
                self.files.append(path)

    def warm_up(self) -> None:
        trace = self.workdir / "trace.csv"
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            self.cli.main(["solve", str(self.files[0]), "--r", "1", "--trace", str(trace),
                           "--check"])
        trace.unlink(missing_ok=True)

    def costs(self) -> list[dict]:
        return [computed_cost(n, m) for _, n, m in self.instances]

    def run_round(self) -> Round:
        out = Round()
        trace = self.workdir / "trace.csv"
        for path in self.files:
            trace.unlink(missing_ok=True)
            argv = ["solve", str(path), "--r", "1", "--trace", str(trace), "--check"]
            text = io.StringIO()
            start = time.perf_counter()
            try:
                with redirect_stdout(text), redirect_stderr(text):
                    code = self.cli.main(argv)
            except Exception:
                text.write(traceback.format_exc())
                code = "exception"
            ms = (time.perf_counter() - start) * 1e3
            rows = trace.read_text().count("\n") if trace.exists() else None
            iterations, reasons = cli_failures(f"cli {path.name}", code, text.getvalue(), rows)
            out.record(path.stem, ms, iterations, reasons)
        return out


WORKLOADS = {w.name: w for w in (Grid, Large, Cli)}
