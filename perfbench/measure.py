"""Statistics and correctness rules shared by the benchmark's processes.

Nothing here imports the solver, so the self-test can exercise these
helpers without numpy or scipy on the path.
"""

from __future__ import annotations

import math
import re
import statistics

# The duality-gap target every workload solves to.
EPSILON = 1e-6

# Percentiles considered for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(count: int):
    """Highest ladder percentile with at least ten of `count` samples beyond it.

    Returns None when even the median has fewer than ten beyond it.  The
    benchmark passes each workload's minimum operation count, so the
    percentile a workload reports does not change with the run length.
    """
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            return q
    return None


def kind_medians(ops) -> dict:
    """Median wall time (ms) of each operation kind.

    `ops` holds (kind, ms, steps) triples.  A kind is one fixed input, so
    its steps repeat exactly and only its time varies between repeats.
    """
    by_kind: dict = {}
    for kind, ms, _ in ops:
        by_kind.setdefault(kind, []).append(ms)
    return {kind: statistics.median(times) for kind, times in by_kind.items()}


def median_op_ms(ops) -> float:
    """op_ms_p50: the median over kinds of each kind's median time.

    Every kind runs equally often, so this estimates the median operation.
    Unlike the pooled median, it cannot fall in the gap between two kinds
    and jump from one to the other with the noise.
    """
    return statistics.median(kind_medians(ops).values())


def grid_row_failures(row: dict) -> list[str]:
    """Reasons one run_grid CSV row counts as a failed operation."""
    reasons = []
    tag = f"grid n={row.get('n')} {row.get('kind')} seed={row.get('seed')} r={row.get('r')}"
    try:
        iterations = int(row["iterations"])
        bound = int(row["bound"])
        violations = int(row["monitor_violations"])
        gap = float(row["final_gap"])
    except (KeyError, ValueError):
        return [f"{tag}: unreadable row {row!r}"]
    if row.get("status") != "converged":
        reasons.append(f"{tag}: status {row.get('status')}")
    if iterations > bound:
        reasons.append(f"{tag}: {iterations} iterations exceed bound {bound}")
    if violations:
        reasons.append(f"{tag}: {violations} monitor violations")
    if not gap <= EPSILON:
        reasons.append(f"{tag}: final gap {gap:.3e} above {EPSILON:g}")
    return reasons


_CLI_STATUS = re.compile(
    r"^status: (\S+) after (\d+) iterations \(theoretical bound (\d+)", re.M
)
_CLI_VIOLATIONS = re.compile(r"monitor violations: (\d+)$", re.M)
_CLI_VERDICT = re.compile(r"^reference \(.*-> (\S+)$", re.M)


def cli_failures(tag: str, exit_code: int, output: str, trace_rows) -> tuple[int, list[str]]:
    """Iterations and failure reasons of one `lcco-ipm solve --check` call.

    `trace_rows` is the line count of the exported trace CSV, header
    included, or None when the file is missing.  A call without an
    enumeration verdict of "agree" fails, as does any DISAGREE.
    """
    reasons = []
    if exit_code != 0:
        reasons.append(f"{tag}: exit code {exit_code}")
    status = _CLI_STATUS.search(output)
    if status is None:
        return 0, reasons + [f"{tag}: no status line"]
    iterations, bound = int(status.group(2)), int(status.group(3))
    if status.group(1) != "converged":
        reasons.append(f"{tag}: status {status.group(1)}")
    if iterations > bound:
        reasons.append(f"{tag}: {iterations} iterations exceed bound {bound}")
    violations = _CLI_VIOLATIONS.search(output)
    if violations is None or int(violations.group(1)) != 0:
        reasons.append(f"{tag}: monitor violations or no monitor line")
    verdicts = _CLI_VERDICT.findall(output)
    if verdicts != ["agree"]:
        reasons.append(f"{tag}: oracle verdicts {verdicts}")
    if trace_rows != iterations + 1:
        reasons.append(f"{tag}: trace has {trace_rows} lines, expected {iterations + 1}")
    return iterations, reasons


def solve_failures(tag: str, status: str, iterations: int, bound: int,
                   violations: int, trace_len: int, gap: float,
                   primal_rel: float, dual_rel: float) -> list[str]:
    """Failure reasons of one library `solve()` result.

    primal_rel and dual_rel are the final feasibility residuals relative
    to 1 + the norm of their right-hand sides; the oracles stop at n = 12,
    so these and the gap are the check at larger n.
    """
    reasons = []
    if status != "converged":
        reasons.append(f"{tag}: status {status}")
    if iterations > bound:
        reasons.append(f"{tag}: {iterations} iterations exceed bound {bound}")
    if violations:
        reasons.append(f"{tag}: {violations} monitor violations")
    if trace_len != iterations:
        reasons.append(f"{tag}: trace holds {trace_len} records for {iterations} iterations")
    if not gap <= EPSILON:
        reasons.append(f"{tag}: final gap {gap:.3e} above {EPSILON:g}")
    if not (primal_rel <= 1e-6 and dual_rel <= 1e-6):
        reasons.append(f"{tag}: residuals primal {primal_rel:.3e} dual {dual_rel:.3e}")
    return reasons
