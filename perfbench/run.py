"""Benchmark of the lcco_ipm solver through its real entry points.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55 --trace 1

Run from the root of the repository.  Each workload runs in a fresh
interpreter (perfbench/worker.py) with the repo's src directory on
PYTHONPATH.  With --trace 0 it prints the end-to-end metrics, one row per
workload; with --trace 1 the per-layer metrics of a separate traced run.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 when any
operation fails its check, and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from measure import median_op_ms, percentile, tail_percentile
from workloads import ROOT, WORKLOADS

# Set-up is timed in this many fresh interpreters per run (the measuring
# worker is one of them) and reported as their median.
SETUP_SAMPLES = 3

# Every run must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def _worker(mode: str, workload: str, seed: int, seconds: float, workdir: Path,
            deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    command = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--mode", mode, "--workdir", str(workdir)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} run of {workload}")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {workload} timed out") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{mode} run of {workload} exited {done.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path, deadline: float):
    setups = [_worker("setup", workload, seed, 0.0, workdir, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = _worker("measure", workload, seed, seconds, workdir, deadline)
    setups.append(run["setup_s"])
    if not run["ops"]:
        raise BenchError(f"{workload}: no operation completed")
    metrics = {
        "setup_s": statistics.median(setups),
        "steps_per_s": run["steps"] / run["wall_s"],
        "op_ms_p50": median_op_ms(run["ops"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    # The tail is reported, not gated: only cli runs enough operations for
    # a percentile with ten beyond it (see README).
    times = [ms for _, ms, _ in run["ops"]]
    q = tail_percentile(WORKLOADS[workload].min_ops)
    run["op_ms_tail"] = None if q is None else percentile(times, q)
    run["tail"] = "none" if q is None else f"p{q:g}"
    run["operations"] = len(times)
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, run


def traced(workload: str, seed: int, workdir: Path, deadline: float):
    run = _worker("trace", workload, seed, 0.0, workdir, deadline)
    return {k: tuple(v) for k, v in run.pop("layers").items()}, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lcco_ipm" / "__init__.py").is_file() or not (
        ROOT / "scripts" / "run_grid.py"
    ).is_file():
        print(f"error: no lcco_ipm source tree under {ROOT}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch_root))
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name] = traced(name, args.seed, workdir, deadline)
            else:
                results[name] = end_to_end(name, args.seed, args.seconds, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    attempted = sum(run["attempted"] for _, run in results.values())
    failed = sum(run["failed"] for _, run in results.values())
    for name, (metrics, run) in results.items():
        run["failed_frac"] = run["failed"] / run["attempted"]
        info = dict(run)
        if "ops" in info:
            info["ops"] = [[kind, round(ms, 1), steps] for kind, ms, steps in run["ops"]]
        print(f"# {name} " + json.dumps(info))
        for reason in run["reasons"]:
            print(f"FAILED {reason}", file=sys.stderr)
    _print_table(results, args.trace)

    def key(workload, metric):
        return metric if len(names) == 1 else f"{workload}.{metric}"

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key(name, metric): {"value": value, "unit": unit}
                    for name, (metrics, _) in results.items()
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _print_table(results, trace: int) -> None:
    if trace:
        for name, (metrics, _) in results.items():
            for metric, (value, unit) in metrics.items():
                print(f"{name:<6} {metric:<44} {value:>14.6g} {unit}")
        return
    header = [f"{m} [{u}]" for m, u in END_TO_END_UNITS.items()]
    header += ["failed_frac", "tail", "op_ms_tail [ms]"]
    print("workload  " + "  ".join(f"{h:>18}" for h in header))
    for name, (metrics, run) in results.items():
        cells = [f"{metrics[m][0]:>18.6g}" for m in END_TO_END_UNITS]
        cells.append(f"{run['failed_frac']:>18.6g}")
        cells.append(f"{run['tail']:>18}")
        tail = run["op_ms_tail"]
        cells.append(f"{'-' if tail is None else format(tail, '.6g'):>18}")
        print(f"{name:<8}  " + "  ".join(cells))


if __name__ == "__main__":
    sys.exit(main())
