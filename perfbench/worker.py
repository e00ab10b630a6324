"""One fresh interpreter running one workload; prints one JSON line.

    python3 perfbench/worker.py --workload grid --seed 0 --seconds 30 \
        --mode measure --workdir DIR

Modes: `setup` imports the package and builds the inputs, then exits;
`measure` also makes the workload's untimed warm-up call, then runs whole
rounds until --seconds have passed and the workload's minimum operation
count is reached; `trace` makes the warm-up call, then runs the
workload's fixed trace rounds once untraced and once traced.  Started by
run.py with PYTHONPATH pointing at the repo's src directory.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import ROOT, WORKLOADS, Round  # noqa: E402


def setup(workload) -> float:
    workload.load()
    workload.prepare()
    return time.perf_counter() - _STARTED


def run_rounds(workload, rounds=None, seconds=0.0) -> tuple[Round, float]:
    """Run `rounds` rounds, or whole rounds until both time and count are met."""
    total = Round()
    done = 0
    start = time.perf_counter()
    while True:
        total.merge(workload.run_round())
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - start >= seconds and total.attempted >= workload.min_ops:
            break
    return total, time.perf_counter() - start


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    """Machine, library and code versions the figures were taken with."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_env": {k: os.environ.get(k) for k in thread_vars},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)

    if args.mode == "setup":
        print(json.dumps({"setup_s": setup(workload)}))
        return 0

    if args.mode == "measure":
        setup_s = setup(workload)
        warm_start = time.perf_counter()
        workload.warm_up()
        warm_up_s = time.perf_counter() - warm_start
        done, wall = run_rounds(workload, seconds=args.seconds)
        result = {
            "setup_s": setup_s,
            "warm_up_s": warm_up_s,
            "ops": done.ops,
            "steps": done.steps,
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        import tracing

        tracer = tracing.Tracer()
        workload.load()
        tracing.install(tracer, getattr(workload, "run_grid", None))
        workload.prepare()
        tracer.restore()
        setup_s = time.perf_counter() - _STARTED
        workload.warm_up()
        plain, plain_wall = run_rounds(workload, rounds=workload.trace_rounds)
        first = len(tracer.spans)
        tracing.install(tracer, getattr(workload, "run_grid", None))
        try:
            done, wall = run_rounds(workload, rounds=workload.trace_rounds)
        finally:
            tracer.restore()
        done.merge(plain)
        layers = tracing.layer_metrics(tracer, first, wall, plain.steps / plain_wall)
        result = {
            "setup_s": setup_s,
            "layers": layers,
            "layer_totals": tracing.layer_totals(tracer.spans, first),
            "missing_lookups": tracer.missing,
        }
    result.update(
        attempted=done.attempted,
        failed=done.failed,
        reasons=done.reasons[:20],
        computed_cost=workload.costs(),
        provenance=provenance(args.seed),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
