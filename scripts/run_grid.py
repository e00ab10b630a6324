"""Run the evaluation grid and tabulate iterations against the proven bound.

Solves every (n, kind, seed, r) combination from the command line, one
`solve_many` batch per (n, r) group, prints the rows of each n once all
its runs are solved, and optionally writes the table as CSV, replacing
an existing file only once every run is solved.  Bad values exit 2 with
a usage message before anything is solved.  Exits 1 if any run fails to
converge or overruns its bound.

    python3 scripts/run_grid.py
    python3 scripts/run_grid.py --n 4 10 --seeds 1 2 --r 1 2 3 --out grid.csv
"""

import argparse
import contextlib
import itertools
import sys

from lcco_ipm import SolverConfig, generate_instance, solve_many

CSV_HEADER = (
    "n,m,kind,seed,r,iterations,bound,status,final_gap,max_gamma,"
    "monitor_violations"
)


def grid_parser(description: str):
    """A parser with the grid flags --n, --kinds, --seeds, --r and --eps.

    trace_digest.py takes them from here; check them with checked_configs.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--n", type=int, nargs="+", default=[4, 10, 50], help="variable counts"
    )
    parser.add_argument(
        "--kinds",
        nargs="+",
        default=["linear", "quadratic"],
        choices=["linear", "quadratic"],
        help="objective kinds",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2, 3], help="generator seeds"
    )
    parser.add_argument(
        "--r", type=int, nargs="+", default=[1, 2, 3], help="kernel powers"
    )
    parser.add_argument(
        "--eps", type=float, default=1e-6, help="duality-gap target (default 1e-6)"
    )
    return parser


def checked_configs(parser, args) -> dict:
    """One SolverConfig per kernel power; any bad value is a usage error."""
    if min(args.n) < 2:
        parser.error(f"--n: need n >= 2, got {min(args.n)}")
    if min(args.seeds) < 0:
        parser.error(f"--seeds: need seeds >= 0, got {min(args.seeds)}")
    try:
        return {r: SolverConfig(epsilon=args.eps, r=r) for r in args.r}
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))


def summarize(n, kind, seed, r, result, max_gamma):
    """The printed line and the CSV row of one run, and whether it is clean.

    max_gamma is the largest proximity in the run's trace, 0.0 if it is empty.
    """
    m = n // 2
    used = result.iterations / result.bound if result.bound else 0.0
    ok = (
        result.status == "converged"
        and result.iterations <= result.bound
        and result.monitor_violations == 0
    )
    line = (
        f"{n:>4} {m:>4} {kind:<10} {seed:>4} {r:>2} "
        f"{result.iterations:>7} {result.bound:>7} "
        f"{used:>6.3f} {result.status}"
    )
    row = (
        f"{n},{m},{kind},{seed},{r},{result.iterations},"
        f"{result.bound},{result.status},"
        f"{result.gap_final:.17g},{max_gamma:.17g},"
        f"{result.monitor_violations}"
    )
    return line, row, ok


def main(argv=None) -> int:
    parser = grid_parser(__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the table to this CSV path")
    args = parser.parse_args(argv)
    configs = checked_configs(parser, args)
    try:
        # Append mode proves the path writable without emptying a table that
        # is already there; `run` replaces its content once all runs are solved.
        out = open(args.out, "a") if args.out else contextlib.nullcontext()
    except OSError as exc:
        parser.error(f"--out: cannot write {args.out}: {exc.strerror}")
    with out:
        return run(args, configs, out)


def run(args, configs, out) -> int:
    rows = []
    clean = True
    print(f"{'n':>4} {'m':>4} {'kind':<10} {'seed':>4} {'r':>2} "
          f"{'iters':>7} {'bound':>7} {'used':>6} status")
    for n in args.n:
        problems = {
            (kind, seed): generate_instance(n, n // 2, kind, seed)
            for kind in args.kinds
            for seed in args.seeds
        }
        summaries = {}
        for r in args.r:
            # The table needs only each run's largest proximity, so the
            # trace blocks are reduced as they come instead of being kept.
            peaks = {}

            def peak(i, block):
                peaks[i] = max(peaks.get(i, 0.0), float(block.gamma.max()))

            results = solve_many(problems.values(), configs[r], on_block=peak)
            for i, ((kind, seed), result) in enumerate(zip(problems, results)):
                summary = summarize(n, kind, seed, r, result, peaks.get(i, 0.0))
                summaries[kind, seed, r] = summary
        for kind, seed, r in itertools.product(args.kinds, args.seeds, args.r):
            line, row, ok = summaries[kind, seed, r]
            clean = clean and ok
            print(line, flush=True)
            rows.append(row)
    if args.out:
        out.truncate(0)
        out.write("\n".join([CSV_HEADER, *rows]) + "\n")
        print(f"wrote {args.out}: {len(rows)} rows")
    print(
        "all runs converged within the bound with clean monitors"
        if clean
        else "SOME RUNS FAILED the bound, convergence, or monitor checks"
    )
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
