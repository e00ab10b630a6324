"""Hash everything the solver reports on a grid of runs into one digest.

Solves every (n, kind, seed, r) combination, like run_grid.py, with one
`solve_many` batch per (n, r) group.  Each run gets two sha256 of its
trace as its blocks stream in: one of its trace CSV bytes and one of
the repr of every trace record (all fields, monitors included).  When a
batch ends, its runs are fed in (n, r, kind, seed) order into one sha256
with those two digests, the status, iteration count, bound and final
gap, and the bytes of the final x, y and z.  No trace is held whole.
Two builds print the same digest exactly when they agree bit for bit on
all of it.  Batching changes no bit of a member's result, so a build
that solves the runs one at a time prints the same digest.

    python3 scripts/trace_digest.py
    python3 scripts/trace_digest.py --n 4 10 50 --r 1 2 3
"""

import argparse
import hashlib
import itertools
import sys

from lcco_ipm import TRACE_HEADER, SolverConfig, generate_instance, solve_many, trace_to_csv


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
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
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    digest = hashlib.sha256()
    runs = steps = 0
    for n in args.n:
        problems = [
            generate_instance(n, n // 2, kind, seed)
            for kind, seed in itertools.product(args.kinds, args.seeds)
        ]
        for r in args.r:
            csv = [hashlib.sha256(f"{TRACE_HEADER}\n".encode()) for _ in problems]
            reprs = [hashlib.sha256() for _ in problems]

            def on_block(i, block):
                # trace_to_csv of the whole trace is the header, then each row.
                csv[i].update(trace_to_csv(block)[len(TRACE_HEADER) + 1 :].encode())
                reprs[i].update("".join(map(repr, block)).encode())

            cfg = SolverConfig(epsilon=args.eps, r=r)
            batch = solve_many(problems, cfg, on_block=on_block)
            for result, csv_digest, repr_digest in zip(batch, csv, reprs):
                digest.update(csv_digest.digest())
                digest.update(repr_digest.digest())
                digest.update(
                    f"{result.status},{result.iterations},{result.bound},"
                    f"{result.gap_final!r}".encode()
                )
                for vector in (result.x, result.y, result.z):
                    digest.update(vector.tobytes())
                runs += 1
                steps += result.iterations
    print(f"runs {runs}, steps {steps}, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
