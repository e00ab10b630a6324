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
that solves the runs one at a time prints the same digest.  It takes
run_grid.py's flags, without --out, and rejects bad values as that
script does: a usage message and exit 2.

    python3 scripts/trace_digest.py
    python3 scripts/trace_digest.py --n 4 10 50 --r 1 2 3
"""

import hashlib
import importlib.util
import itertools
import sys
from pathlib import Path

from lcco_ipm import TRACE_HEADER, generate_instance, solve_many, trace_to_csv

# scripts/ is not a package, so the sibling is loaded by its path.
_spec = importlib.util.spec_from_file_location("run_grid", Path(__file__).with_name("run_grid.py"))
run_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_grid)


def main(argv=None) -> int:
    parser = run_grid.grid_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)
    configs = run_grid.checked_configs(parser, args)
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

            batch = solve_many(problems, configs[r], on_block=on_block)
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
