"""Scan the kernel inequalities over a dense grid of scaling values.

For each kernel power this checks, pointwise over the grid w > 0 with
w = 1 excluded:

  * the pointwise bound w^2 + w p(w) >= 1 - p(w)^2 / 4, and
  * the ratio bound 0 <= ((r-1)^2 w^(2r) + (2r-2) w^r - r^2 w^(2r-2) + 1)
    / (1 - w^r)^2 <= (r-1)^2.

Prints worst slacks per power and exits 1 on any violation.  A bad
value (fewer than two grid points, a power outside [1, R_MAX], a grid
too large for memory) prints an `error:` line and exits 1.

    python3 scripts/check_inequalities.py
    python3 scripts/check_inequalities.py --w-max 20 --steps 5000 --r-max 12
"""

import argparse
import sys

import numpy as np

from lcco_ipm import MONITOR_SLACK, R_MAX, check_eq117_inequality, eq117_ratio, p_vector


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--w-min", type=float, default=0.1, help="grid start (default 0.1)"
    )
    parser.add_argument(
        "--w-max", type=float, default=5.0, help="grid end (default 5.0)"
    )
    parser.add_argument(
        "--steps", type=int, default=491, help="grid point count (default 491)"
    )
    parser.add_argument(
        "--r-max", type=int, default=5, help=f"largest kernel power, at most {R_MAX} (default 5)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not 0.0 < args.w_min < args.w_max:
        print("error: need 0 < --w-min < --w-max", file=sys.stderr)
        return 1
    if args.steps < 2 or not 1 <= args.r_max <= R_MAX:
        print(f"error: need --steps >= 2 and 1 <= --r-max <= {R_MAX}", file=sys.stderr)
        return 1
    try:
        w = np.linspace(args.w_min, args.w_max, args.steps)
    except MemoryError:
        print(f"error: a grid of {args.steps} points does not fit in memory", file=sys.stderr)
        return 1
    w = w[np.abs(w - 1.0) >= 1e-9]
    print(f"grid: {w.size} points in [{args.w_min:g}, {args.w_max:g}], w=1 excluded")
    clean = True
    for r in range(1, args.r_max + 1):
        p = p_vector(w, r)
        pointwise = w**2 + w * p - 1.0 + p**2 / 4.0
        pointwise_ok = float(pointwise.min()) >= -MONITOR_SLACK
        ratio = eq117_ratio(w, r)
        ratio_ok = check_eq117_inequality(w, r)
        clean = clean and pointwise_ok and ratio_ok
        print(
            f"r={r:>2}: pointwise slack min {pointwise.min():.3e} "
            f"[{'ok' if pointwise_ok else 'VIOLATED'}], "
            f"ratio range [{ratio.min():.6f}, {ratio.max():.6f}] "
            f"within [0, {(r - 1) ** 2}] [{'ok' if ratio_ok else 'VIOLATED'}]"
        )
    print("all inequalities hold" if clean else "VIOLATIONS FOUND")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
