"""Prove the kernel inequalities for every w > 0 by Sturm's theorem.

For each kernel power r this proves, in exact integer arithmetic:

  * the pointwise bound (eq115) w^2 + w p(w) >= 1 - p(w)^2 / 4 as
    P_r >= 0, where P_r is its slack times r^2 w^(2r-2) > 0,
        P_r = r^2 w^(2r) + 2r w^r (1 - w^r) + (1 - w^r)^2 - r^2 w^(2r-2);
  * the ratio bound (eq117) 0 <= ratio <= (r-1)^2, where
        ratio = ((r-1)^2 w^(2r) + (2r-2) w^r - r^2 w^(2r-2) + 1) / (1 - w^r)^2.
    Its numerator is P_r, and it equals ((r-1) w^r + 1)^2 - (r w^(r-1))^2.
    With (r-1) w^r - r w^(r-1) + 1 = (1-w)^2 S1 and 1 - w^r = (1-w) S0,
        S1 = sum_{k=0}^{r-2} (k+1) w^k,   S0 = sum_{k=0}^{r-1} w^k,
    the ratio is S1 ((r-1) w^r + 1 + r w^(r-1)) / S0^2, whose singularity
    at w = 1 is removed.  Every term of that form is positive, so
    0 <= ratio; the upper bound is proved as U_r >= 0, its slack times S0^2,
        U_r = (r-1)^2 S0^2 - S1 ((r-1) w^r + 1 + r w^(r-1)).

Each verdict is `identity` (the polynomial is 0, so the bound holds with
equality), `(w-1)^2 x positive`, `positive`, or `NOT PROVED`.  A
polynomial q is positive on w >= 0 when q(0) > 0 and its Sturm chain has
as many sign changes at 0 as at infinity, so q has no root in (0, inf).
Exits 1 if any power is not proved.  A power outside [1, R_MAX] prints an
`error:` line and exits 1.

    python3 scripts/check_inequalities.py --r-max 12
"""

import argparse
import sys
from fractions import Fraction

from lcco_ipm import R_MAX

# A polynomial is the list of its integer coefficients, lowest power first.


def poly(*terms):
    """Sum of c w^k over the (c, k) pairs."""
    out = [0] * (1 + max(k for _, k in terms))
    for c, k in terms:
        out[k] += c
    return out


def mul(p, q):
    out = [0] * (len(p) + len(q))
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def pointwise(r):
    """P_r, expanded: (r-1)^2 w^(2r) + (2r-2) w^r - r^2 w^(2r-2) + 1."""
    return poly(((r - 1) ** 2, 2 * r), (2 * r - 2, r), (-r * r, 2 * r - 2), (1, 0))


def ratio(r):
    """U_r, with S0 = sum_{k<r} w^k and S1 = sum_{k<r-1} (k+1) w^k."""
    s0, s1 = [1] * r, [k + 1 for k in range(r - 1)]
    tail = poly((r - 1, r), (1, 0), (r, r - 1))
    return [(r - 1) ** 2 * a - b for a, b in zip(mul(s0, s0), mul(s1, tail))]


def trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def remainder(p, q):
    p = [Fraction(c) for c in p]
    while len(p) >= len(q):
        factor = p[-1] / q[-1]
        for k, c in enumerate(q, start=len(p) - len(q)):
            p[k] -= factor * c
        trim(p)
    return p


def sign_changes(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def positive(q):
    """Whether q > 0 on w >= 0: q(0) > 0 and no root in (0, inf) by Sturm."""
    chain = [q, [k * c for k, c in enumerate(q)][1:]]
    while chain[-1]:
        chain.append([-c for c in remainder(chain[-2], chain[-1])])
    chain.pop()
    roots = sign_changes([p[0] for p in chain]) - sign_changes([p[-1] for p in chain])
    return q[0] > 0 and roots == 0


def verdict(p):
    p = trim(list(p))
    if not p:
        return "identity"
    label = "positive"
    if sum(p) == 0 and sum(k * c for k, c in enumerate(p)) == 0:  # p(1) = p'(1) = 0
        for _ in range(2):  # synthetic division by w - 1
            p = [sum(p[k + 1:]) for k in range(len(p) - 1)]
        label = "(w-1)^2 x positive"
    return label if positive(p) else "NOT PROVED"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--r-max", type=int, default=5, help=f"largest kernel power, at most {R_MAX} (default 5)"
    )
    args = parser.parse_args(argv)
    if not 1 <= args.r_max <= R_MAX:
        print(f"error: need 1 <= --r-max <= {R_MAX}", file=sys.stderr)
        return 1
    proved = True
    for r in range(1, args.r_max + 1):
        verdicts = verdict(pointwise(r)), verdict(ratio(r))
        proved = proved and "NOT PROVED" not in verdicts
        print(f"r={r:>2}: pointwise {verdicts[0]}; ratio {verdicts[1]}")
    print("proved for every w > 0" if proved else "NOT PROVED for some power")
    return 0 if proved else 1


if __name__ == "__main__":
    sys.exit(main())
