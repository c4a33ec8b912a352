#!/usr/bin/env python3
"""Probe the boundary of the circle regime: is 3k - l really the edge?

Inside 2k <= n <= 3k - l the quantity k|V|/n is a proven ceiling for
antipodal-free families and example2 attains it.  This script solves
instances just past that edge and reports whether the (no longer
justified) circle value still happens to bound, or even match, the true
optimum.  Output is evidence, not a theorem check: nothing here asserts.
Every instance visited gets a row: one too large for the solver (over
search.VERTEX_CAP) is marked skipped, and one not proved within --budget
shows its lower bound as `lower <= alpha`.
"""

import argparse
import sys
from fractions import Fraction

from antipodal import Params, TooLarge, bound_table, max_antipodal_free


def probe(kmax: int, overshoot: int, budget: float) -> int:
    print(f"{'n':>3} {'k':>3} {'l':>3} {'edge':>5} {'alpha':>7} {'k|V|/n':>9} "
          f"{'ex1':>6} {'ex2':>6} {'thm1':>6}  verdict")
    blank = f"{'-':>7} {'-':>9} {'-':>6} {'-':>6} {'-':>6}"
    for k in range(2, kmax + 1):
        for l in range(1, k + 1):
            edge = 3 * k - l
            for n in range(edge + 1, edge + overshoot + 1):
                if n < 2 * k or k + l > n:
                    continue
                p = Params(n, k, l)
                head = f"{n:>3} {k:>3} {l:>3} {edge:>5}"
                try:
                    result = max_antipodal_free(p, budget=budget)
                except TooLarge as exc:
                    print(f"{head} {blank}  skipped: {exc}")
                    continue
                alpha = result.optimum
                alpha_col = str(alpha)
                sizes = bound_table(p).as_dict()["entries"]
                circle_value = Fraction(k * sizes["V"], n)
                if not result.proof_of_optimality:
                    alpha_col = f">={alpha}"
                    verdict = f"not proved in {budget:g} s: {alpha} <= alpha"
                elif alpha > circle_value:
                    verdict = "circle value fails past the edge"
                elif alpha == circle_value:
                    verdict = "circle value still exact"
                else:
                    verdict = "circle value holds (unproven here)"
                print(
                    f"{head} {alpha_col:>7} "
                    f"{str(circle_value):>9} {sizes['example1']:>6} "
                    f"{sizes['example2']:>6} {sizes['thm1']:>6}  {verdict}"
                )
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=3)
    ap.add_argument("--overshoot", type=int, default=2, help="how far past 3k-l to probe")
    ap.add_argument("--budget", type=float, default=30.0)
    args = ap.parse_args()
    return probe(args.kmax, args.overshoot, args.budget)


if __name__ == "__main__":
    sys.exit(main())
