#!/usr/bin/env python3
"""Sweep (n,k,l), solve each instance exactly, and summarize bound tightness.

Runs `antipodal table NMAX KMAX --json` once and counts, over the
instances it proves optimal, how often each bound coincides with the
exact optimum.  Instances the table skips (over its vertex cap) or does
not finish inside the budget are listed and excluded from the counts.
The per-instance table itself is `antipodal table NMAX KMAX`.
"""

import argparse
import contextlib
import io
import json
import sys
from collections import Counter

from antipodal.cli import main as cli_main

_BOUNDS = {"example1": "ex1", "example2": "ex2", "thm1": "thm1", "thm2": "thm2", "fk1": "fk1"}


def run(nmax: int, kmax: int, budget: float) -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["table", str(nmax), str(kmax), "--budget", str(budget), "--json"])
    if code:
        return code
    rows = json.loads(out.getvalue())
    solved = [row for row in rows if row["exact"]]
    attained = Counter(t.lstrip("=") for row in solved for t in row["tight"])
    skipped = [(row["n"], row["k"], row["l"]) for row in rows if not row["exact"]]

    print(f"exactly solved: {len(solved)} instances")
    for name, short in _BOUNDS.items():
        print(f"  optimum attained by {name:<9} {attained[short]:>3} times")
    if skipped:
        print(f"  skipped (too large or budget): {skipped}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=6)
    ap.add_argument("--kmax", type=int, default=3)
    ap.add_argument("--budget", type=float, default=30.0)
    args = ap.parse_args()
    return run(args.nmax, args.kmax, args.budget)


if __name__ == "__main__":
    sys.exit(main())
