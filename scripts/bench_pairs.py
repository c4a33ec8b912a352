#!/usr/bin/env python3
"""Alternating benchmark runs of two checkouts, summarised per metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload certify --pairs 10 --seconds 10 --seed 1

PARENT and CHANGE are source checkouts.  Each pair runs
`benchmark/run.py` once in each of them, the parent first in even pairs
and the change first in odd ones, and reads the JSON object on the last
line of each run.  For every end-to-end metric the script prints the
two medians, the parent's interquartile range and the number of pairs
in which the change read lower; its last line is the whole summary,
every run's value included, as one JSON object.  The summary also names
each checkout's commit (`git rev-parse HEAD`, null outside a git
checkout) and the machine (Python version, processor count, platform),
so a before/after record can be written from it alone.  Its `over_bound`
list names each metric whose change median is worse than the parent's
by more than the metric's `bound`, relative to the parent median, in the
direction `better` names; both are read from the `end_to_end` list of
the BENCHMARK.json beside this script, which is only read.  The printed
line of such a metric ends in OVER BOUND.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

_SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_once(root: str, workload: str, seconds: float, seed: int) -> dict:
    """The result object that benchmark/run.py prints last in root."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    """[first quartile, third quartile] of values."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def commit(root: str) -> str | None:
    """`git rev-parse HEAD` in root, or None where that fails."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine() -> dict:
    """The Python version, processor count and platform of this machine."""
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "platform": platform.platform()}


def summarize(parent: list[dict], change: list[dict]) -> dict:
    """Per metric of the paired run results: both medians, the parent's
    quartiles, the pairs where the change read lower, and every value."""
    metrics = {}
    for name, first in parent[0]["metrics"].items():
        old = [r["metrics"][name]["value"] for r in parent]
        new = [r["metrics"][name]["value"] for r in change]
        metrics[name] = {
            "unit": first["unit"],
            "parent_median": statistics.median(old),
            "change_median": statistics.median(new),
            "parent_iqr": quartiles(old),
            "change_lower": sum(b < a for a, b in zip(old, new)),
            "parent": old,
            "change": new,
        }
    return {
        "pairs": len(parent),
        "failed": {"parent": sum(r["failed"] for r in parent), "change": sum(r["failed"] for r in change)},
        "attempted": {"parent": sum(r["attempted"] for r in parent), "change": sum(r["attempted"] for r in change)},
        "metrics": metrics,
    }


def end_to_end_bounds() -> dict:
    """{metric: (bound, better)} from the end_to_end list of BENCHMARK.json."""
    with open(_SPEC) as fh:
        return {m["name"]: (m["bound"], m["better"]) for m in json.load(fh)["end_to_end"]}


def over_bound(metrics: dict, bounds: dict) -> list[str]:
    """The metrics, in order, whose change median is worse than the
    parent median by more than bound times the parent median; metrics
    without a bound are not judged."""
    over = []
    for name, m in metrics.items():
        if name not in bounds:
            continue
        bound, better = bounds[name]
        worse = m["change_median"] - m["parent_median"]
        if better == "higher":
            worse = -worse
        if worse > bound * abs(m["parent_median"]):
            over.append(name)
    return over


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, choices=("solve", "certify", "sweep"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    runs = {args.parent: [], args.change: []}
    for i in range(args.pairs):
        order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        for root in order:
            runs[root].append(run_once(root, args.workload, args.seconds, args.seed))
    summary = summarize(runs[args.parent], runs[args.change])
    summary["over_bound"] = over_bound(summary["metrics"], end_to_end_bounds())
    summary.update(workload=args.workload, seconds=args.seconds, seed=args.seed,
                   commits={"parent": commit(args.parent), "change": commit(args.change)}, machine=machine())
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s runs at seed {args.seed}: parent -> change")
    print(f"  commits {summary['commits']['parent']} -> {summary['commits']['change']}; machine {summary['machine']}")
    for name, m in summary["metrics"].items():
        q1, q3 = m["parent_iqr"]
        print(f"  {name:<12} {m['parent_median']:>10.4f} -> {m['change_median']:>10.4f} {m['unit']:<5}"
              f" parent IQR {q1:.4f}-{q3:.4f}, change lower in {m['change_lower']}/{summary['pairs']}"
              + ("  OVER BOUND" if name in summary["over_bound"] else ""))
    print(f"  failed operations: parent {summary['failed']['parent']}, change {summary['failed']['change']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
