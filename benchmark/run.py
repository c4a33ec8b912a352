"""Benchmark of the antipodal package, end to end and per layer.

    python3 benchmark/run.py --workload solve|certify|sweep --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it uses the package in the
checkout's `src/` and exits with status 2, printing no result, when that
is missing.  One client process builds the workload's seeded job list
(bench_jobs.py) and runs it in passes; each job starts only after the
previous one finished (a closed loop with one client).  Passes repeat
while another one fits in --seconds, so every pass runs the same jobs;
there is always at least one pass.  Every answer is checked by the
workload's oracle, outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced passes (at least one of each) and reports the
per-layer metrics from the traced ones, plus the tracing overhead; set-up
is traced too and counted once.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
lines before it give every metric by name and unit, the provenance of
the run, and any failed job.  The full result, with per-job latencies
and, when traced, every span, goes to .bench_out/ in the checkout.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 5  # this process plus four fresh ones, each timed from start to ready
TAIL_BEYOND = 10  # the tail percentile leaves at least this many jobs above it

DETERMINISTIC = (
    "search.nodes_proved",
    "circle.sigmas",
    "setfamilies.pairs_examined",
    "theorem1.pairs",
    "theorem1.deleted",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "certify", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Import the checkout's antipodal package and the job module."""
    if not (SRC / "antipodal" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'antipodal'}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import antipodal

    if Path(antipodal.__file__).resolve().parent != (SRC / "antipodal").resolve():
        print(f"error: imported antipodal from {antipodal.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import bench_jobs

    return bench_jobs


def _git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _provenance(args, jobs_mod) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "budgets_s": {"wide": jobs_mod.WIDE_BUDGET, "frontier": jobs_mod.FRONTIER_BUDGET},
    }


def _setup_samples(args) -> list[float]:
    """Set-up time of fresh processes, each measured by itself."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


class Pass:
    """One run of the whole job list."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.latency: list[float] = []
        self.verdicts = []
        self.span_range = (0, 0)

    @property
    def wall(self) -> float:
        return sum(self.latency)


def _run_pass(jobs, tracer, jobs_mod) -> Pass:
    result = Pass(tracer is not None)
    earlier: dict = {}
    first_span = len(tracer.spans) if tracer else 0
    for idx, job in enumerate(jobs):
        if tracer:
            tracer.job = idx
            tracer.active = True
        outcome, error = None, None
        start = time.perf_counter()
        try:
            outcome = job.run()
        except Exception as exc:  # a job that raises is a failed job
            error = f"{type(exc).__name__}: {exc}"
        result.latency.append(time.perf_counter() - start)
        if tracer:
            tracer.active = False
        if error is None:
            try:
                verdict = job.check(outcome, earlier)
            except Exception as exc:  # an answer the oracle cannot read is wrong
                verdict = jobs_mod.fail(f"unreadable answer: {type(exc).__name__}: {exc}")
        else:
            verdict = jobs_mod.fail(f"raised {error}")
        result.verdicts.append(verdict)
        earlier[job.name] = outcome
    result.span_range = (first_span, len(tracer.spans) if tracer else 0)
    return result


def _tail(values: list[float]) -> tuple[float, int]:
    """(value, p): the highest whole percentile p with at least
    TAIL_BEYOND values above its nearest-rank position."""
    ordered = sorted(values)
    n = len(ordered)
    p = max(0, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(p * n / 100))
    return ordered[rank - 1], p


def _end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    per_job = [statistics.median(col) for col in zip(*(p.latency for p in passes))]
    tail, pct = _tail(per_job)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "job_p50_ms": 1000 * statistics.median(per_job),
        "job_tail_ms": 1000 * tail,
        "proved": statistics.median(sum(v.proved for v in p.verdicts) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"job_tail_ms": f"p{pct} of {len(per_job)} jobs", "job_p50_ms": f"{len(per_job)} jobs"}
    return values, notes


def _layer_totals(spans, self_t, lo: int, hi: int, jobs) -> dict:
    """Per-layer figures over the spans [lo, hi) of one traced stretch."""
    total: dict = {}

    def add(key, value):
        total[key] = total.get(key, 0) + value

    for i in range(lo, hi):
        name, start, end, _parent, job, info = spans[i]
        dur = end - start
        threads = jobs[job].threads if isinstance(job, int) else 1
        add(f"{name}.s", dur)
        add(f"{name}.self_s", self_t[i])
        add(f"{name}.calls", 1)
        add(f"{name}.t{threads}_s", dur)
        if info is None:  # the call raised
            continue
        if name == "search.max_independent_set":
            nodes, proved = info
            if proved:
                add("search.nodes_proved", nodes)
                add("search.proved_s", dur)
            else:
                add("search.budget_s", dur)
        elif name == "circle.lemma3_sweep":
            add("circle.sigmas", info)
            add(f"circle.sigmas.t{threads}", info)
        elif name == "setfamilies.verify_prop1_exhaustive":
            add("setfamilies.pairs_examined", info)
        elif name == "theorem1.deletion_procedure":
            add("theorem1.pairs", info[0])
            add("theorem1.deleted", info[1])
        elif name == "theorem1.lemma1_check":
            add("theorem1.pairs", info)
        elif name in ("familyfile.load_family", "familyfile.save_family"):
            add("familyfile.bytes", info)
    proved_s = total.get("search.proved_s", 0)
    total["search.nodes_per_s"] = total.get("search.nodes_proved", 0) / proved_s if proved_s else 0.0
    sigmas = total.get("circle.sigmas.t1", 0)
    total["circle.us_per_sigma"] = 1e6 * total.get("circle.lemma3_sweep.t1_s", 0) / sigmas if sigmas else 0.0
    return total


def _per_layer(names, tracer, setup_range, passes, jobs, bt) -> tuple[dict, list[str]]:
    self_t = bt.self_times(tracer.spans)
    setup = _layer_totals(tracer.spans, self_t, *setup_range, jobs)
    traced = [p for p in passes if p.traced]
    rounds = [_layer_totals(tracer.spans, self_t, *p.span_range, jobs) for p in traced]
    problems = []
    for key in DETERMINISTIC:
        seen = {r.get(key, 0) for r in rounds}
        if len(seen) > 1:
            problems.append(f"{key} differs between traced passes: {sorted(seen)}")
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            plain = [p.wall for p in passes if not p.traced]
            values[name] = statistics.median(p.wall for p in traced) - statistics.median(plain)
        elif name in ("search.nodes_per_s", "circle.us_per_sigma"):
            values[name] = statistics.median(r[name] for r in rounds)
        else:
            values[name] = setup.get(name, 0) + statistics.median(r.get(name, 0) for r in rounds)
    return values, problems


def _write_results(args, provenance, jobs, passes, report, tracer) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "provenance": provenance,
        "result": report,
        "passes": [{"traced": p.traced, "wall_s": p.wall} for p in passes],
        "jobs": [
            {
                "name": job.name,
                "threads": job.threads,
                "latency_s": [p.latency[i] for p in passes],
                "ok": all(p.verdicts[i].ok for p in passes),
                "proved": passes[0].verdicts[i].proved,
            }
            for i, job in enumerate(jobs)
        ],
    }
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n")
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for name, start, end, parent, job, info in tracer.spans:
                fh.write(json.dumps([name, start, end, parent, job, info]) + "\n")
    return stem.with_suffix(".json")


def main(argv=None) -> int:
    args = _parse_args(argv)
    jobs_mod = _import_package()
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = None
    if args.trace:
        import bench_trace as bt

        tracer = bt.Tracer()
        tracer.install()
        tracer.job = "setup"
        tracer.active = True
    try:
        jobs = jobs_mod.build(args.workload, args.seed, workdir)
        ready = time.perf_counter()
        if tracer:
            tracer.active = False
            setup_range = (0, len(tracer.spans))
        if args.setup_only:
            print(f"{ready - _T_START:.9f}")
            return 0
        passes = []
        first = time.perf_counter()
        while True:
            started = time.perf_counter()
            traced = tracer is not None and len(passes) % 2 == 1
            passes.append(_run_pass(jobs, tracer if traced else None, jobs_mod))
            now = time.perf_counter()
            if tracer is not None and len(passes) < 2:
                continue
            if now - first + (now - started) > args.seconds:
                break
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        names = [m["name"] for m in declared]
        units = {m["name"]: m["unit"] for m in declared}
        provenance = _provenance(args, jobs_mod)
        failures = [
            (job.name, p.verdicts[i].reason)
            for p in passes
            for i, job in enumerate(jobs)
            if not p.verdicts[i].ok
        ]
        attempted = len(jobs) * len(passes)
        problems = []
        if args.trace:
            values, problems = _per_layer(names, tracer, setup_range, passes, jobs, bt)
            notes = {"familyfile.bytes": "computed from file sizes"}
        else:
            setup = [ready - _T_START] + _setup_samples(args)
            values, notes = _end_to_end(passes, setup)
        report = {
            "correct": not failures and not problems,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
        }
        print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs x {len(passes)} passes "
              f"({sum(p.traced for p in passes)} traced)")
        for name in names:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<44} {values[name]:>16.6f} {units[name]}{note}")
        print(f"  {'ops_failed':<44} {len(failures) / attempted:>16.6f} failed/attempted"
              f"  ({len(failures)} of {attempted})")
        for name, reason in failures[:20]:
            print(f"  FAILED {name}: {reason}")
        for problem in problems:
            print(f"  NONDETERMINISTIC {problem}")
        print("provenance " + json.dumps(provenance, sort_keys=True))
        path = _write_results(args, provenance, jobs, passes, report, tracer)
        print(f"results written to {path.relative_to(ROOT)}")
        print(json.dumps(report))
        return 0
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
