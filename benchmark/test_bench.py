"""Self-tests of the benchmark: repeatable counters, oracles that reject
wrong answers, and a clean refusal outside a source checkout.

    PYTHONPATH=src python -m pytest benchmark -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

bench_jobs = run._import_package()
import bench_trace  # noqa: E402

# A cheap slice of each workload that still reaches every deterministic counter.
SLICES = {
    "solve": lambda name: name in ("sub/00", "kneser/8-3"),
    "certify": lambda name: name.endswith(("/6-2-1", "/6-3-1", "/7-3-2")),
    "sweep": lambda name: name.startswith(("prop1/", "double-count/sparse/8-2-1/")),
}


def _traced_counters(workload: str, seed: int, workdir: Path) -> dict:
    jobs = [j for j in bench_jobs.build(workload, seed, workdir) if SLICES[workload](j.name)]
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        done = run._run_pass(jobs, tracer, bench_jobs)
    finally:
        tracer.uninstall()
    assert [v.reason for v in done.verdicts if not v.ok] == []
    self_t = bench_trace.self_times(tracer.spans)
    totals = run._layer_totals(tracer.spans, self_t, *done.span_range, jobs)
    return {key: totals.get(key, 0) for key in run.DETERMINISTIC}


@pytest.mark.parametrize("workload", sorted(SLICES))
def test_counters_repeat_at_the_same_seed(workload, tmp_path):
    first = _traced_counters(workload, 3, tmp_path / "a")
    second = _traced_counters(workload, 3, tmp_path / "b")
    assert first == second
    reached = {
        "solve": ("search.nodes_proved",),
        "certify": ("theorem1.pairs", "theorem1.deleted", "circle.sigmas"),
        "sweep": ("setfamilies.pairs_examined", "circle.sigmas"),
    }[workload]
    assert all(first[key] > 0 for key in reached), first


def test_tracing_restores_the_package():
    import antipodal.cli
    import antipodal.search

    before = (antipodal.search.max_independent_set, antipodal.cli.certify_theorem1, antipodal.max_intersecting)
    tracer = bench_trace.Tracer()
    tracer.install()
    assert antipodal.cli.certify_theorem1 is not before[1]
    tracer.uninstall()
    assert (antipodal.search.max_independent_set, antipodal.cli.certify_theorem1, antipodal.max_intersecting) == before


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None], ["c", 2.0, 3.0, 1, 0, None]]
    assert bench_trace.self_times(spans) == [7.0, 2.0, 1.0]


def test_tail_leaves_ten_jobs_above():
    value, pct = run._tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90)
    value, pct = run._tail([float(i) for i in range(1, 43)])
    assert pct == 76 and sum(v > value for v in range(1, 43)) >= 10


def test_oracles_reject_wrong_answers(tmp_path):
    jobs = {j.name: j for j in bench_jobs.build("solve", 5, tmp_path)}
    sub = jobs["sub/00"]
    solved = sub.run()
    assert sub.check(solved, {}).proved
    graph, result = solved[-1]
    member = next(i for i in map(graph.labels.index, result.witness[:-1]) if graph.adj[i])
    neighbor = graph.labels[(graph.adj[member] & -graph.adj[member]).bit_length() - 1]
    for wrong in (
        dataclasses.replace(result, optimum=result.optimum + 1),
        dataclasses.replace(result, witness=result.witness[:-1]),
        dataclasses.replace(result, witness=result.witness[:-1] + (neighbor,)),
        dataclasses.replace(result, proof_of_optimality=False),
    ):
        assert not sub.check(solved[:-1] + [(graph, wrong)], {}).ok

    ok = bench_jobs.CliResult(0, "sum over sigma: 6\nclosed form:    6\nok\n", "")
    expect_zero = bench_jobs._expect(0, last="ok")
    assert expect_zero(ok, {}).ok
    assert not expect_zero(dataclasses.replace(ok, code=1), {}).ok
    assert not expect_zero(dataclasses.replace(ok, out="FAILED\n"), {}).ok

    pair = bench_jobs._same_as("x/t1", expect_zero)
    assert pair(ok, {"x/t1": ok}).ok
    assert not pair(ok, {"x/t1": dataclasses.replace(ok, out="sum over sigma: 7\nok\n")}).ok


def test_refuses_to_run_without_the_package(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
