"""The experiment scripts report every instance they visit."""

import importlib.util
import json
import platform
import subprocess
from pathlib import Path

from antipodal import Params, TooLarge, cardinality_v
from antipodal.cli import main as cli_main

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

def _probe_rows(capsys, module, **kwargs):
    assert module.probe(**kwargs) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:4] == ["n", "k", "l", "edge"]
    return {tuple(map(int, line.split()[:3])): line for line in lines[1:]}

def _probe_triples(kmax, overshoot):
    # The instances probe visits: n just past 3k - l with n >= 2k and k + l <= n.
    return {
        (n, k, l)
        for k in range(2, kmax + 1)
        for l in range(1, k + 1)
        for n in range(3 * k - l + 1, 3 * k - l + overshoot + 1)
        if n >= 2 * k and k + l <= n
    }

def test_regime_probe_reports_unproved_instances(capsys):
    # With no time at all nothing is proved: every instance, all within the
    # solver's vertex cap, still gets a row, with its greedy lower bound.
    rows = _probe_rows(capsys, _load("regime_probe"), kmax=3, overshoot=2, budget=0.0)
    assert set(rows) == _probe_triples(3, 2)
    for line in rows.values():
        assert "not proved in 0 s:" in line and line.endswith("<= alpha")
    # |V| = 840 and 1,260: rows of their own since the probe has no cap below the solver's.
    assert rows[(10, 3, 1)].endswith("not proved in 0 s: 252 <= alpha")
    assert rows[(9, 3, 2)].endswith("not proved in 0 s: 510 <= alpha")
    assert rows[(8, 3, 2)].split()[4] == ">=230"
    assert rows[(8, 3, 2)].endswith("not proved in 0 s: 230 <= alpha")
    assert "<= alpha" in rows[(9, 3, 1)]

def test_regime_probe_prints_proved_rows(capsys):
    rows = _probe_rows(capsys, _load("regime_probe"), kmax=2, overshoot=2, budget=60.0)
    assert set(rows) == _probe_triples(2, 2)
    alphas = {triple: int(line.split()[4]) for triple, line in rows.items()}
    assert alphas == {(6, 2, 1): 22, (7, 2, 1): 37, (5, 2, 2): 15, (6, 2, 2): 45}
    assert all(line.endswith("circle value fails past the edge") for line in rows.values())

def test_regime_probe_reports_too_large(capsys, monkeypatch):
    module = _load("regime_probe")

    def too_large(p, budget):
        raise TooLarge(f"|V|={cardinality_v(p)} exceeds the vertex cap 5000")

    monkeypatch.setattr(module, "max_antipodal_free", too_large)
    rows = _probe_rows(capsys, module, kmax=2, overshoot=1, budget=1.0)
    assert set(rows) == {(6, 2, 1), (5, 2, 2)}
    assert rows[(6, 2, 1)].endswith("skipped: |V|=60 exceeds the vertex cap 5000")

def _summary(capsys, budget):
    assert _load("summary_table").run(nmax=5, kmax=2, budget=budget) == 0
    return capsys.readouterr().out.splitlines()

def test_summary_table_lists_every_instance_as_skipped_at_budget_zero(capsys):
    lines = _summary(capsys, 0.0)
    assert lines[0] == "exactly solved: 0 instances"
    assert all(line.endswith(" 0 times") for line in lines[1:6])
    triples = [(n, k, l) for n in range(2, 6) for k in (1, 2) for l in range(1, k + 1) if k + l <= n]
    assert lines[6] == f"  skipped (too large or budget): {triples}"

def test_summary_table_counts_match_the_table(capsys):
    lines = _summary(capsys, 60.0)
    assert cli_main(["table", "5", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(row["exact"] for row in rows)
    assert lines[0] == f"exactly solved: {len(rows)} instances"
    for line, name in zip(lines[1:], ["example1", "example2", "thm1", "thm2", "fk1"]):
        attained = sum(row[name] == row["alpha"] for row in rows)
        assert line == f"  optimum attained by {name:<9} {attained:>3} times"
    assert len(lines) == 6

def _bench_result(wall, setup, failed=0):
    return {"correct": not failed, "attempted": 10, "failed": failed, "metrics": {
        "setup_s": {"value": setup, "unit": "s"}, "wall_s": {"value": wall, "unit": "s"}}}

def test_bench_pairs_summarizes_canned_runs(tmp_path):
    module = _load("bench_pairs")
    parent = [_bench_result(w, 0.2) for w in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [_bench_result(w, s, f) for w, s, f in ((0.5, 0.1, 0), (2.5, 0.2, 1), (1.0, 0.3, 0), (3.0, 0.2, 0), (6.0, 0.1, 0))]
    summary = module.summarize(parent, change)
    assert summary["pairs"] == 5
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["attempted"] == {"parent": 50, "change": 50}
    wall = summary["metrics"]["wall_s"]
    assert (wall["parent_median"], wall["change_median"]) == (3.0, 2.5)
    assert wall["parent_iqr"] == [1.5, 4.5]
    assert wall["change_lower"] == 3
    assert wall["change"] == [0.5, 2.5, 1.0, 3.0, 6.0] and wall["unit"] == "s"
    setup = summary["metrics"]["setup_s"]
    assert setup["parent_iqr"] == [0.2, 0.2] and setup["change_lower"] == 2
    assert module.quartiles([7.0]) == [7.0, 7.0]
    # Each checkout's commit, or None outside a git checkout, and the machine.
    plain, repo = tmp_path / "plain", tmp_path / "repo"
    plain.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "init"], check=True)
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
    assert module.commit(str(repo)) == head and len(head) == 40
    assert module.commit(str(plain)) is None
    host = module.machine()
    assert set(host) == {"python", "nproc", "platform"}
    assert host["python"] == platform.python_version() and host["nproc"] >= 1

def test_bench_pairs_flags_medians_past_the_bounds():
    module = _load("bench_pairs")
    parent = [_bench_result(w, 0.100) for w in (1.0, 1.0, 1.0)]
    change = [_bench_result(w, 0.124) for w in (1.2, 1.3, 1.3)]
    metrics = module.summarize(parent, change)["metrics"]
    # wall_s +30% against 25% is over; setup_s +24% is not.
    bounds = {"wall_s": (0.25, "lower"), "setup_s": (0.25, "lower")}
    assert module.over_bound(metrics, bounds) == ["wall_s"]
    assert module.over_bound(metrics, {"setup_s": (0.2, "lower"), "wall_s": (0.5, "lower")}) == ["setup_s"]
    # For a metric where higher is better, a rise is never over.
    assert module.over_bound(metrics, {"wall_s": (0.01, "higher"), "setup_s": (0.01, "higher")}) == []
    fewer = module.summarize(change, parent)["metrics"]
    assert module.over_bound(fewer, {"wall_s": (0.2, "higher"), "setup_s": (0.2, "higher")}) == ["wall_s"]
    # A metric without a bound is not judged.
    assert module.over_bound(metrics, {}) == []
    # The bounds are the repository's own.
    bounds = module.end_to_end_bounds()
    assert bounds["peak_rss_mb"] == (0.05, "lower") and bounds["proved"] == (0.01, "higher")


def test_bench_pairs_alternates_and_ends_with_the_summary(capsys, monkeypatch):
    module = _load("bench_pairs")
    calls = []

    def fake_run(root, workload, seconds, seed):
        calls.append((root, workload, seconds, seed))
        return _bench_result(1.0 if root == "old" else 0.5, 0.2)

    monkeypatch.setattr(module, "run_once", fake_run)
    monkeypatch.setattr(module, "commit", lambda root: f"{root}-head")
    argv = ["old", "new", "--workload", "certify", "--pairs", "3", "--seconds", "2", "--seed", "4"]
    assert module.main(argv) == 0
    assert [c[0] for c in calls] == ["old", "new", "new", "old", "old", "new"]
    assert {c[1:] for c in calls} == {("certify", 2.0, 4)}
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["metrics"]["wall_s"]["change_lower"] == 3
    assert (summary["workload"], summary["pairs"], summary["seed"]) == ("certify", 3, 4)
    assert lines[0] == "certify, 3 pairs of 2 s runs at seed 4: parent -> change"
    assert summary["commits"] == {"parent": "old-head", "change": "new-head"}
    assert summary["machine"] == module.machine()
    assert summary["over_bound"] == []
