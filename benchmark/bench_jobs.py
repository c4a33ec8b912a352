"""Seeded job lists and answer oracles for the benchmark workloads.

`build(workload, seed, workdir)` makes a workload's inputs from the seed,
writes the family files it needs into `workdir`, and returns the fixed
list of jobs.  A job's `run` calls the package only through its public
library functions and `antipodal.cli.main`; its `check` is the answer
oracle.  Oracles are plain code, never `assert`, so they still run under
`python -O`.

Workloads (why each exists is recorded in baseline.json):

* solve: branch and bound on seeded random subfamilies of V(n,k,l) at
  the largest keep fractions the solver proves quickly, Kneser
  instances, full V(6,2,1), and the three open instances under a short
  budget;
* certify: the construct -> certify/verify CLI chain over parameter
  triples up to n = 11, plus families with an antipodal pair (exit 1)
  and malformed family files (exit 2); nothing here searches;
* sweep: exhaustive permutation sweeps at n = 8 and the proposition-1
  sweep, each run with --threads 1 and then --threads 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import antipodal as ap
import antipodal.cli  # noqa: F401  (makes ap.cli available)

# Per-search wall budgets of the solve workload, in seconds.  The slowest
# proved search of the baseline (baseline.json) takes about 1 s, so 30 s
# leaves a wide margin and no proof can flip with machine load; at 0.5 s
# the baseline proves none of the three open instances.
WIDE_BUDGET = 30.0
FRONTIER_BUDGET = 0.5

# Exact alpha of full V(n,k,l) for the instances the workload solves
# (from `antipodal table 7 7`), and the lower bounds the three open
# instances must meet.
FULL_V_ALPHA = {(6, 2, 1): 22}
FRONTIER_LOWER = {(7, 2, 1): 37, (7, 3, 1): 60, (7, 3, 2): 90}
KNESER = ((8, 3), (9, 3), (10, 3))

# (triple, keep fraction) of the seeded random subfamilies.  Work grows
# steeply with the fraction; at these the solver proves each subfamily
# in well under a second.  A subfamily job solves one subfamily of each
# triple in turn: single subfamilies vary several-fold in node count, and
# the sum over four keeps the slowest jobs, and so job_tail_ms, from
# depending on a few unlucky draws.
SUBFAMILIES = (((7, 2, 1), 0.70), ((7, 3, 1), 0.60), ((7, 3, 2), 0.55), ((8, 2, 1), 0.55))
SUBFAMILY_JOBS = 30

CERTIFY_MAX_V = 2600
THM2_SAMPLES = 100

DOUBLE_COUNT = ((8, 2, 1), (8, 2, 2), (8, 3, 1), (8, 3, 2), (8, 4, 1))
LEMMA3 = ((8, 3, 1), (8, 4, 1), (8, 4, 2))
PROP1 = ((4, 2, 2), (5, 2, 2), (5, 2, 3), (5, 3, 2), (6, 1, 5), (6, 5, 1), (7, 1, 6), (12, 1, 1))


@dataclass(frozen=True)
class Verdict:
    """Oracle result: answer accepted, answer carries a complete proof."""

    ok: bool
    proved: bool = False
    reason: str = ""


OK = Verdict(True)
PROVED = Verdict(True, True)


def fail(reason: str) -> Verdict:
    return Verdict(False, False, reason)


@dataclass
class Job:
    """One closed-loop request.  `check(outcome, earlier)` sees the
    outcomes of the jobs already run in the same pass, by name."""

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], Verdict]
    threads: int = 1


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    """Call the console entry point with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ap.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_job(name: str, argv: list[str], check) -> Job:
    return Job(name, lambda: run_cli(argv), check)


def _lines(text: str) -> dict[str, str]:
    """'key: value' lines of CLI output as a dict."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _expect_code(res: CliResult, code: int) -> Verdict | None:
    if res.code != code:
        return fail(f"exit {res.code}, expected {code}: {res.err.strip()[:200]}")
    return None


# ---------------------------------------------------------------- solve


def _check_antipodal_free(p, labels, optimum) -> str | None:
    """Why the witness is not an antipodal-free family of size optimum."""
    vecs = [ap.parse_vector(s) for s in labels]
    if len(set(labels)) != len(labels) or len(labels) != optimum:
        return f"witness has {len(set(labels))} distinct of {len(labels)} members, optimum {optimum}"
    members = set(labels)
    for v in vecs:
        for w in ap.antipodal_neighbors(v, p):
            if ap.format_vector(w) in members:
                return f"witness holds the antipodal pair {ap.format_vector(v)}, {ap.format_vector(w)}"
    for i, v in enumerate(vecs):
        for w in vecs[i + 1:]:
            if ap.is_antipodal(v, w, p):
                return f"is_antipodal flags {ap.format_vector(v)}, {ap.format_vector(w)}"
    return None


def _induced(g, keep: list[int]):
    pos = [-1] * g.n
    for new, old in enumerate(keep):
        pos[old] = new
    adj = []
    for old in keep:
        m = g.adj[old]
        mask = 0
        while m:
            low = m & -m
            j = pos[low.bit_length() - 1]
            if j >= 0:
                mask |= 1 << j
            m ^= low
        adj.append(mask)
    return ap.Graph(tuple(g.labels[i] for i in keep), tuple(adj))


def _subfamily_job(name: str, instances: list[tuple[object, frozenset[str]]]) -> Job:
    def run():
        out = []
        for p, family in instances:
            g = ap.antipodality_graph(p)
            h = _induced(g, [i for i, s in enumerate(g.labels) if s in family])
            out.append((h, ap.max_independent_set(h, budget=WIDE_BUDGET)))
        return out

    def check(out, _earlier) -> Verdict:
        for (p, family), (h, res) in zip(instances, out):
            if not res.proof_of_optimality:
                return fail(f"{p} not proved within {WIDE_BUDGET} s")
            if not set(res.witness) <= family:
                return fail(f"{p} witness leaves the subfamily")
            index = {s: i for i, s in enumerate(h.labels)}
            mask = sum(1 << index[s] for s in set(res.witness))
            if any(h.adj[index[s]] & mask for s in res.witness):
                return fail(f"{p} witness is not independent in the induced graph")
            why = _check_antipodal_free(p, res.witness, res.optimum)
            if why:
                return fail(f"{p} {why}")
        return PROVED

    return Job(name, run, check)


def _search_json(res: CliResult) -> dict:
    payload, _end = json.JSONDecoder().raw_decode(res.out)
    return payload


def _kneser_job(n: int, k: int) -> Job:
    argv = ["search", "--kneser", str(n), str(k), "--budget", str(WIDE_BUDGET), "--json"]

    def check(res: CliResult, _earlier) -> Verdict:
        bad = _expect_code(res, 0)
        if bad:
            return bad
        out = _search_json(res)
        if not out["proof_of_optimality"]:
            return fail(f"not proved within {WIDE_BUDGET} s")
        ekr = math.comb(n - 1, k - 1)
        if out["optimum"] != ekr or ap.ekr_bound(n, k) != ekr:
            return fail(f"optimum {out['optimum']}, EKR {ekr}")
        sets = [frozenset(map(int, s.split(","))) for s in out["witness"]]
        if len(set(sets)) != out["optimum"] or any(len(s) != k for s in sets):
            return fail("witness is not a family of optimum many k-sets")
        if any(not (a & b) for i, a in enumerate(sets) for b in sets[i + 1:]):
            return fail("witness is not intersecting")
        return PROVED

    return _cli_job(f"kneser/{n}-{k}", argv, check)


def _full_v_job(p, budget: float, witness: Path) -> Job:
    triple = (p.n, p.k, p.l)
    argv = ["search", *map(str, triple), "--budget", str(budget), "--json", "--witness", str(witness)]

    def check(res: CliResult, _earlier) -> Verdict:
        bad = _expect_code(res, 0)
        if bad:
            return bad
        out = _search_json(res)
        proved = out["proof_of_optimality"]
        if triple in FULL_V_ALPHA:
            if not proved or out["optimum"] != FULL_V_ALPHA[triple]:
                return fail(f"alpha {out['optimum']} proved={proved}, recorded {FULL_V_ALPHA[triple]}")
        elif out["optimum"] < FRONTIER_LOWER[triple]:
            return fail(f"lower bound {out['optimum']} below {FRONTIER_LOWER[triple]}")
        saved = ap.load_family(witness)
        if list(saved.strings()) != out["witness"]:
            return fail("witness file differs from the reported witness")
        why = _check_antipodal_free(p, out["witness"], out["optimum"])
        return fail(why) if why else Verdict(True, proved)

    return _cli_job(f"fullv/{p.n}-{p.k}-{p.l}", argv, check)


def _solve_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    pools = [(ap.Params(*t), ap.enumerate_v(ap.Params(*t)).strings(), f) for t, f in SUBFAMILIES]
    subfamily_jobs = []
    for i in range(SUBFAMILY_JOBS):
        instances = [(p, frozenset(rng.sample(labels, round(f * len(labels))))) for p, labels, f in pools]
        subfamily_jobs.append(_subfamily_job(f"sub/{i:02d}", instances))
    fixed = [_kneser_job(n, k) for n, k in KNESER]
    for triple in FULL_V_ALPHA:
        fixed.append(_full_v_job(ap.Params(*triple), WIDE_BUDGET, workdir / "witness-full.txt"))
    for triple in FRONTIER_LOWER:
        fixed.append(_full_v_job(ap.Params(*triple), FRONTIER_BUDGET, workdir / "witness-frontier.txt"))
    # Spread the fixed jobs evenly through the seeded ones.
    jobs = []
    step = len(subfamily_jobs) // len(fixed)
    for i, job in enumerate(fixed):
        jobs.append(job)
        jobs.extend(subfamily_jobs[i * step:(i + 1) * step])
    jobs.extend(subfamily_jobs[len(fixed) * step:])
    return jobs


# -------------------------------------------------------------- certify


def _certify_triples() -> list[tuple[int, int, int]]:
    out = []
    for n in range(6, 12):
        for k in range(2, 5):
            for l in range(1, k + 1):
                if k + l <= n and n >= 2 * k and ap.cardinality_v(ap.Params(n, k, l)) <= CERTIFY_MAX_V:
                    out.append((n, k, l))
    return out


def _theorem1_value(n: int, k: int, l: int) -> int:
    c = math.comb
    tail = c(n - 2 * l - 1, k - l - 1) if k > l else 0
    return c(n, k + l) * c(k + l - 1, l - 1) + c(n, 2 * l) * c(2 * l, l) * tail


def _expect(code: int, fields: dict[str, str] | None = None, last: str | None = None, proves=False):
    """Oracle for a CLI job: exit code, some 'key: value' fields, last line."""

    def check(res: CliResult, _earlier) -> Verdict:
        bad = _expect_code(res, code)
        if bad:
            return bad
        got = _lines(res.out)
        for key, want in (fields or {}).items():
            if got.get(key) != want:
                return fail(f"{key}: {got.get(key)!r}, expected {want!r}")
        lines = res.out.splitlines()
        if last is not None and (not lines or lines[-1] != last):
            return fail(f"last line {lines[-1:]!r}, expected {last!r}")
        return PROVED if proves else OK

    return check


def _malformed(rng: random.Random, fam, stem: Path) -> Path:
    """Write a seeded corruption of fam that the loader must reject."""
    p = fam.params
    kinds = ["badchar", "short", "overlong", "dup_header", "bad_header", "json_cut", "json_field"]
    if p.k + p.l < p.n:
        kinds.append("extra_plus")
    kind = rng.choice(kinds)
    if kind.startswith("json"):
        text = ap.family_to_json(fam)
        if kind == "json_cut":
            text = text[: rng.randrange(1, len(text) - 2)]
        else:
            text = text.replace('"vectors"', '"vektors"')
        path = stem.with_suffix(".json")
    else:
        lines = ap.family_to_text(fam).splitlines()
        i = rng.randrange(1, len(lines))
        v = lines[i]
        if kind == "badchar":
            j = rng.randrange(len(v))
            lines[i] = v[:j] + "x" + v[j + 1:]
        elif kind == "short":
            lines[i] = v[:-1]
        elif kind == "overlong":
            lines[i] = v + "0"
        elif kind == "extra_plus":
            j = v.index("0")
            lines[i] = v[:j] + "+" + v[j + 1:]
        elif kind == "dup_header":
            lines.insert(i, lines[0])
        else:
            lines[0] = f"V {p.n} {p.k} {p.n - p.k + 1}"  # k + l > n
        text = "\n".join(lines) + "\n"
        path = stem.with_suffix(".txt")
    path.write_text(text)
    return path


def _with_antipodal_pair(rng: random.Random, fam):
    """fam plus an antipodal partner of a random member, at a random place."""
    members = list(fam)
    v = rng.choice(members)
    w = rng.choice(ap.antipodal_neighbors(v, fam.params))
    members.insert(rng.randrange(len(members) + 1), w)
    return ap.VectorFamily(fam.params, members)


def _certify_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for n, k, l in _certify_triples():
        p = ap.Params(n, k, l)
        tag = f"{n}-{k}-{l}"
        v_size = ap.cardinality_v(p)
        in_circle = 2 * k <= n <= 3 * k - l
        sizes = {
            "example1": math.comb(n, k + l) * math.comb(k + l - 1, l - 1),
            "example2": math.comb(n - 1, k + l - 1) * math.comb(k + l - 1, k - 1),
        }
        for which, size in sizes.items():
            as_json = rng.random() < 0.5
            path = workdir / f"{which}-{tag}.{'json' if as_json else 'txt'}"
            fam_args = ["--family", str(path)]
            construct = ["construct", which, str(n), str(k), str(l), "-o", str(path)]
            jobs.append(
                _cli_job(
                    f"construct/{which}/{tag}",
                    construct + (["--json"] if as_json else []),
                    _expect(0, last=f"wrote {size} vectors to {path}"),
                )
            )
            jobs.append(
                _cli_job(
                    f"thm1/{which}/{tag}",
                    ["certify", "thm1", *fam_args],
                    _expect(
                        0,
                        {"family size": str(size), "two-term bound": str(_theorem1_value(n, k, l))},
                        last="certified",
                        proves=True,
                    ),
                )
            )
            for check in ("lemma1", "lemma2"):
                jobs.append(
                    _cli_job(
                        f"{check}/{which}/{tag}",
                        ["verify", check, *fam_args],
                        _expect(0, {"family size": str(size)}, last="ok", proves=True),
                    )
                )
            if in_circle:
                jobs.append(
                    _cli_job(
                        f"thm2/{which}/{tag}",
                        ["certify", "thm2", *fam_args, "--samples", str(THM2_SAMPLES),
                         "--seed", str(rng.randrange(1 << 30))],
                        _expect(
                            0,
                            {"family size": str(size), "circle bound": str(k * v_size // n)},
                            last="certified",
                            proves=True,
                        ),
                    )
                )

        base = ap.example1(p) if rng.random() < 0.5 else ap.example2(p)
        bad = _with_antipodal_pair(rng, base)
        bad_path = workdir / f"antipodal-{tag}.txt"
        ap.save_family(bad, bad_path)
        bad_args = ["--family", str(bad_path)]
        jobs.append(_cli_job(f"thm1/antipodal/{tag}", ["certify", "thm1", *bad_args], _expect(1, last="FAILED")))
        for check in ("lemma1", "lemma2"):
            jobs.append(_cli_job(f"{check}/antipodal/{tag}", ["verify", check, *bad_args], _expect(1)))
        if in_circle:
            jobs.append(
                _cli_job(
                    f"thm2/antipodal/{tag}",
                    ["certify", "thm2", *bad_args, "--samples", str(THM2_SAMPLES)],
                    _expect(1, last="FAILED"),
                )
            )

        broken = _malformed(rng, base, workdir / f"malformed-{tag}")
        command = rng.choice((["certify", "thm1"], ["verify", "lemma1"], ["verify", "lemma2"]))
        jobs.append(_cli_job(f"{command[1]}/malformed/{tag}", [*command, "--family", str(broken)], _expect(2)))
    return jobs


# ---------------------------------------------------------------- sweep


def _same_as(first: str, check):
    """Oracle for a --threads 2 job: its own check, plus stdout that is
    byte-identical to the --threads 1 run of the same command."""

    def both(res: CliResult, earlier: dict) -> Verdict:
        verdict = check(res, earlier)
        if verdict.ok and earlier.get(first) is None:
            return fail(f"{first} did not run first")
        if verdict.ok and earlier[first].out != res.out:
            return fail("stdout differs between --threads 1 and --threads 2")
        return verdict

    return both


def _sweep_pair(name: str, argv: list[str], check) -> list[Job]:
    one = f"{name}/t1"
    return [
        Job(one, lambda: run_cli(["--threads", "1", *argv]), check, threads=1),
        Job(f"{name}/t2", lambda: run_cli(["--threads", "2", *argv]), _same_as(one, check), threads=2),
    ]


def _double_count_check(size: int, p):
    rhs = size * p.n * math.factorial(p.k) * math.factorial(p.l) * math.factorial(p.n - p.k - p.l)
    return _expect(
        0,
        {
            "permutations checked": f"{math.factorial(p.n)} (exhaustive)",
            "sum over sigma": str(rhs),
            "closed form": str(rhs),
        },
        last="ok",
        proves=True,
    )


def _lemma3_check(p):
    expect = _expect(0, {"permutations checked": f"{math.factorial(p.n)} (exhaustive)"}, last="ok", proves=True)

    def check(res: CliResult, earlier) -> Verdict:
        verdict = expect(res, earlier)
        if not verdict.ok:
            return verdict
        line = _lines(res.out).get("max |H(sigma) cap F|", "")
        found = re.fullmatch(r"(\d+) \(cap (\d+)\)", line)
        if not found or int(found[2]) != p.k or int(found[1]) > p.k:
            return fail(f"interval cap line {line!r}")
        return verdict

    return check


def _prop1_check(res: CliResult, earlier) -> Verdict:
    verdict = _expect(0, {"counterexamples": "0"}, proves=True)(res, earlier)
    if verdict.ok and not _lines(res.out).get("maximal pairs examined", "").isdigit():
        return fail("no pair count printed")
    return verdict


def _sweep_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for n, k, l in DOUBLE_COUNT:
        p = ap.Params(n, k, l)
        full = ap.enumerate_v(p)
        keep = rng.uniform(0.05, 0.35)
        sparse = full.restrict(lambda v: rng.random() < keep)
        for label, fam in (("full", full), ("sparse", sparse)):
            path = workdir / f"dc-{label}-{n}-{k}-{l}.txt"
            ap.save_family(fam, path)
            argv = ["verify", "double-count", str(n), str(k), str(l), "--exhaustive", "--family", str(path)]
            jobs += _sweep_pair(f"double-count/{label}/{n}-{k}-{l}", argv, _double_count_check(len(fam), p))
    for n, k, l in LEMMA3:
        p = ap.Params(n, k, l)
        keep = rng.uniform(0.5, 1.0)
        fam = ap.example2(p).restrict(lambda v: rng.random() < keep)
        path = workdir / f"lemma3-{n}-{k}-{l}.txt"
        ap.save_family(fam, path)
        argv = ["verify", "lemma3", str(n), str(k), str(l), "--exhaustive", "--family", str(path)]
        jobs += _sweep_pair(f"lemma3/{n}-{k}-{l}", argv, _lemma3_check(p))
    for m, a, b in PROP1:
        jobs += _sweep_pair(f"prop1/{m}-{a}-{b}", ["verify", "prop1", str(m), str(a), str(b)], _prop1_check)
    return jobs


_JOB_LISTS = {"solve": _solve_jobs, "certify": _certify_jobs, "sweep": _sweep_jobs}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's job list for this seed; writes its input files."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _JOB_LISTS[workload](random.Random(f"{workload}:{seed}"), workdir)
