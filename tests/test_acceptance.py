"""Acceptance suite: eleven go/no-go checks, one printed line each.

Each test computes its criterion, prints a single [PASS]/[FAIL] line to
the real terminal (bypassing capture), then asserts.  Time caps are part
of the criteria and are asserted alongside the mathematical content.
"""

import random
from math import comb, factorial
from time import perf_counter

from antipodal import (
    Params,
    antipodal_degree,
    bound_table,
    cardinality_v,
    certify_theorem1,
    choose,
    deletion_procedure,
    ekr_bound,
    enumerate_v,
    example1,
    example2,
    fk1_bound,
    lemma3_count,
    lemma3_sweep,
    max_antipodal_free,
    max_intersecting,
    theorem1_bound,
    theorem2_bound,
    verify_prop1_exhaustive,
)
from antipodal.constructions import Permutation
from antipodal.circle import double_count_check
from _brute import antipodal_pair_counts, brute_vector_strings


def _report(capsys, num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[{tag}] criterion {num:>2}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _valid_params(nmax, kmax):
    return [
        (n, k, l)
        for n in range(2, nmax + 1)
        for k in range(1, min(kmax, n) + 1)
        for l in range(1, k + 1)
        if k + l <= n
    ]


def test_criterion_01_theorem2_tight(capsys):
    t0 = perf_counter()
    r4 = max_antipodal_free(Params(4, 2, 1))
    t4 = perf_counter() - t0
    t0 = perf_counter()
    r5 = max_antipodal_free(Params(5, 2, 1))
    t5 = perf_counter() - t0
    ok = (
        r4.proof_of_optimality
        and r4.optimum == 6 == theorem2_bound(Params(4, 2, 1))
        and r5.proof_of_optimality
        and r5.optimum == 12 == theorem2_bound(Params(5, 2, 1))
        and t4 < 1.0
        and t5 < 1.0
    )
    _report(
        capsys,
        1,
        ok,
        f"alpha(4,2,1)={r4.optimum}=thm2, alpha(5,2,1)={r5.optimum}=thm2 "
        f"({t4:.2f}s, {t5:.2f}s; cap 1s each)",
    )


def test_criterion_02_fk1_tight(capsys):
    t0 = perf_counter()
    r4 = max_antipodal_free(Params(4, 2, 1))
    r6 = max_antipodal_free(Params(6, 2, 1))
    elapsed = perf_counter() - t0
    ok = (
        r4.proof_of_optimality
        and r4.optimum == 6 == 2 * comb(3, 2)
        and r6.proof_of_optimality
        and r6.optimum == 22 == 2 * comb(3, 2) + comb(4, 2) + comb(5, 2)
        and r6.optimum == fk1_bound(6, 2)
        and elapsed < 60.0
    )
    _report(
        capsys,
        2,
        ok,
        f"alpha(4,2,1)={r4.optimum}=2C(3,2), alpha(6,2,1)={r6.optimum}=fk1 "
        f"({elapsed:.2f}s; cap 60s)",
    )


def test_criterion_03_theorem1_tight_at_k_equals_l(capsys):
    t0 = perf_counter()
    p = Params(6, 2, 2)
    r = max_antipodal_free(p)
    elapsed = perf_counter() - t0
    ok = (
        r.proof_of_optimality
        and r.optimum == 45 == theorem1_bound(p) == len(example1(p))
        and elapsed < 10.0
    )
    _report(
        capsys,
        3,
        ok,
        f"alpha(6,2,2)={r.optimum}=thm1=|example1| ({elapsed:.2f}s; cap 10s)",
    )


def test_criterion_04_degree_oracle(capsys):
    t0 = perf_counter()
    checked = 0
    mismatches = []
    variant_agrees_somewhere = []
    for n, k, l in _valid_params(9, 4):
        p = Params(n, k, l)
        strings = brute_vector_strings(n, k, l)
        counts = antipodal_pair_counts(strings, l)
        deg = antipodal_degree(p)
        checked += len(strings)
        if not (counts == deg).all():
            mismatches.append((n, k, l))
        variant = comb(k, l) * choose(n - k - l, k - 2 * l)
        if (n, k, l) == (5, 2, 1) and variant == deg:
            variant_agrees_somewhere.append((n, k, l))
        if k == l and variant == deg:
            variant_agrees_somewhere.append((n, k, l))
    elapsed = perf_counter() - t0
    ok = not mismatches and not variant_agrees_somewhere and elapsed < 60.0
    _report(
        capsys,
        4,
        ok,
        f"{checked} vertices across n<=9,k<=4 match C(k,l)C(n-k-l,k-l); "
        f"k-2l variant wrong at (5,2,1) and all k=l ({elapsed:.1f}s; cap 60s)",
    )


def test_criterion_05_ekr_small(capsys):
    t0 = perf_counter()
    got = {}
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        r = max_intersecting(n, k)
        got[(n, k)] = (r.optimum, r.proof_of_optimality)
    elapsed = perf_counter() - t0
    ok = (
        got[(4, 2)] == (3, True)
        and got[(5, 2)] == (4, True)
        and got[(6, 3)] == (10, True)
        and all(got[nk][0] == ekr_bound(*nk) for nk in got)
        and elapsed < 10.0
    )
    _report(
        capsys,
        5,
        ok,
        f"max intersecting (4,2)={got[(4,2)][0]}, (5,2)={got[(5,2)][0]}, "
        f"(6,3)={got[(6,3)][0]} = C(n-1,k-1) ({elapsed:.2f}s; cap 10s)",
    )


def test_criterion_06_prop1_exhaustive(capsys):
    t0 = perf_counter()
    r1 = verify_prop1_exhaustive(4, 2, 2)
    r2 = verify_prop1_exhaustive(5, 2, 3)
    elapsed = perf_counter() - t0
    ok = (
        r1.counterexamples == 0
        and r2.counterexamples == 0
        and r1.pairs_examined > 0
        and r2.pairs_examined > 0
        and elapsed < 600.0
    )
    _report(
        capsys,
        6,
        ok,
        f"(4,2,2): {r1.pairs_examined} maximal pairs, 0 counterexamples; "
        f"(5,2,3): {r2.pairs_examined} pairs, 0 counterexamples ({elapsed:.2f}s; cap 600s)",
    )


def test_criterion_07_pipeline(capsys):
    t0 = perf_counter()
    failures = []
    count = 0
    for n, k, l in _valid_params(8, 3):
        p = Params(n, k, l)
        for build in (example1, example2):
            report = certify_theorem1(build(p))
            count += 1
            if not report.ok:
                failures.append((n, k, l, build.__name__))
    survivors, trace = deletion_procedure(example1(Params(4, 2, 1)))
    trace_ok = (
        trace.survivor_size == 3
        and trace.deleted == ("++-0",)
        and set(survivors.strings()) == {"++0-", "+0+-", "0++-"}
        and trace.deletions[((1,), (3,))] == 1
    )
    elapsed = perf_counter() - t0
    ok = not failures and trace_ok and elapsed < 300.0
    _report(
        capsys,
        7,
        ok,
        f"{count} pipeline runs clean over n<=8,k<=3; (4,2,1) trace gives |F'|=3 "
        f"({elapsed:.1f}s; cap 300s)",
    )


def test_criterion_08_interval_cap(capsys):
    t0 = perf_counter()
    params = [p for p in _valid_params(7, 7) if 2 * p[1] <= p[0] <= 3 * p[1] - p[2]]
    worst = {}
    for n, k, l in params:
        p = Params(n, k, l)
        sweep = lemma3_sweep(example2(p), exhaustive=True)
        worst[(n, k, l)] = sweep.max_observed
        assert sweep.sigmas_checked == factorial(n)
    capped = all(worst[(n, k, l)] <= k for n, k, l in params)
    control = lemma3_count(enumerate_v(Params(4, 2, 1)), Permutation(tuple(range(1, 5))))
    elapsed = perf_counter() - t0
    ok = capped and control == 4 > 2 and len(params) >= 9 and elapsed < 300.0
    _report(
        capsys,
        8,
        ok,
        f"|H(sigma) cap example2| <= k over all sigma, {len(params)} circle-regime "
        f"params n<=7; control |H(id) cap V(4,2,1)|={control}>2 ({elapsed:.1f}s; cap 300s)",
    )


def test_criterion_09_double_count(capsys):
    t0 = perf_counter()
    rng = random.Random(901)
    params = [p for p in _valid_params(7, 7) if 2 * p[1] <= p[0]]
    bad = []
    families_checked = 0
    for n, k, l in params:
        p = Params(n, k, l)
        full = enumerate_v(p)
        families = [full, example1(p), example2(p)]
        for _ in range(20):
            keep = set(rng.sample(full.strings(), rng.randint(0, len(full))))
            families.append(full.restrict(lambda v: str(v) in keep))
        for fam in families:
            rep = double_count_check(fam, exhaustive=True)
            families_checked += 1
            rhs = len(fam) * n * factorial(k) * factorial(l) * factorial(n - k - l)
            if rep.identity_lhs != rhs or rep.identity_rhs != rhs:
                bad.append((n, k, l, len(fam)))
    elapsed = perf_counter() - t0
    ok = not bad and elapsed < 300.0
    _report(
        capsys,
        9,
        ok,
        f"sum over sigma = |F| n k! l! (n-k-l)! exactly for {families_checked} "
        f"families across {len(params)} params ({elapsed:.1f}s; cap 300s)",
    )


def test_criterion_10_algebraic_identity(capsys):
    bad = []
    count = 0
    for k in range(1, 7):
        for n in range(2 * k, 3 * k):
            p = Params(n, k, 1)
            count += 1
            if theorem2_bound(p) != k * comb(n - 1, k):
                bad.append((n, k))
    ok = not bad and count > 0
    _report(
        capsys,
        10,
        ok,
        f"thm2(n,k,1) = k C(n-1,k) at all {count} pairs with 2k <= n <= 3k-1, k <= 6",
    )


def test_criterion_11_global_sanity(capsys):
    t0 = perf_counter()
    solved = 0
    violations = []
    for n, k, l in _valid_params(7, 7):
        p = Params(n, k, l)
        if cardinality_v(p) > 600:
            continue
        result = max_antipodal_free(p, budget=30.0)
        if not result.proof_of_optimality:
            continue
        solved += 1
        alpha = result.optimum
        table = bound_table(p)
        lower = max(table["example1"].value, table["example2"].value)
        if alpha < lower:
            violations.append((n, k, l, "below max example"))
        for name in ("thm1", "thm2", "fk1"):
            e = table[name]
            if e.applicable and alpha > e.value:
                violations.append((n, k, l, f"above {name}"))
    elapsed = perf_counter() - t0
    ok = not violations and solved >= 34 and elapsed < 600.0
    _report(
        capsys,
        11,
        ok,
        f"max(|ex1|,|ex2|) <= alpha <= every applicable bound on all {solved} "
        f"exactly solved instances n<=7 ({elapsed:.1f}s)",
    )
