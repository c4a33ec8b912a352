"""Deletion pipeline: slices, cross-intersection, deletion trace, certification."""

import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    BadPair,
    BadT,
    Params,
    RangeError,
    TooLarge,
    VectorFamily,
    antipodal_free_precheck,
    antipodal_neighbors,
    certify_theorem1,
    choose,
    deletion_procedure,
    enumerate_v,
    example1,
    example2,
    family_b,
    format_vector,
    is_antipodal,
    lemma1_check,
    lemma2_check,
    max_antipodal_free,
    subfamily,
    theorem1_bound,
    theorem2_certify,
)

from antipodal import theorem1
from _brute import brute_deletion, brute_family_b, brute_lemma1, brute_subfamily

PIPELINE_PARAMS = [
    (n, k, l)
    for n in range(2, 7)
    for k in range(1, n)
    for l in range(1, k + 1)
    if k + l <= n
]


# ---------------------------------------------------------------- slices

def test_subfamily_frozen():
    fam = example1(Params(4, 2, 1))
    s = subfamily(fam, {1}, {4})
    assert set(s) == {frozenset({2}), frozenset({3})}
    assert s.uniformity == 1  # k - l
    assert set(subfamily(fam, {1}, {3})) == {frozenset({2})}


def test_subfamily_rejects_bad_pairs():
    fam = example1(Params(4, 2, 1))
    with pytest.raises(BadPair):
        subfamily(fam, {1, 2}, {3})  # wrong size
    with pytest.raises(BadPair):
        subfamily(fam, {1}, {1})  # not disjoint
    with pytest.raises(RangeError):
        subfamily(fam, {9}, {1})
    with pytest.raises(RangeError):
        subfamily(fam, ["x"], [2])  # not an int


def test_subfamily_uniformity_is_k_minus_l():
    fam = example2(Params(6, 3, 2))
    s = subfamily(fam, {1, 2}, {3, 4})
    assert s.uniformity == 1
    for member in s:
        assert len(member) == 1


SLICE_PARAMS = [
    (n, k, l)
    for n in range(2, 9)
    for k in range(1, n)
    for l in range(1, k + 1)
    if k + l <= n and choose(n, k) * choose(n - k, l) <= 600
]


@given(st.sampled_from(SLICE_PARAMS), st.data())
@settings(max_examples=60, deadline=None)
def test_slices_match_frozenset_oracle(triple, data):
    # A drawn subfamily in a drawn order, with an antipodal pair planted
    # when the flag says so and n >= 2k allows one.
    p = Params(*triple)
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    full = list(enumerate_v(p))
    members = rng.sample(full, data.draw(st.integers(0, min(len(full), 80)), label="size"))
    if data.draw(st.booleans(), label="plant") and p.n >= 2 * p.k:
        v = rng.choice(full)
        for u in (v, rng.choice(antipodal_neighbors(v, p))):
            members.insert(rng.randrange(len(members) + 1), u)
    fam = VectorFamily(p, members)

    assert json.dumps(lemma1_check(fam).as_dict()) == json.dumps(brute_lemma1(fam))
    survivors, report = deletion_procedure(fam)
    expected_survivors, expected_report = brute_deletion(fam)
    assert list(survivors.strings()) == expected_survivors
    assert json.dumps(report.as_dict()) == json.dumps(expected_report)

    cells = list(range(1, p.n + 1))
    rng.shuffle(cells)
    a, b = cells[: p.l], cells[p.l : 2 * p.l]
    assert list(subfamily(fam, a, b)) == brute_subfamily(fam, a, b)
    t = cells[: p.k + p.l]
    if members:  # also the support of a member, which is never empty
        member = rng.choice(members)
        t = rng.choice([t, sorted(member.plus | member.minus)])
    assert list(family_b(fam, t)) == brute_family_b(fam, t)


# ---------------------------------------------------------------- lemma 1

def test_lemma1_clean_on_examples():
    for n, k, l in PIPELINE_PARAMS:
        p = Params(n, k, l)
        assert lemma1_check(example1(p)).ok, (n, k, l)
        assert lemma1_check(example2(p)).ok, (n, k, l)


def test_lemma1_flags_full_v():
    report = lemma1_check(enumerate_v(Params(4, 2, 1)))
    assert not report.ok
    stages = {v.stage for v in report.violations}
    assert stages == {"lemma1"}
    # each violation names the antipodal pair it reconstructs
    datum = report.violations[0].data
    assert "antipodal_pair" in datum
    assert set(datum) >= {"A", "B", "C", "D"}


def _seeded_subfamilies(p: Params, seed: int):
    """Random subfamilies of V (mostly holding antipodal pairs) and of the
    two examples (antipodal-free), from random.Random(seed)."""
    rng = random.Random(seed)
    for source in (enumerate_v(p), example1(p), example2(p)):
        members = list(source)
        for size in (len(members) // 4, len(members) // 2, len(members)):
            yield VectorFamily(p, rng.sample(members, size))


@pytest.mark.parametrize("triple", [(4, 2, 1), (5, 2, 2), (6, 2, 1), (6, 3, 2), (7, 3, 2)], ids=str)
def test_lemma1_violations_are_exactly_the_antipodal_pairs(triple):
    # certify_theorem1 skips lemma 1 after the precheck on this fact: one
    # violation per antipodal pair, and none on an antipodal-free family.
    p = Params(*triple)
    pairs = 0
    for seed in range(3):
        for fam in _seeded_subfamilies(p, seed):
            found = Counter(frozenset(v.data["antipodal_pair"]) for v in lemma1_check(fam).violations)
            members = list(fam)
            expected = {
                frozenset((format_vector(v), format_vector(w)))
                for i, v in enumerate(members)
                for w in members[i + 1 :]
                if is_antipodal(v, w, p)
            }
            assert set(found) == expected, (triple, seed, len(fam))
            assert set(found.values()) <= {1}
            pairs += len(expected)
    assert pairs  # full V holds antipodal pairs at every triple here


def test_certify_builds_the_slices_once_and_skips_lemma1(monkeypatch):
    calls = Counter()
    real_slices = theorem1._slices

    def counted_slices(fam):
        calls["_slices"] += 1
        return real_slices(fam)

    def no_lemma1(fam):
        raise AssertionError("certify_theorem1 ran lemma1_check")

    monkeypatch.setattr(theorem1, "_slices", counted_slices)
    monkeypatch.setattr(theorem1, "lemma1_check", no_lemma1)
    for triple in ((4, 2, 1), (5, 2, 2), (6, 3, 2), (7, 3, 2)):
        p = Params(*triple)
        for build in (example1, example2):
            calls.clear()
            assert certify_theorem1(build(p)).ok
            assert calls["_slices"] == 1, (triple, build.__name__)
    calls.clear()
    assert not certify_theorem1(enumerate_v(Params(5, 2, 1))).ok
    assert calls["_slices"] == 0  # the precheck stops an antipodal input


def test_lemma1_reconstruction_is_antipodal():
    from antipodal import is_antipodal, parse_vector

    p = Params(4, 2, 1)
    report = lemma1_check(enumerate_v(p))
    for v in report.violations:
        a, b = v.data["antipodal_pair"]
        assert is_antipodal(parse_vector(a), parse_vector(b), p)


# ---------------------------------------------------------------- deletion

def test_deletion_trace_frozen_4_2_1():
    fam = example1(Params(4, 2, 1))
    survivors, report = deletion_procedure(fam)
    assert report.threshold == 1  # C(n-2l-1, k-l-1) = C(1,0)
    assert report.deleted == ("++-0",)
    assert set(survivors.strings()) == {"++0-", "+0+-", "0++-"}
    assert report.survivor_size == 3
    # the deletion is charged to the first pair that hits it, in lex order
    assert report.deletions[((1,), (3,))] == 1
    assert report.deletions[((2,), (3,))] == 0  # triggers later, nothing fresh
    assert ((1,), (4,)) not in report.deletions  # slice size 2 > threshold
    assert sum(report.deletions.values()) == 1
    assert report.accounting_lower_bound == 4 - 6 * 2 * 1  # |F| - C(4,2) C(2,1) t


def test_deletion_pair_counts_cover_all_ordered_pairs():
    fam = example1(Params(4, 2, 1))
    _, report = deletion_procedure(fam)
    assert len(report.pair_counts) == 12  # 4 * 3 ordered disjoint 1-sets
    assert report.pair_counts[((1,), (4,))] == 2


@pytest.mark.parametrize("triple", [(9, 3, 2), (10, 4, 3), (11, 2, 2)], ids=str)
def test_pair_walks_keep_pair_order_on_sparse_families(triple):
    # About a fifth of V: most slices are empty and take the one-step path
    # of both walks.  Keys still come in pair order: every ordered pair
    # for the deletion, with the triggered ones (count <= threshold) in
    # the same order, and each unordered pair at its first ordering for
    # lemma 1.  Values and order also match the frozenset oracles.
    p = Params(*triple)
    rng = random.Random(f"sparse:{triple}")
    fam = enumerate_v(p).restrict_codes(lambda c: rng.random() < 0.2)
    order = [(a, b) for a, b, _, _ in theorem1._ordered_pairs(p)]

    survivors, report = deletion_procedure(fam)
    assert list(report.pair_counts) == order
    assert list(report.deletions) == [key for key in order if report.pair_counts[key] <= report.threshold]
    assert 0 in report.pair_counts.values() and len(report.deletions) < len(order)
    expected_survivors, expected_report = brute_deletion(fam)
    assert list(survivors.strings()) == expected_survivors
    assert json.dumps(report.as_dict()) == json.dumps(expected_report)

    report = lemma1_check(fam)
    assert list(report.pair_counts) == [key for a, b in order if a < b for key in ((a, b), (b, a))]
    assert json.dumps(report.as_dict()) == json.dumps(brute_lemma1(fam))


def test_pair_walk_over_the_cap_raises_before_building(monkeypatch):
    # C(3000,1) C(2999,1) ordered pairs: refused by count, before the
    # l-subsets or the slices are built.
    monkeypatch.setattr(theorem1, "subset_masks", None)
    monkeypatch.setattr(theorem1, "_slices", None)
    fam = VectorFamily(Params(3000, 2, 1), [])
    for check in (lemma1_check, deletion_procedure, lemma2_check, certify_theorem1):
        with pytest.raises(TooLarge, match="8997000 ordered pairs"):
            check(fam)


def test_pair_walk_costs_the_pair_count(monkeypatch):
    # At n = 2l the pairs are a small share of all C(n, l)**2 pairs of
    # l-sets: (18, 9, 9) has 48,620 of them against 2.36e9.  The walk
    # lists the l-subsets of [n] once and, per A, those of [n] - A.
    listed, walk = [], theorem1.subset_masks

    def counting_subset_masks(mask, r):
        masks = walk(mask, r)
        listed.append(len(masks))
        return masks

    monkeypatch.setattr(theorem1, "subset_masks", counting_subset_masks)
    pairs = choose(18, 9)
    fam = VectorFamily(Params(18, 9, 9), [])
    for check in (lemma1_check, lambda f: deletion_procedure(f)[1]):
        listed.clear()
        assert len(check(fam).pair_counts) == pairs
        assert listed == [pairs] + [1] * pairs


def test_deletion_accounting_identity():
    for n, k, l in PIPELINE_PARAMS:
        p = Params(n, k, l)
        for build in (example1, example2):
            fam = build(p)
            survivors, report = deletion_procedure(fam)
            assert len(survivors) == len(fam) - sum(report.deletions.values())
            assert report.ok, (n, k, l, build.__name__)


@given(st.sampled_from(PIPELINE_PARAMS), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_deletion_on_random_subfamilies(p, rng):
    park = Params(*p)
    fam = enumerate_v(park)
    keep = set(rng.sample(fam.strings(), rng.randint(0, len(fam))))
    sub = fam.restrict(lambda v: str(v) in keep)
    survivors, report = deletion_procedure(sub)
    assert report.survivor_size == len(survivors) <= len(sub)
    assert report.survivor_size == len(sub) - sum(report.deletions.values())
    for s in survivors:
        assert s in sub


# ---------------------------------------------------------------- family_b

def test_family_b_frozen():
    fam = example1(Params(4, 2, 1))
    survivors, _ = deletion_procedure(fam)
    assert set(family_b(survivors, {1, 2, 4})) == {frozenset({4})}
    assert len(family_b(survivors, {1, 2, 3})) == 0


@pytest.mark.parametrize(
    "a, b, message",
    [({9}, {1}, "index 9 outside [1..4]"), ({1}, {0}, "index 0 outside [1..4]"), ({-2}, {1}, "index -2 outside [1..4]"),
     ({1.5}, {2}, "index 1.5 outside [1..4]"), ({7}, {9}, "index 9 outside [1..4]"),
     ({9}, {7}, "index 9 outside [1..4]")],
)
def test_subfamily_names_the_first_index_outside(a, b, message):
    # A and B are checked as the one set A | B, in its iteration order.
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        subfamily(example1(Params(4, 2, 1)), a, b)


def test_subfamily_and_family_b_take_bools_as_ints():
    fam = example1(Params(4, 2, 1))
    assert set(subfamily(fam, {True}, {3})) == set(subfamily(fam, {1}, {3}))
    assert set(family_b(fam, {True, 2, 3})) == set(family_b(fam, {1, 2, 3}))
    with pytest.raises(RangeError, match=r"^index False outside \[1\.\.4\]$"):
        family_b(fam, {False, 2, 3})


def test_family_b_validates_t():
    fam = example1(Params(4, 2, 1))
    with pytest.raises(BadT):
        family_b(fam, {1, 2})
    with pytest.raises(RangeError):
        family_b(fam, {1, 2, 9})
    with pytest.raises(RangeError):
        family_b(fam, ["a", "b", "c"])  # not ints


# ---------------------------------------------------------------- certify

def test_certify_passes_on_examples_small():
    for n, k, l in PIPELINE_PARAMS:
        p = Params(n, k, l)
        for build in (example1, example2):
            report = certify_theorem1(build(p))
            assert report.ok, (n, k, l, build.__name__, report.violations)
            assert report.final_bound == theorem1_bound(p)
            assert report.family_size <= report.final_bound


def test_certify_rejects_full_v():
    report = certify_theorem1(enumerate_v(Params(4, 2, 1)))
    assert not report.ok
    assert report.violations[0].stage == "antipodal-free precheck"
    assert report.final_bound is None  # later stages never ran


def test_certify_survivor_cap_recorded():
    p = Params(5, 2, 1)
    report = certify_theorem1(example1(p))
    cap = choose(p.k + p.l - 1, p.l - 1)
    for t, size in report.family_b_sizes.items():
        assert len(t) == p.k + p.l
        assert size <= cap


_TRACE_KEYS = [
    "family_size", "threshold", "policy", "pair_counts", "deletions", "deleted", "survivor_size",
    "accounting_lower_bound", "family_b_sizes", "final_bound", "violations", "ok",
]
_CIRCLE_KEYS = [
    "params", "family_size", "mode", "sigmas_checked", "count_histogram", "max_observed", "cap",
    "identity_lhs", "identity_rhs", "mean_observed", "mean_expected", "bound_value", "seed",
    "violations", "ok",
]
_SEARCH_KEYS = ["optimum", "witness", "nodes_explored", "proof_of_optimality"]


def test_report_as_dict_round_trips_keys():
    # One report of each kind, with and without violations: keys in the
    # documented order, and JSON gives back the same dict.
    reports = [
        (certify_theorem1(example1(Params(4, 2, 1))), _TRACE_KEYS),
        (lemma2_check(enumerate_v(Params(4, 2, 1))), _TRACE_KEYS),
        (theorem2_certify(example2(Params(5, 2, 1)), samples=50, seed=3), _CIRCLE_KEYS),
        (theorem2_certify(enumerate_v(Params(4, 2, 1))), _CIRCLE_KEYS),
        (max_antipodal_free(Params(5, 2, 1)), _SEARCH_KEYS),
    ]
    for report, keys in reports:
        d = report.as_dict()
        assert list(d) == keys
        assert json.loads(json.dumps(d)) == d
    blob = reports[0][0].as_dict()
    assert blob["ok"] is True
    assert blob["survivor_size"] == 3
    assert blob["deletions"]["1|3"] == 1
    assert reports[1][0].as_dict()["violations"][0]["stage"] == "lemma2"


# ---------------------------------------------------------------- lemma 2 and the precheck

@pytest.mark.parametrize("triple, count", [((4, 2, 1), 4), ((5, 2, 2), 5)])
def test_lemma2_check_flags_full_v(triple, count):
    # full V holds antipodal pairs, so after deletion the minus sets over
    # some supports are neither intersecting nor within the EKR cap
    report = lemma2_check(enumerate_v(Params(*triple)))
    stages = [v.stage for v in report.violations]
    assert stages.count("lemma2") == count
    assert stages.count("lemma2-cap") == count
    for v in report.violations:
        if v.stage == "lemma2":
            assert set(v.data) == {"T", "members"}
            assert len(v.data["T"]) == sum(triple[1:])


def test_lemma2_check_extends_the_deletion_trace():
    fam = example1(Params(5, 2, 1))
    survivors, deletion = deletion_procedure(fam)
    report = lemma2_check(fam)
    assert report.ok
    assert report.pair_counts == deletion.pair_counts
    assert report.deleted == deletion.deleted
    assert sum(report.family_b_sizes.values()) == len(survivors)


def test_certify_report_is_the_lemma2_report_plus_the_bound():
    for triple in ((5, 2, 1), (6, 2, 2), (6, 3, 1)):
        p = Params(*triple)
        fam = example1(p)
        expected = lemma2_check(fam).as_dict()
        expected["final_bound"] = theorem1_bound(p)
        assert certify_theorem1(fam).as_dict() == expected


def test_precheck_is_shared_by_both_certifiers():
    fam = example2(Params(5, 2, 1))
    assert antipodal_free_precheck(fam) == []
    bad = enumerate_v(Params(5, 2, 1))
    (pre,) = antipodal_free_precheck(bad)
    assert pre.stage == "antipodal-free precheck"
    assert certify_theorem1(bad).violations == [pre]
    assert pre in theorem2_certify(bad, samples=5).violations
