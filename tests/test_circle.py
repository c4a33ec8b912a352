"""Cyclic averaging: interval caps, permutation sweeps, the counting identity."""

import random
from array import array
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    DimensionMismatch,
    Params,
    Permutation,
    RegimeError,
    TooLarge,
    VectorFamily,
    antipodal_neighbors,
    circle_family,
    double_count_check,
    enumerate_v,
    example1,
    example2,
    lemma3_count,
    lemma3_sweep,
    theorem2_bound,
    theorem2_certify,
)
from antipodal import circle
from antipodal.cli import main
from antipodal.familyfile import save_family
from _brute import brute_circle_histogram, brute_circle_pairs, brute_image_count

# Every triple with n <= 7 on which H exists (n >= 2k), plus one at n = 8.
SWEEP_PARAMS = [
    (n, k, l)
    for n in range(2, 8)
    for k in range(1, n // 2 + 1)
    for l in range(1, k + 1)
    if k + l <= n
] + [(8, 3, 2)]

CIRCLE_PARAMS = [
    (n, k, l)
    for n in range(2, 8)
    for k in range(1, n)
    for l in range(1, k + 1)
    if k + l <= n and 2 * k <= n <= 3 * k - l
]


def test_lemma3_count_frozen():
    p = Params(4, 2, 1)
    assert lemma3_count(example2(p), Permutation(tuple(range(1, 5)))) == 2


def test_lemma3_negative_control():
    # the full V is not antipodal-free, and the identity image already
    # meets it in all n = 4 members, above the cap k = 2
    p = Params(4, 2, 1)
    assert lemma3_count(enumerate_v(p), Permutation(tuple(range(1, 5)))) == 4


def test_lemma3_count_needs_matching_n():
    with pytest.raises(DimensionMismatch):
        lemma3_count(example2(Params(4, 2, 1)), Permutation(tuple(range(1, 6))))


def test_lemma3_exhaustive_cap_on_examples():
    for n, k, l in CIRCLE_PARAMS:
        if n > 6:
            continue
        p = Params(n, k, l)
        report = lemma3_sweep(example2(p), exhaustive=True)
        assert report.sigmas_checked == factorial(n)
        assert report.max_observed <= k, (n, k, l)
        assert sum(report.count_histogram.values()) == factorial(n)


def test_lemma3_sample_mode_deterministic():
    p = Params(5, 2, 1)
    a = lemma3_sweep(example2(p), samples=200, seed=3)
    b = lemma3_sweep(example2(p), samples=200, seed=3)
    assert a.count_histogram == b.count_histogram
    assert a.mode == "sample"


def _oracle_families(p: Params):
    """Full V and a seeded random subfamily of it."""
    full = enumerate_v(p)
    rng = random.Random(100 * p.n + 10 * p.k + p.l)
    keep = set(rng.sample(full.strings(), rng.randint(0, len(full))))
    return [full, full.restrict(lambda v: str(v) in keep)]


@pytest.mark.parametrize("p", SWEEP_PARAMS, ids=str)
def test_exhaustive_sweep_matches_brute(p):
    # The coset sweep over (n-1)! representatives with weight n, against the
    # frozenset count over every one of the n! permutations.
    for fam in _oracle_families(Params(*p)):
        expected = brute_circle_histogram(fam.strings(), *p)
        sweep = lemma3_sweep(fam, exhaustive=True)
        dc = double_count_check(fam, exhaustive=True)
        assert sweep.count_histogram == expected == dc.count_histogram
        assert sweep.sigmas_checked == dc.sigmas_checked == factorial(p[0])
        assert dc.identity_lhs == sum(c * m for c, m in expected.items()) == dc.identity_rhs


def _coset_histogram(fam: VectorFamily) -> dict[int, int]:
    """The one-permutation kernel (_count) summed over every sigma with
    sigma(1) = 1, each with weight n."""
    p = fam.params
    getters = circle._member_getters(circle_family(p))
    hist: dict[int, int] = {}
    for tail in permutations(range(2, p.n + 1)):
        c = circle._count(circle._bit_table((1, *tail), p.n), getters, fam.codes)
        hist[c] = hist.get(c, 0) + p.n
    return hist


@pytest.mark.parametrize("p", [(8, k, l) for k in range(1, 5) for l in range(1, k + 1)], ids=str)
def test_lane_kernel_matches_the_one_permutation_kernel_at_n8(p):
    # n = 8 fills the 16-bit lanes; every (k, l) with 2k <= 8.
    p = Params(*p)
    for fam in (*_oracle_families(p), example2(p)):
        assert lemma3_sweep(fam, exhaustive=True).count_histogram == _coset_histogram(fam)


def test_lane_width_covers_the_exhaustive_cap():
    # A code of the capped n fits one lane; a larger n is refused rather
    # than counted with codes spilling into the next lane.
    assert 2 * circle._EXHAUSTIVE_CAP <= 8 * array(circle._LANE).itemsize
    with pytest.raises(RuntimeError, match="lane"):
        circle._lane_columns(circle._EXHAUSTIVE_CAP + 1)


@pytest.mark.parametrize("p", SWEEP_PARAMS, ids=str)
def test_sampled_sweep_and_count_match_brute(p):
    n = p[0]
    rng = random.Random(11)
    images = [tuple(range(1, n + 1))]
    base = list(images[0])
    for _ in range(60):
        rng.shuffle(base)
        images.append(tuple(base))
    h_pairs = brute_circle_pairs(*p)
    for fam in _oracle_families(Params(*p)):
        report = lemma3_sweep(fam, samples=60, seed=11)
        assert report.count_histogram == brute_circle_histogram(fam.strings(), *p, images=images)
        fam_pairs = frozenset((v.plus, v.minus) for v in fam)
        for image in images[:10]:
            assert lemma3_count(fam, Permutation(image)) == brute_image_count(image, h_pairs, fam_pairs)


def test_exhaustive_sweep_checks_rotation_invariance(monkeypatch):
    # Swap one member of H for a vector outside it: the coset quotient
    # would then be unsound, so the sweep must refuse to run.
    real = circle_family

    def skewed(p):
        h = real(p)
        outsider = next(v for v in enumerate_v(p) if v not in h)
        return VectorFamily(p, list(h)[1:] + [outsider])

    monkeypatch.setattr(circle, "circle_family", skewed)
    p = Params(6, 2, 1)
    with pytest.raises(RuntimeError, match="rotation"):
        lemma3_sweep(example2(p), exhaustive=True)
    with pytest.raises(RuntimeError, match="rotation"):
        double_count_check(enumerate_v(p), exhaustive=True)


def test_sweep_builds_the_circle_family_once(monkeypatch):
    built = []

    def counted(p):
        built.append(p)
        return circle_family(p)

    monkeypatch.setattr(circle, "circle_family", counted)
    p = Params(6, 2, 1)
    for exhaustive in (True, False):
        built.clear()
        lemma3_sweep(example2(p), exhaustive=exhaustive, samples=5)
        assert built == [p]


def test_lemma3_refuses_huge_exhaustive():
    p = Params(9, 4, 1)
    with pytest.raises(TooLarge):
        lemma3_sweep(example2(p), exhaustive=True)


def test_lemma3_refuses_huge_sampled(monkeypatch):
    # H has n members of k + l entries whatever the family, so a sampled
    # sweep past n = 100 is refused before H is built.
    monkeypatch.setattr(circle, "circle_family", None)
    for check in (lemma3_sweep, double_count_check):
        with pytest.raises(TooLarge, match="n <= 100, got n=101"):
            check(VectorFamily(Params(101, 34, 1), []))


# ---------------------------------------------------------------- cyclic EKR

def _max_intersecting_cyclic(n, k):
    """Largest number of pairwise intersecting cyclic k-intervals of [n], by brute force."""
    intervals = [{(i + t) % n for t in range(k)} for i in range(n)]
    return max(
        r
        for r in range(1, n + 1)
        for chosen in combinations(intervals, r)
        if all(a & b for a, b in combinations(chosen, 2))
    )


@pytest.mark.parametrize("nk,value", [((4, 2), 2), ((6, 3), 3), ((7, 3), 3)])
def test_max_intersecting_cyclic_frozen(nk, value):
    assert _max_intersecting_cyclic(*nk) == value


def test_cyclic_intervals_bound_is_k():
    # The fact behind the interval cap: of the n cyclic k-intervals of
    # [n], n >= 2k, at most k pairwise intersect, and the k intervals
    # through one point do.
    for n, k in [(4, 2), (5, 2), (6, 3), (7, 3), (8, 3)]:
        assert _max_intersecting_cyclic(n, k) <= k
        through_0 = [{(i + t) % n for t in range(k)} for i in range(n - k + 1, n + 1)]
        assert all(0 in block for block in through_0)
        assert all(a & b for a, b in combinations(through_0, 2))


# ---------------------------------------------------------------- double count

def test_double_count_frozen_full_v():
    p = Params(4, 2, 1)
    report = double_count_check(enumerate_v(p), exhaustive=True)
    assert report.identity_lhs == 96
    assert report.identity_rhs == 12 * 4 * 2 * 1 * 1
    assert report.ok


def test_double_count_frozen_example2():
    p = Params(4, 2, 1)
    report = double_count_check(example2(p), exhaustive=True)
    assert report.identity_lhs == 48
    assert report.ok


def test_double_count_identity_everywhere_small():
    rng = random.Random(0)
    for n, k, l in [(4, 2, 1), (4, 2, 2), (5, 2, 1), (5, 2, 2), (6, 3, 2)]:
        p = Params(n, k, l)
        full = enumerate_v(p)
        families = [full, example1(p), example2(p)]
        keep = set(rng.sample(full.strings(), len(full) // 2))
        families.append(full.restrict(lambda v: str(v) in keep))
        for fam in families:
            report = double_count_check(fam, exhaustive=True)
            rhs = len(fam) * n * factorial(k) * factorial(l) * factorial(n - k - l)
            assert report.identity_lhs == rhs == report.identity_rhs


def _planted_partner_families(p: Params, count: int = 20) -> list[VectorFamily]:
    """example2(p) with an antipodal partner of a random member inserted at
    a random place, one family per seed 0..count-1."""
    base = list(example2(p))
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        members = list(base)
        partner = rng.choice(antipodal_neighbors(rng.choice(base), p))
        members.insert(rng.randrange(len(members) + 1), partner)
        out.append(VectorFamily(p, members))
    return out


@pytest.mark.parametrize("triple", [(10, 2, 2), (10, 3, 2), (9, 3, 3), (9, 4, 2), (9, 4, 3)], ids=str)
def test_sampled_double_count_on_planted_families(triple, tmp_path):
    # At 100 samples every sampled sigma can give the same count.  A band
    # of five empirical standard errors is then 0 wide, and it flagged
    # 11, 17, 10, 8 and 7 of these 20 families per triple although the
    # identity holds for every F.  The Hoeffding band flags none.
    p = Params(*triple)
    families = _planted_partner_families(p)
    for fam in families:
        report = double_count_check(fam, samples=100)
        assert report.ok, report.violations
    path = tmp_path / "planted.txt"
    save_family(families[0], path)
    argv = ["verify", "double-count", *map(str, triple), "--family", str(path), "--samples", "100"]
    assert main(argv) == 0


@pytest.mark.parametrize("skew", [lambda real: 0, lambda real: real + 1], ids=["zero", "plus-one"])
def test_sampled_double_count_flags_a_wrong_kernel(monkeypatch, skew):
    # The band must stay narrow enough to catch a broken count at the
    # default 1,000 samples: on full V(8,3,2) every correct count is 8.
    real = circle._count
    monkeypatch.setattr(circle, "_count", lambda *args: skew(real(*args)))
    report = double_count_check(enumerate_v(Params(8, 3, 2)))
    assert [v.stage for v in report.violations] == ["double-count-sample"]
    data = report.violations[0].data
    assert set(data) == {"mean", "expected", "band"}
    assert abs(data["mean"] - data["expected"]) > data["band"]


def test_double_count_sample_mode():
    p = Params(5, 2, 1)
    report = double_count_check(enumerate_v(p), samples=300, seed=1)
    assert report.mode == "sample"
    assert report.ok
    assert report.mean_expected == pytest.approx(
        len(enumerate_v(p)) * 5 * 2 * 1 * 2 / factorial(5)
    )


# ---------------------------------------------------------------- thm2 certify

def test_theorem2_certify_passes_example2():
    p = Params(5, 2, 1)
    report = theorem2_certify(example2(p))
    assert report.ok
    assert report.bound_value == theorem2_bound(p) == 12
    assert report.family_size == 12
    assert report.cap == p.k


def test_theorem2_certify_flags_circle_family():
    # the raw circle family contains antipodal pairs at (4,2,1)
    p = Params(4, 2, 1)
    report = theorem2_certify(circle_family(p))
    assert not report.ok
    assert any("antipodal" in v.stage for v in report.violations)


def test_theorem2_certify_flags_oversized_family():
    p = Params(4, 2, 1)
    report = theorem2_certify(enumerate_v(p))
    assert not report.ok


def test_theorem2_certify_regime_error():
    with pytest.raises(RegimeError):
        theorem2_certify(example2(Params(9, 3, 1)))
    with pytest.raises(RegimeError):
        theorem2_certify(example2(Params(6, 2, 2)))


@given(st.sampled_from([p for p in CIRCLE_PARAMS if p[0] <= 6]), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_double_count_random_subfamilies(p, rng):
    park = Params(*p)
    full = enumerate_v(park)
    keep = set(rng.sample(full.strings(), rng.randint(0, len(full))))
    sub = full.restrict(lambda v: str(v) in keep)
    report = double_count_check(sub, exhaustive=True)
    assert report.ok
    assert report.identity_lhs == report.identity_rhs
