"""Constructions: the two extremal families, the circle family, relabelings."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    DimensionMismatch,
    InvalidParams,
    Params,
    Permutation,
    RegimeError,
    SignedVector,
    TooLarge,
    apply_permutation,
    cardinality_v,
    circle_family,
    enumerate_v,
    example1,
    example2,
    is_antipodal,
    parse_vector,
    scalar_product,
)
from _brute import antipodal_pair_counts

VALID_PARAMS = [
    (n, k, l)
    for n in range(2, 8)
    for k in range(1, n)
    for l in range(1, k + 1)
    if k + l <= n
]

params_st = st.sampled_from(VALID_PARAMS)


def _has_antipodal_pair(fam):
    p = fam.params
    members = list(fam)
    for i, v in enumerate(members):
        for w in members[i + 1 :]:
            if is_antipodal(v, w, p):
                return True
    return False


# ---------------------------------------------------------------- example1

def test_example1_frozen_4_2_1():
    fam = example1(Params(4, 2, 1))
    assert set(fam.strings()) == {"++-0", "++0-", "+0+-", "0++-"}


def test_example1_frozen_size_6_2_2():
    assert len(example1(Params(6, 2, 2))) == 45


def test_example1_size_closed_form():
    for n, k, l in VALID_PARAMS:
        fam = example1(Params(n, k, l))
        assert len(fam) == comb(n, k + l) * comb(k + l - 1, l - 1)


def test_example1_last_nonzero_is_minus():
    for v in example1(Params(5, 2, 2)):
        assert max(v.plus | v.minus) in v.minus


# ---------------------------------------------------------------- example2

@pytest.mark.parametrize("p,size", [((4, 2, 1), 6), ((5, 2, 1), 12), ((2, 1, 1), 1)])
def test_example2_frozen_sizes(p, size):
    assert len(example2(Params(*p))) == size


def test_example2_size_closed_form():
    for n, k, l in VALID_PARAMS:
        p = Params(n, k, l)
        fam = example2(p)
        assert len(fam) == comb(n - 1, k + l - 1) * comb(k + l - 1, k - 1)
        # equal to (k/n)|V|, always an integer
        assert len(fam) * n == k * cardinality_v(p)


def test_example2_first_coordinate_plus():
    for v in example2(Params(6, 3, 2)):
        assert 1 in v.plus


def test_examples_antipodal_free_everywhere():
    for n, k, l in VALID_PARAMS:
        p = Params(n, k, l)
        assert not _has_antipodal_pair(example1(p)), (n, k, l)
        assert not _has_antipodal_pair(example2(p)), (n, k, l)


def test_examples_antipodal_free_numpy_crosscheck():
    for p in [(4, 2, 1), (6, 2, 2), (6, 3, 1)]:
        for build in (example1, example2):
            strings = list(build(Params(*p)).strings())
            assert (antipodal_pair_counts(strings, p[2]) == 0).all()


# ---------------------------------------------------------------- circle family

def test_circle_frozen_4_2_1():
    fam = circle_family(Params(4, 2, 1))
    assert set(fam.strings()) == {"++-0", "0++-", "-0++", "+-0+"}


def test_circle_needs_wraparound_room():
    with pytest.raises(RegimeError):
        circle_family(Params(3, 2, 1))


def test_circle_refuses_n_over_the_cap():
    assert len(circle_family(Params(1000, 2, 1))) == 1000
    with pytest.raises(TooLarge, match="capped at n <= 1000"):
        circle_family(Params(1001, 2, 1))


def test_circle_size_is_n():
    for n, k, l in VALID_PARAMS:
        if n < 2 * k:
            continue
        assert len(circle_family(Params(n, k, l))) == n


def test_circle_4_2_1_has_two_antipodal_pairs():
    p = Params(4, 2, 1)
    members = list(circle_family(p))
    pairs = sum(
        1
        for i, v in enumerate(members)
        for w in members[i + 1 :]
        if is_antipodal(v, w, p)
    )
    assert pairs == 2


def test_circle_blocks_are_cyclic_intervals():
    p = Params(6, 2, 1)
    for v in circle_family(p):
        ordered = sorted(v.plus)
        width = (ordered[-1] - ordered[0]) % p.n
        assert width in (p.k - 1, p.n - p.k + 1)  # contiguous mod n


# ---------------------------------------------------------------- permutations

def test_permutation_frozen_transposition():
    sigma = Permutation((1, 2, 4, 3))  # swaps coordinates 3 and 4
    fam = apply_permutation(
        enumerate_v(Params(4, 2, 1)).restrict(lambda v: str(v) == "++-0"), sigma
    )
    assert fam.strings() == ("++0-",)


def test_permutation_validates_bijection():
    with pytest.raises(InvalidParams):
        Permutation((1, 1, 2))


def test_permutation_identity():
    ident = Permutation(tuple(range(1, 5)))
    assert [ident(i) for i in (1, 2, 3, 4)] == [1, 2, 3, 4]


def test_apply_permutation_needs_matching_n():
    with pytest.raises(DimensionMismatch):
        apply_permutation(enumerate_v(Params(4, 2, 1)), Permutation(tuple(range(1, 6))))


def _random_permutation(n, rng):
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return Permutation(tuple(image))


@given(params_st, st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_permutation_preserves_products(p, seed, data):
    park = Params(*p)
    fam = enumerate_v(park)
    sigma = _random_permutation(park.n, random.Random(seed))
    v = data.draw(st.sampled_from(list(fam)))
    w = data.draw(st.sampled_from(list(fam)))
    mapped = apply_permutation(fam.restrict(lambda x: x in (v, w)), sigma)
    imgs = {str(x): x for x in mapped}
    sv = imgs[_map_str(v, sigma)]
    sw = imgs[_map_str(w, sigma)]
    assert scalar_product(sv, sw) == scalar_product(v, w)


def _map_str(v, sigma):
    return str(
        SignedVector(v.n, [sigma(i) for i in v.plus], [sigma(i) for i in v.minus])
    )


@pytest.mark.parametrize("build", [example1, example2])
def test_relabeled_examples_stay_antipodal_free(build):
    p = Params(5, 2, 1)
    fam = build(p)
    rng = random.Random(0)
    for _ in range(10):
        shuffled = apply_permutation(fam, _random_permutation(p.n, rng))
        assert len(shuffled) == len(fam)
        assert not _has_antipodal_pair(shuffled)
