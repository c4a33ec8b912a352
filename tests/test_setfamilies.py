"""Set families: intersection predicates and the exhaustive disjunction sweep."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    GroundMismatch,
    InvalidParams,
    PreconditionError,
    RangeError,
    SetFamily,
    TooLarge,
    is_cross_intersecting,
    is_intersecting,
    proposition1_holds,
    verify_prop1_exhaustive,
)


def test_setfamily_basics():
    fam = SetFamily(4, 2, [{1, 2}, {2, 3}, {1, 2}])
    assert len(fam) == 2  # dedupe
    assert frozenset({1, 2}) in fam
    assert frozenset({3, 4}) not in fam


def test_setfamily_validation():
    with pytest.raises(InvalidParams):
        SetFamily(4, 2, [{1, 2, 3}])  # wrong uniformity
    with pytest.raises(RangeError):
        SetFamily(4, 2, [{0, 1}])  # elements are 1-based
    with pytest.raises(RangeError):
        SetFamily(4, 2, [{4, 5}])
    with pytest.raises(InvalidParams, match="ground"):
        SetFamily(0, 1, [])
    with pytest.raises(InvalidParams, match="uniformity"):
        SetFamily(3, -1, [])


def test_is_intersecting():
    assert is_intersecting(SetFamily(5, 2, [{1, 2}, {1, 3}, {1, 4}]))
    assert not is_intersecting(SetFamily(5, 2, [{1, 2}, {3, 4}]))
    assert is_intersecting(SetFamily(5, 2, []))  # vacuous
    assert is_intersecting(SetFamily(5, 2, [{2, 3}]))


def test_is_cross_intersecting():
    a = SetFamily(5, 2, [{1, 2}, {1, 3}])
    b = SetFamily(5, 3, [{1, 4, 5}, {1, 2, 3}])
    assert is_cross_intersecting(a, b)
    assert not is_cross_intersecting(a, SetFamily(5, 3, [{3, 4, 5}]))
    assert is_cross_intersecting(SetFamily(5, 2, []), b)  # vacuous
    with pytest.raises(GroundMismatch):
        is_cross_intersecting(a, SetFamily(6, 3, [{1, 2, 3}]))


def test_proposition1_preconditions():
    a = SetFamily(3, 2, [{1, 2}])
    b = SetFamily(3, 2, [{1, 2}])
    with pytest.raises(PreconditionError):
        proposition1_holds(a, b)  # m < a + b
    c = SetFamily(5, 2, [{1, 2}])
    d = SetFamily(5, 3, [{3, 4, 5}])
    with pytest.raises(PreconditionError):
        proposition1_holds(c, d)  # not cross-intersecting
    with pytest.raises(GroundMismatch):
        proposition1_holds(c, SetFamily(6, 3, [{1, 2, 3}]))


def test_proposition1_star_pair():
    # two stars through 1: both sides sit at their caps
    m, a, b = 5, 2, 2
    astar = SetFamily(m, a, [set(s) | {1} for s in combinations(range(2, m + 1), a - 1)])
    bstar = SetFamily(m, b, [set(s) | {1} for s in combinations(range(2, m + 1), b - 1)])
    assert len(astar) == comb(m - 1, a - 1)
    assert proposition1_holds(astar, bstar)


def test_prop1_exhaustive_frozen_4_2_2():
    report = verify_prop1_exhaustive(4, 2, 2)
    assert report.counterexamples == 0
    assert report.pairs_examined == 20
    assert report.cap_a == comb(3, 1) == 3
    assert report.holds


def test_prop1_exhaustive_5_2_3():
    report = verify_prop1_exhaustive(5, 2, 3)
    assert report.counterexamples == 0
    assert report.holds


def test_prop1_preconditions():
    with pytest.raises(PreconditionError):
        verify_prop1_exhaustive(3, 2, 2)
    with pytest.raises(PreconditionError):
        verify_prop1_exhaustive(5, 0, 2)


def test_prop1_refuses_oversized_sweep():
    with pytest.raises(TooLarge):
        verify_prop1_exhaustive(30, 13, 13)
    # The binomials are named, not computed: C(200000,100000) has about 60,000 digits.
    with pytest.raises(TooLarge, match=r"^sweep needs C\(200000,100000\) and C\(200000,100000\) <= 12$"):
        verify_prop1_exhaustive(200000, 100000, 100000)


@given(st.integers(4, 6), st.data())
@settings(max_examples=25, deadline=None)
def test_cross_intersecting_matches_brute(m, data):
    pool = list(combinations(range(1, m + 1), 2))
    asets = data.draw(st.lists(st.sampled_from(pool), max_size=5))
    bsets = data.draw(st.lists(st.sampled_from(pool), max_size=5))
    a = SetFamily(m, 2, [set(s) for s in asets])
    b = SetFamily(m, 2, [set(s) for s in bsets])
    brute = all(set(x) & set(y) for x in a for y in b)
    assert is_cross_intersecting(a, b) == brute
