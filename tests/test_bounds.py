"""Bound formulas and the assembled bound table."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    Params,
    RegimeError,
    TooLarge,
    bound_table,
    cardinality_v,
    choose,
    ekr_bound,
    example1,
    example2,
    fk1_bound,
    theorem1_bound,
    theorem2_bound,
)

VALID_PARAMS = [
    (n, k, l)
    for n in range(2, 9)
    for k in range(1, n)
    for l in range(1, k + 1)
    if k + l <= n
]


def test_choose_extends_by_zero():
    assert choose(5, 2) == 10
    assert choose(5, -1) == 0
    assert choose(3, 4) == 0
    assert choose(-2, 0) == 0
    assert choose(0, 0) == 1


@pytest.mark.parametrize(
    "p,value",
    [((4, 2, 1), 16), ((6, 2, 2), 45), ((10, 2, 1), 210), ((5, 2, 1), 30)],
)
def test_theorem1_frozen(p, value):
    assert theorem1_bound(Params(*p)) == value


def test_theorem1_first_term_is_example1():
    for n, k, l in VALID_PARAMS:
        p = Params(n, k, l)
        first = choose(n, k + l) * choose(k + l - 1, l - 1)
        assert len(example1(p)) == first
        assert theorem1_bound(p) >= first
        if k == l:
            assert theorem1_bound(p) == first  # second term vanishes


@pytest.mark.parametrize("p,value", [((4, 2, 1), 6), ((5, 2, 1), 12), ((7, 3, 1), 60)])
def test_theorem2_frozen(p, value):
    assert theorem2_bound(Params(*p)) == value


@pytest.mark.parametrize("p", [(9, 3, 1), (6, 2, 1), (3, 1, 1), (5, 3, 1)])
def test_theorem2_regime_errors(p):
    with pytest.raises(RegimeError):
        theorem2_bound(Params(*p))


def test_theorem2_equals_example2_size():
    for n, k, l in VALID_PARAMS:
        p = Params(n, k, l)
        if not p.circle_regime:
            continue
        assert theorem2_bound(p) == len(example2(p))
        assert theorem2_bound(p) * n == k * cardinality_v(p)


@pytest.mark.parametrize("nk,value", [((4, 2), 6), ((5, 2), 12), ((6, 2), 22)])
def test_fk1_frozen(nk, value):
    assert fk1_bound(*nk) == value


def test_fk1_regimes():
    # below k^2 the single-term form applies; above it the tail sum kicks in
    assert fk1_bound(4, 2) == 2 * comb(3, 2)
    assert fk1_bound(6, 2) == 2 * comb(3, 2) + comb(4, 2) + comb(5, 2)
    with pytest.raises(RegimeError):
        fk1_bound(3, 2)
    with pytest.raises(RegimeError, match="k >= 1"):
        fk1_bound(8, 0)


def test_fk1_closed_form_matches_the_summed_form():
    # Oracle: the bound as the paper states it, summing one binomial per m.
    for k in range(1, 8):
        for n in range(2 * k, 80):
            if n <= k * k:
                summed = k * comb(n - 1, k)
            else:
                summed = k * comb(k * k - 1, k) + sum(comb(m, k) for m in range(k * k, n))
            assert fk1_bound(n, k) == summed, (n, k)


def test_fk1_huge_n_returns():
    # The closed form costs the same at any n; a summed form would loop
    # 10^12 times.  Consecutive values differ by the summand C(n-1,k).
    n = 10**12
    assert fk1_bound(n, 3) - fk1_bound(n - 1, 3) == comb(n - 1, 3)


@pytest.mark.parametrize("nk,value", [((4, 2), 3), ((5, 2), 4), ((6, 3), 10)])
def test_ekr_frozen(nk, value):
    assert ekr_bound(*nk) == value == comb(nk[0] - 1, nk[1] - 1)


def test_ekr_regime():
    with pytest.raises(RegimeError):
        ekr_bound(3, 2)


# ---------------------------------------------------------------- table

def test_bound_table_frozen_4_2_1():
    t = bound_table(Params(4, 2, 1))
    got = {e.name: (e.value if e.applicable else None) for e in t.entries}
    assert got == {
        "V": 12,
        "example1": 4,
        "example2": 6,
        "thm1": 16,
        "thm2": 6,
        "fk1": 6,
        "ekr": None,
    }


def test_bound_table_frozen_6_2_2():
    t = bound_table(Params(6, 2, 2))
    assert t["V"].value == 90
    assert t["example1"].value == 45
    assert t["example2"].value == 30
    assert t["thm1"].value == 45
    assert not t["thm2"].applicable
    assert not t["fk1"].applicable
    with pytest.raises(KeyError):
        t["nope"]


@pytest.mark.parametrize("triple", [(4, 2, 1), (6, 2, 2), (9, 3, 1)])
def test_bound_entry_applicable_is_derived_from_value(triple):
    for e in bound_table(Params(*triple)).entries:
        assert e.applicable == (e.value is not None)
        assert e.applicable == (e.note == "")
        with pytest.raises(AttributeError):
            e.applicable = not e.applicable


def test_bound_table_thm2_regime_note():
    t = bound_table(Params(9, 3, 1))
    assert not t["thm2"].applicable
    assert "n/a" in t["thm2"].render()


@pytest.mark.parametrize(
    "triple,name",
    [((20000, 10000, 5000), r"\|V\(20000,10000,5000\)\|"), ((14270, 7134, 1), r"thm1 at \(14270,7134,1\)")],
)
def test_bound_table_refuses_values_python_cannot_print(triple, name):
    # The first |V| is over the int-to-string limit; the second |V| (4,298
    # digits) is under it, but thm1 (4,301 digits) is over.
    with pytest.raises(TooLarge, match=f"^{name} has more than 4300 digits"):
        bound_table(Params(*triple))


def test_bound_table_round_trips_json():
    d = bound_table(Params(5, 2, 1)).as_dict()
    assert (d["n"], d["k"], d["l"]) == (5, 2, 1)
    assert d["entries"]["thm2"] == 12
    assert d["entries"]["ekr"] is None
    assert "ekr" in d["notes"]


@given(st.sampled_from(VALID_PARAMS))
@settings(max_examples=60, deadline=None)
def test_bounds_never_below_examples(p):
    park = Params(*p)
    t = bound_table(park)
    best_example = max(t["example1"].value, t["example2"].value)
    for name in ("thm1", "thm2", "fk1"):
        e = t[name]
        if e.applicable:
            assert e.value >= best_example, (p, name)
