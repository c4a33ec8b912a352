"""Vector layer: parsing, scalar products, antipodal neighbors."""

import itertools
import random
import re
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    BadCharacter,
    DimensionMismatch,
    EmptyInput,
    InvalidParams,
    OverlapError,
    Params,
    RangeError,
    SignedVector,
    VectorFamily,
    antipodal_degree,
    antipodal_neighbors,
    antipodality_graph,
    bit_positions,
    cardinality_exceeds,
    cardinality_v,
    choose,
    enumerate_v,
    example1,
    example2,
    find_antipodal_pair,
    format_vector,
    index_mask,
    is_antipodal,
    mask_indices,
    parse_vector,
    partner_bitsets,
    scalar_product,
    subset_masks,
)
from _brute import (
    FrozensetVector,
    antipodal_pair_counts,
    brute_antipodal_neighbors,
    brute_find_antipodal_pair,
    brute_parse_vector,
    brute_vector_strings,
    gram,
    reference_antipodality_adj,
)
from antipodal import search, vectors
from antipodal.vectors import comb_exceeds

VALID_PARAMS = [
    (n, k, l)
    for n in range(2, 8)
    for k in range(1, n)
    for l in range(1, k + 1)
    if k + l <= n
]

params_st = st.sampled_from(VALID_PARAMS)

# n <= 8, the window k + l <= n < 2k (no antipodal pair) included.
PARAMS_TO_8 = [
    (n, k, l)
    for n in range(2, 9)
    for k in range(1, n)
    for l in range(1, k + 1)
    if k + l <= n
]


# ---------------------------------------------------------------- params

def test_params_accepts_valid():
    p = Params(4, 2, 1)
    assert (p.n, p.k, p.l) == (4, 2, 1)
    assert p.nontrivial_regime and p.circle_regime


@pytest.mark.parametrize("bad", [(4, 2, 0), (4, 1, 2), (3, 2, 2), (0, 1, 1), (2, 2, 1), (6.0, 2, 1), (4, True, 1)])
def test_params_rejects_invalid(bad):
    with pytest.raises(InvalidParams):
        Params(*bad)


def test_regime_flags():
    assert not Params(3, 2, 1).nontrivial_regime  # n < 2k
    assert Params(5, 2, 1).circle_regime  # 4 <= 5 <= 5
    assert not Params(6, 2, 1).circle_regime  # 6 > 5
    assert not Params(9, 3, 1).circle_regime  # 9 > 8


# ---------------------------------------------------------------- parse/format

def test_parse_frozen():
    v = parse_vector("++-0")
    assert v.plus == frozenset({1, 2})
    assert v.minus == frozenset({3})
    assert v.n == 4
    assert format_vector(v) == "++-0"
    assert str(v) == "++-0"


def test_parse_errors():
    with pytest.raises(EmptyInput):
        parse_vector("")
    with pytest.raises(BadCharacter):
        parse_vector("+x-")


# Each bad character is one that int(text, 2) would accept: a digit, an
# underscore, an inner or outer space, a fullwidth or Arabic-Indic zero.
@pytest.mark.parametrize(
    "text,pos",
    [("+1-", 2), ("_+-", 1), ("+- 0", 3), ("+-0 ", 4), ("++０-", 3), ("+-٠", 3)],
)
def test_parse_bad_character_names_its_position(text, pos):
    message = f"character {text[pos - 1]!r} at position {pos} (want '+', '-' or '0')"
    for parse in (parse_vector, brute_parse_vector):
        with pytest.raises(BadCharacter, match=re.escape(message) + "$"):
            parse(text)


def test_parse_vector_longer_than_the_int_digit_limit():
    # Binary numerals are exempt from Python's default limit of 4,300
    # digits for int() on decimal text.
    text = "".join("+-0"[i * i % 7 % 3] for i in range(5000))
    assert len(text) > 4300
    v = parse_vector(text)
    assert format_vector(v) == text
    assert v == brute_parse_vector(text)


def test_parse_matches_per_character_reader_to_n_8():
    # Every +-0 string of length <= 8 covers all of V(n, k, l) for n <= 8.
    for n in range(1, 9):
        for chars in itertools.product("+-0", repeat=n):
            text = "".join(chars)
            v = parse_vector(text)
            assert v == brute_parse_vector(text), text
            assert format_vector(v) == text


def test_signed_vector_errors():
    with pytest.raises(OverlapError):
        SignedVector(4, frozenset({1, 2}), frozenset({2}))
    with pytest.raises(RangeError):
        SignedVector(4, [1, 5], [2])
    with pytest.raises(RangeError):
        SignedVector(4, [0, 1], [2])  # coordinates are 1-based


def test_index_mask_inverts_mask_indices():
    rng = random.Random(3)
    for mask in [0, 1, 6, (1 << 70) - 1] + [rng.getrandbits(rng.randrange(1, 200)) for _ in range(50)]:
        indices = mask_indices(mask)
        assert indices == tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)
        assert index_mask(indices, max(mask.bit_length(), 1)) == mask
    assert index_mask([True, 3], 4) == 0b101  # a bool is the int it equals


@pytest.mark.parametrize(
    "indices, message",
    [([5], "index 5 outside [1..4]"), ([0], "index 0 outside [1..4]"), ([-1], "index -1 outside [1..4]"),
     ([1.0], "index 1.0 outside [1..4]"), (["1"], "index '1' outside [1..4]"), ([None], "index None outside [1..4]"),
     ([False], "index False outside [1..4]"), ([2, 9, 7], "index 9 outside [1..4]")],
)
def test_index_mask_names_the_first_index_outside(indices, message):
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        index_mask(indices, 4)
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        SignedVector(4, [], indices)


def test_subset_masks_walk_the_subsets_in_lex_order():
    for mask in (0, 0b1, 0b10110, 0b1011011, (1 << 9) - 1):
        bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
        for r in range(len(bits) + 2):
            assert subset_masks(mask, r) == [sum(1 << i for i in c) for c in itertools.combinations(bits, r)]


@pytest.mark.parametrize("mask", [-1, -5, -(1 << 70)])
def test_bit_readers_reject_a_negative_mask(mask):
    # bin() gives sign and magnitude, so a negative mask would list the
    # bits of its magnitude; its two's-complement bits are not finite.
    message = f"^mask {mask} is negative, so its set bits are not a finite set$"
    for read in (bit_positions, mask_indices, lambda m: subset_masks(m, 1)):
        with pytest.raises(RangeError, match=message):
            read(mask)


def _outcome(f, *args):
    """(f(*args), None), or (None, the class of the error it raised)."""
    try:
        return f(*args), None
    except Exception as exc:  # the error class is what is compared
        return None, type(exc)


def _build(cls, n, plus, minus):
    return _outcome(cls, n, frozenset(plus), frozenset(minus))


# Indices: mostly in range, but also 0, negatives, beyond n, and non-ints
# (True counts as the int 1, as it does for a frozenset).
_index_st = st.one_of(
    st.integers(-2, 10),
    st.sampled_from([0, 1.0, 2.5, "1", None, True, False]),
)


@given(st.integers(0, 8), st.lists(_index_st, max_size=5), st.lists(_index_st, max_size=5), st.data())
@settings(max_examples=400, deadline=None)
def test_code_vector_matches_frozenset_definition(n, plus, minus, data):
    got, got_error = _build(SignedVector, n, plus, minus)
    ref, ref_error = _build(FrozensetVector, n, plus, minus)
    assert got_error is ref_error
    if ref is None:
        return
    assert (got.plus, got.minus) == (ref.plus, ref.minus)
    assert str(got) == str(ref) == format_vector(got)
    # a second vector: the same sets in another form, or a fresh draw
    if data.draw(st.booleans()):
        n2, plus2, minus2 = n, [int(i) for i in reversed(plus)], list(minus)
    else:
        n2 = data.draw(st.integers(max(n - 1, 0), n + 1))
        plus2 = data.draw(st.lists(st.integers(1, n2 or 1), max_size=4))
        minus2 = data.draw(st.lists(st.integers(1, n2 or 1), max_size=4))
    got2, _ = _build(SignedVector, n2, plus2, minus2)
    ref2, _ = _build(FrozensetVector, n2, plus2, minus2)
    if ref2 is not None:
        assert (got == got2) == (ref == ref2)
        assert len({got, got2}) == len({ref, ref2})
        if got == got2:
            assert hash(got) == hash(got2)


def test_signed_vector_stores_only_n_and_code():
    v = parse_vector("+0-+")
    assert SignedVector.__slots__ == ("n", "code")
    assert (v.n, v.code) == (4, 0b1001 | 0b0100 << 4)
    with pytest.raises(AttributeError):
        v.code = 0
    assert tuple(VectorFamily.from_codes(Params(4, 2, 1), [v.code])) == (v,)
    for bad in (-1, 0b0001_0011, 1 << 8 | 0b11):  # negative, overlapping, beyond 2n bits
        with pytest.raises(InvalidParams):
            VectorFamily.from_codes(Params(4, 2, 1), [bad])


@given(params_st, st.data())
@settings(max_examples=60, deadline=None)
def test_parse_format_roundtrip(p, data):
    fam = enumerate_v(Params(*p))
    s = data.draw(st.sampled_from(fam.strings()))
    assert format_vector(parse_vector(s)) == s


# ---------------------------------------------------------------- products

def test_scalar_product_frozen():
    a = parse_vector("++-0")
    assert scalar_product(a, a) == 3
    assert scalar_product(a, parse_vector("-0++")) == -2
    assert scalar_product(a, parse_vector("0+-0")) == 2


def test_scalar_product_dimension_check():
    with pytest.raises(DimensionMismatch):
        scalar_product(parse_vector("+-"), parse_vector("+-0"))


@given(params_st, st.data())
@settings(max_examples=40, deadline=None)
def test_scalar_product_matches_numpy(p, data):
    strings = enumerate_v(Params(*p)).strings()
    i = data.draw(st.integers(0, len(strings) - 1))
    j = data.draw(st.integers(0, len(strings) - 1))
    g = gram([strings[i], strings[j]])
    assert scalar_product(parse_vector(strings[i]), parse_vector(strings[j])) == g[0, 1]
    assert g[0, 1] == g[1, 0]


# ---------------------------------------------------------------- antipodal pairs

def test_antipodal_frozen_partners():
    p = Params(4, 2, 1)
    v = parse_vector("++-0")
    partners = {s for s in enumerate_v(p).strings() if is_antipodal(v, parse_vector(s), p)}
    assert partners == {"-0++", "0-++"}
    assert {format_vector(w) for w in antipodal_neighbors(v, p)} == partners


def test_antipodal_frozen_partner_6_2_2():
    p = Params(6, 2, 2)
    v = parse_vector("++--00")
    nbrs = antipodal_neighbors(v, p)
    assert [format_vector(w) for w in nbrs] == ["--++00"]


def test_antipodal_neighbor_count_5_2_1():
    p = Params(5, 2, 1)
    assert len(antipodal_neighbors(parse_vector("++-00"), p)) == 4


def test_is_antipodal_requires_membership():
    p = Params(4, 2, 1)
    with pytest.raises(InvalidParams):
        is_antipodal(parse_vector("++00"), parse_vector("--00"), p)


@given(params_st, st.data())
@settings(max_examples=40, deadline=None)
def test_neighbors_complete_and_symmetric(p, data):
    park = Params(*p)
    fam = enumerate_v(park)
    v = data.draw(st.sampled_from(list(fam)))
    nbrs = set(antipodal_neighbors(v, park))
    scan = {w for w in fam if is_antipodal(v, w, park)}
    assert nbrs == scan
    assert v not in nbrs
    for w in nbrs:
        assert is_antipodal(w, v, park)


@given(params_st, st.data())
@settings(max_examples=40, deadline=None)
def test_neighbors_match_frozenset_oracle_in_order(p, data):
    park = Params(*p)
    v = data.draw(st.sampled_from(list(enumerate_v(park))))
    assert antipodal_neighbors(v, park) == brute_antipodal_neighbors(v, park)


@given(st.sampled_from(PARAMS_TO_8), st.data())
@settings(max_examples=150, deadline=None)
def test_find_antipodal_pair_matches_oracle(p, data):
    members = list(enumerate_v(Params(*p)))
    order = data.draw(st.permutations(range(len(members))))
    size = data.draw(st.integers(0, len(members)))
    fam = VectorFamily(Params(*p), [members[i] for i in order[:size]])
    assert find_antipodal_pair(fam) == brute_find_antipodal_pair(fam)


# The certify triples of the benchmark: n <= 11 with n >= 2k, |V| <= 2600.
CERTIFY_TRIPLES = [
    (n, k, l)
    for n in range(6, 12)
    for k in range(2, 5)
    for l in range(1, k + 1)
    if k + l <= n and n >= 2 * k and cardinality_v(Params(n, k, l)) <= 2600
]


@pytest.mark.parametrize("triple", CERTIFY_TRIPLES, ids=str)
def test_find_antipodal_pair_at_certify_scale(triple):
    # A partner of the last member goes first, in the middle or last.
    # Then a shuffle breaks the runs of members with one plus mask into
    # pieces (X_P is rebuilt at nearly every member), and 1-3 partners of
    # random members go in at random places: the first pair stays exact.
    p = Params(*triple)
    rng = random.Random(f"plant:{triple}")
    for construct in (example1, example2):
        members = list(construct(p))
        assert find_antipodal_pair(VectorFamily(p, members)) is None
        v = members[-1]
        w = antipodal_neighbors(v, p)[-1]
        for at in (0, len(members) // 2, len(members)):
            fam = VectorFamily(p, members[:at] + [w] + members[at:])
            assert find_antipodal_pair(fam) == brute_find_antipodal_pair(fam)
        rng.shuffle(members)
        for _ in range(rng.randint(1, 3)):
            w = rng.choice(antipodal_neighbors(rng.choice(members), p))
            members.insert(rng.randrange(len(members) + 1), w)
        fam = VectorFamily(p, members)
        pair = find_antipodal_pair(fam)
        assert pair is not None and pair == brute_find_antipodal_pair(fam)


def test_member_bitsets_match_the_codes():
    # Bitset i holds bit j when bit i of the j-th code is set, also past
    # one packing chunk and for codes wider than a byte.
    rng = random.Random(3)
    for width, count in ((1, 0), (3, 5), (8, 9), (13, 3 * vectors._COLUMN_CHUNK + 7)):
        codes = [rng.getrandbits(width) for _ in range(count)]
        expected = [int("0" + "".join(str(c >> i & 1) for c in reversed(codes)), 2) for i in range(width)]
        assert vectors.bit_columns(codes, width) == expected, (width, count)


# u = +++--000 and its partner w = --0+++00.  The first member shares
# u's plus mask on another support, or u's support with another plus
# mask, and is antipodal to neither, so (u, w) is the first pair; a
# partner list shared under the wrong mask would miss w.
@pytest.mark.parametrize("first", ["+++00--0", "--+++000"], ids=["same plus", "same support"])
def test_find_antipodal_pair_shares_lists_only_by_their_mask(first):
    u, w = parse_vector("+++--000"), parse_vector("--0+++00")
    fam = VectorFamily(Params(8, 3, 2), [parse_vector(first), u, w])
    assert find_antipodal_pair(fam) == brute_find_antipodal_pair(fam) == (u, w)


@pytest.mark.parametrize("triple", [(6, 3, 3), (8, 4, 4), (5, 3, 1), (5, 3, 2), (7, 4, 3), (9, 5, 3)], ids=str)
def test_find_antipodal_pair_on_all_of_v_with_k_equal_l_or_n_below_2k(triple, monkeypatch):
    fam = enumerate_v(Params(*triple))
    if fam.params.n < 2 * fam.params.k:  # no two k-sets are disjoint: None before any bitset is built
        monkeypatch.setattr(vectors, "bit_columns", None)
    pair = find_antipodal_pair(fam)
    assert pair == brute_find_antipodal_pair(fam)
    assert (pair is None) == (fam.params.n < 2 * fam.params.k)


def test_find_antipodal_pair_memory_does_not_grow_with_the_family():
    # 400 random members of V(30, 4, 1), each plus set holding coordinate
    # 1 (so there is no pair), nearly all with their own plus mask and
    # support.  Each has C(25, 3) = 2,300 fresh plus choices; holding
    # them for every member would take some 35 MB.  And the 15,015
    # members of example1(14, 4, 2): the member bitsets take 2n ints of
    # |F| bits, read from bytes and texts built 4,096 members at a time.
    p = Params(30, 4, 1)
    rng = random.Random(5)
    codes = set()
    while len(codes) < 400:
        plus = [1, *rng.sample(range(2, 31), 3)]
        minus = rng.choice([i for i in range(2, 31) if i not in plus])
        codes.add(SignedVector(30, plus, [minus]).code)
    big = example1(Params(14, 4, 2))
    assert len(big) == 15_015
    for fam in (VectorFamily.from_codes(p, codes), big):
        tracemalloc.start()
        try:
            assert find_antipodal_pair(fam) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, fam


def test_comb_exceeds_is_exact():
    for n in range(0, 40):
        for r in range(0, n + 1):
            for bound in (0, 1, 2, 39, 40, 41, comb(n, r) - 1, comb(n, r), 200_000):
                assert comb_exceeds(n, r, bound) == (comb(n, r) > bound), (n, r, bound)


def test_cardinality_exceeds_is_exact():
    for n, k, l in PARAMS_TO_8:
        p = Params(n, k, l)
        size = cardinality_v(p)
        for bound in (0, 1, size - 1, size, size + 1, 5000, 200_000):
            assert cardinality_exceeds(p, bound) == (size > bound), (p, bound)


def test_antipodality_graph_matches_pairwise_scan():
    for n, k, l in PARAMS_TO_8:
        p = Params(n, k, l)
        if cardinality_v(p) > 600:
            continue
        members = list(enumerate_v(p))
        g = antipodality_graph(p)
        assert g.labels == tuple(format_vector(v) for v in members)
        adj = [0] * len(members)
        for i, v in enumerate(members):
            for j in range(i + 1, len(members)):
                if is_antipodal(v, members[j], p):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        assert g.adj == tuple(adj), (n, k, l)


@pytest.mark.parametrize("n", range(2, 12))
def test_antipodality_graph_matches_the_partner_index_reference(n):
    # Every V(n, k, l) under the vertex cap, past the pairwise scan's n <= 8.
    for k in range(1, n):
        for l in range(1, min(k, n - k) + 1):
            p = Params(n, k, l)
            if not cardinality_exceeds(p, search.VERTEX_CAP):
                assert antipodality_graph(p).adj == reference_antipodality_adj(p), p


def test_partner_bitsets_match_is_antipodal_and_disjointness():
    # Shuffled subfamilies, n < 2k and k = l included: row i holds bit j
    # exactly when member j is antipodal to member i.
    rng = random.Random(30)
    for triple in [(4, 2, 1), (5, 3, 1), (6, 3, 3), (7, 2, 2), (8, 3, 2), (9, 4, 1), (10, 3, 1)]:
        p = Params(*triple)
        members = list(enumerate_v(p))
        for size in (0, 1, 2, rng.randint(3, min(len(members), 80)), min(len(members), 80)):
            sub = rng.sample(members, size)
            rows = list(partner_bitsets([v.code for v in sub], p.n))
            assert rows == [sum(1 << j for j, w in enumerate(sub) if is_antipodal(v, w, p)) for v in sub], (p, size)
    # Minus-free codes of any size, repeats and the empty set included:
    # the partners are the disjoint sets.
    for n in range(0, 13):
        for count in (0, 1, 5, 40):
            masks = [rng.getrandbits(n) for _ in range(count)]
            assert list(partner_bitsets(masks, n)) == [
                sum(1 << j for j, b in enumerate(masks) if not a & b) for a in masks
            ], (n, count)


# ---------------------------------------------------------------- enumeration

def test_enumerate_frozen_smallest():
    assert enumerate_v(Params(2, 1, 1)).strings() == ("+-", "-+")


@pytest.mark.parametrize(
    "p,size", [((4, 2, 1), 12), ((5, 2, 1), 30), ((6, 2, 2), 90), ((2, 1, 1), 2)]
)
def test_enumerate_frozen_sizes(p, size):
    fam = enumerate_v(Params(*p))
    assert len(fam) == size == cardinality_v(Params(*p))


def test_enumerate_lex_order():
    strings = enumerate_v(Params(4, 2, 1)).strings()
    assert strings[0] == "++-0"
    assert strings == tuple(sorted(strings, key=lambda s: (sorted(i for i, c in enumerate(s) if c == "+"), sorted(i for i, c in enumerate(s) if c == "-"))))


@pytest.mark.parametrize("p", [(4, 2, 1), (5, 2, 2), (6, 3, 1), (3, 2, 1)])
def test_enumerate_matches_brute_scan(p):
    n, k, l = p
    assert sorted(enumerate_v(Params(n, k, l)).strings()) == sorted(
        brute_vector_strings(n, k, l)
    )


def test_cardinality_all_small_params():
    for n, k, l in VALID_PARAMS:
        assert cardinality_v(Params(n, k, l)) == comb(n, k) * comb(n - k, l)


# ---------------------------------------------------------------- degree formula

@pytest.mark.parametrize("p,deg", [((4, 2, 1), 2), ((5, 2, 1), 4), ((6, 2, 2), 1)])
def test_degree_frozen(p, deg):
    assert antipodal_degree(Params(*p)) == deg


def test_degree_matches_brute_everywhere_small():
    for n, k, l in VALID_PARAMS:
        if n > 6:
            continue
        counts = antipodal_pair_counts(brute_vector_strings(n, k, l), l)
        assert (counts == antipodal_degree(Params(n, k, l))).all()


def test_degree_second_exponent_is_k_minus_l():
    # The k-2l variant is wrong: it undercounts at (5,2,1) and at every
    # k = l instance (where validity forces n >= 2k, true degree 1, variant 0).
    def variant(n, k, l):
        return comb(k, l) * choose(n - k - l, k - 2 * l)

    assert variant(5, 2, 1) == 2
    assert antipodal_degree(Params(5, 2, 1)) == 4
    for n, k, l in VALID_PARAMS:
        if k == l:
            assert antipodal_degree(Params(n, k, l)) == 1
            assert variant(n, k, l) == 0


@given(params_st)
@settings(max_examples=30, deadline=None)
def test_degree_is_uniform(p):
    park = Params(*p)
    deg = antipodal_degree(park)
    for v in enumerate_v(park):
        assert len(antipodal_neighbors(v, park)) == deg


# ---------------------------------------------------------------- family container

def test_family_dedupes_preserving_order():
    p = Params(4, 2, 1)
    a, b = parse_vector("++-0"), parse_vector("++0-")
    fam = VectorFamily(p, [a, b, a])
    assert fam.strings() == ("++-0", "++0-")
    assert a in fam
    assert parse_vector("+0+-") not in fam


def test_family_codes_keep_member_order_and_the_first_of_duplicates():
    p = Params(4, 2, 1)
    a, b, c = parse_vector("++-0"), parse_vector("0+-+"), parse_vector("+0-+")
    for fam in (VectorFamily(p, [b, a, b, c, a]), VectorFamily.from_codes(p, [b.code, a.code, b.code, c.code, a.code])):
        assert type(fam.codes) is dict
        assert list(fam.codes) == [b.code, a.code, c.code]
        assert tuple(fam) == (b, a, c)
        assert fam.strings() == ("0+-+", "++-0", "+0-+")
        assert len(fam) == 3 and a in fam and parse_vector("++0-") not in fam


def test_family_rejects_nonconforming():
    p = Params(4, 2, 1)
    with pytest.raises(DimensionMismatch):
        VectorFamily(p, [parse_vector("++-00")])
    with pytest.raises(InvalidParams):
        VectorFamily(p, [parse_vector("+--0")])


_P421 = Params(4, 2, 1)


@pytest.mark.parametrize(
    "code,message",
    [
        (-1, "-1 is not a vector code at n=4"),
        (0b0001_0011, "19 is not a vector code at n=4"),  # overlap
        (1 << 8 | 0b11, "259 is not a vector code at n=4"),  # minus past n
        (parse_vector("+++-").code, "vector has 3 plus / 1 minus entries, params require k=2, l=1"),
        (parse_vector("++--").code, "vector has 2 plus / 2 minus entries, params require k=2, l=1"),
        (parse_vector("+-00").code, "vector has 1 plus / 1 minus entries, params require k=2, l=1"),
    ],
)
def test_from_codes_rejects_with_its_message(code, message):
    good = parse_vector("++-0").code
    for codes in ([code], [good, code], [code, good]):
        with pytest.raises(InvalidParams, match=re.escape(message) + "$"):
            VectorFamily.from_codes(_P421, codes)


@pytest.mark.parametrize(
    "text,error,message",
    [
        ("++-00", DimensionMismatch, "vector has n=5, params have n=4"),
        ("++-", DimensionMismatch, "vector has n=3, params have n=4"),
        ("+++-", InvalidParams, "vector has 3 plus / 1 minus entries, params require k=2, l=1"),
        ("++--", InvalidParams, "vector has 2 plus / 2 minus entries, params require k=2, l=1"),
        ("+0--", InvalidParams, "vector has 1 plus / 2 minus entries, params require k=2, l=1"),
    ],
)
def test_family_rejects_with_its_message(text, error, message):
    good = parse_vector("++-0")
    for members in ([parse_vector(text)], [good, parse_vector(text)], [good, good, parse_vector(text)]):
        with pytest.raises(error, match=re.escape(message) + "$"):
            VectorFamily(_P421, members)


def test_family_restrict():
    p = Params(4, 2, 1)
    fam = enumerate_v(p).restrict(lambda v: 1 in v.plus)
    assert len(fam) == 6
    assert all(1 in v.plus for v in fam)
