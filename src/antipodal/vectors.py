"""Signed vectors with a fixed number of +1 and -1 entries.

A vector of length n over {-1, 0, +1} with exactly k entries equal to +1
and l entries equal to -1 is given by the pair of disjoint index sets
carrying the nonzero entries.  Indices are 1-based, so the coordinate set
is [n] = {1, ..., n}.  V(n, k, l) denotes the collection of all such
vectors; its size is C(n,k) * C(n-k,l) = C(n,k+l) * C(k+l,l).

Throughout we require 1 <= l <= k and k + l <= n.  For two vectors
v, w in V(n, k, l) the scalar product is bounded below by -2l, and pairs
attaining -2l are called *antipodal*.  Equivalently (see is_antipodal)
the minus set of each vector sits inside the plus set of the other while
the two plus sets are disjoint.  Families avoiding antipodal pairs are
the central objects of this toolkit.

A SignedVector stores only its dimension n and one integer code,
plus_mask | minus_mask << n, where bit i - 1 of each mask stands for
coordinate i (SignedVector.code).  Everything works on that code:
parsing, formatting (format_codes), the scalar product and the
antipodality test are mask operations, and the index-set views plus and
minus are frozensets decoded from it on demand.  _decode is the one way
to make a vector from a code.  Vector text is read here and nowhere
else: parse_vector reads one text, parse_codes a list of them in one
pass, with the same translation tables and the same errors.

Index sets and masks convert here and nowhere else, as every index set
of the paper is a mask in this package: the plus and minus sets,
the l-set pairs (A, B) of the slices, the supports T and the set
families of Proposition 1.  index_mask encodes 1-based coordinates,
with RangeError for the first one outside [1..n]; mask_indices lists a
mask's coordinates back, bit_positions its 0-based bits, and both read
the binary digits of the mask in one C-level pass (_bit_flags), which
raises RangeError for a negative mask, as its set bits are not finite.
subset_masks walks the r-subsets of a mask's bits, the one subset walk
of the package besides the enumeration of V(n, k, l) itself.  A
permutation's images are not index sets: circle._bit_table and the
relabel table of constructions.apply_permutation map them to bits on
their own.

A VectorFamily is its parameters and its member codes: `codes` is
dict.fromkeys of them, which keeps member order, keeps the first of any
duplicates and answers membership in O(1).  Members are decoded into
SignedVectors only on demand, by iteration.  Every constructor
checks the codes once, as (n, code) pairs in member order, so the first
nonconforming member decides the error; from_codes and from_pairs take
codes without decoding them, and restrict_codes filters a checked family
without checking it again.

The antipodal partners of a code are generated as codes by
partner_codes: the partner's minus set is an l-subset of the vector's
plus bits, its plus set the vector's minus bits with a (k - l)-subset
of its zero bits.  antipodal_neighbors decodes every partner, in
partner_codes order.  Partners within a family are read from its member
bitsets, one int per coordinate and sign whose bit j stands for the
j-th member: partner_bitsets yields, for each member, the bitset of its
partners in a few big-int operations.  find_antipodal_pair takes the
first member whose bitset is not empty and builds partner codes only
for it; the antipodality graph and the Kneser graph in search take the
bitsets as their adjacency rows.

bit_columns is the package's one bit transpose: it turns a list of
ints into the ints of its bit columns.  partner_bitsets takes the member
bitsets from it, the columns of the codes, and search.Graph checks the
symmetry of its adjacency rows against their columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, compress, islice, repeat
from typing import Collection, Iterable, Iterator, NoReturn, Sequence

from .errors import (
    BadCharacter,
    DimensionMismatch,
    EmptyInput,
    InvalidParams,
    OverlapError,
    RangeError,
    TooLarge,
)

__all__ = [
    "Params",
    "SignedVector",
    "VectorFamily",
    "parse_vector",
    "parse_codes",
    "format_vector",
    "format_codes",
    "mask_indices",
    "index_mask",
    "bit_positions",
    "subset_masks",
    "scalar_product",
    "is_antipodal",
    "enumerate_v",
    "cardinality_v",
    "cardinality_exceeds",
    "comb_exceeds",
    "antipodal_neighbors",
    "antipodal_degree",
    "find_antipodal_pair",
    "partner_codes",
    "partner_bitsets",
    "bit_columns",
]

# enumerate_v refuses a V(n, k, l) larger than this: the biggest one any
# caller enumerates is 2,520, and 200,000 members take about 50 MB.
_ENUMERATE_CAP = 200_000

# Rows packed per step of bit_columns, which bounds its transient bytes
# and texts to about a chunk of rows: find_antipodal_pair peaks near
# 0.75 MB (tracemalloc) on the 15,015 members of example1(14, 4, 2), and
# the symmetry check of a 5,000-vertex graph, rows 5,000 bits wide, near
# 43 MB.
_COLUMN_CHUNK = 4096


@dataclass(frozen=True)
class Params:
    """Parameter triple (n, k, l): dimension, +1 count, -1 count.

    Validation admits the degenerate window k + l <= n < 2k on purpose;
    no antipodal pair exists there (two disjoint k-sets need n >= 2k),
    but enumeration and the closed-form bounds remain well defined.
    """

    n: int
    k: int
    l: int

    def __post_init__(self) -> None:
        if not (type(self.n) is int and type(self.k) is int and type(self.l) is int):  # bool is not a count
            raise InvalidParams(f"parameters must be integers, got ({self.n!r}, {self.k!r}, {self.l!r})")
        if not 1 <= self.l <= self.k:
            raise InvalidParams(f"need 1 <= l <= k, got k={self.k}, l={self.l}")
        if self.k + self.l > self.n:
            raise InvalidParams(f"need k + l <= n, got k+l={self.k + self.l}, n={self.n}")

    @property
    def nontrivial_regime(self) -> bool:
        """True when n >= 2k, i.e. antipodal pairs can exist at all."""
        return self.n >= 2 * self.k

    @property
    def circle_regime(self) -> bool:
        """True when 2k <= n <= 3k - l, the window of the circle bound."""
        return 2 * self.k <= self.n <= 3 * self.k - self.l


@dataclass(frozen=True, init=False, slots=True)
class SignedVector:
    """Immutable vector over {-1, 0, +1}: its dimension n and its code
    plus_mask | minus_mask << n (see the module docstring).  Equality
    and hashing use (n, code); plus, minus and support are decoded on
    demand."""

    n: int
    code: int

    def __init__(self, n: int, plus: Iterable[int], minus: Iterable[int]):
        plus, minus = frozenset(plus), frozenset(minus)
        if plus & minus:
            raise OverlapError(f"plus and minus sets overlap in {sorted(plus & minus)}")
        code = index_mask(plus, n) | index_mask(minus, n) << n
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "code", code)

    @property
    def plus(self) -> frozenset[int]:
        return frozenset(mask_indices(_masks(self)[0]))

    @property
    def minus(self) -> frozenset[int]:
        return frozenset(mask_indices(_masks(self)[1]))

    def __str__(self) -> str:
        return format_vector(self)

    def __repr__(self) -> str:
        return f"SignedVector(n={self.n}, plus={self.plus!r}, minus={self.minus!r})"


def _masks(v: SignedVector) -> tuple[int, int]:
    """(plus_mask, minus_mask) of v."""
    return v.code & ((1 << v.n) - 1), v.code >> v.n


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_flags(mask: int) -> bytes:
    """Byte i is 1 if bit i of mask is set, else 0, for i below
    mask.bit_length(): the binary digits of mask, reversed and translated,
    in one C-level pass.  A filter for compress.  A negative mask has no
    finite set of bits (and bin gives its magnitude): RangeError."""
    if mask < 0:
        raise RangeError(f"mask {mask} is negative, so its set bits are not a finite set")
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def bit_positions(mask: int) -> list[int]:
    """The 0-based positions of the set bits of mask, ascending."""
    return list(compress(range(mask.bit_length()), _bit_flags(mask)))


def mask_indices(mask: int) -> tuple[int, ...]:
    """The 1-based coordinates of the set bits of mask, ascending."""
    return tuple(compress(range(1, mask.bit_length() + 1), _bit_flags(mask)))


def index_mask(indices: Iterable[int], n: int) -> int:
    """The mask of these 1-based coordinates of [n], bit i - 1 for i: the
    inverse of mask_indices.  RangeError names the first index, in
    iteration order, that is not an int in [1..n] (a bool is an int)."""
    mask = 0
    for i in indices:
        if not (isinstance(i, int) and 1 <= i <= n):
            raise RangeError(f"index {i!r} outside [1..{n}]")
        mask |= 1 << (i - 1)
    return mask


def _decode(code: int, n: int) -> SignedVector:
    """The vector with this code (unchecked): the one way to build a
    vector from a code."""
    v = object.__new__(SignedVector)
    object.__setattr__(v, "n", n)
    object.__setattr__(v, "code", code)
    return v


_NOT_SIGNS = str.maketrans("", "", "+-0")
_PLUS_DIGITS = bytes.maketrans(b"+-0", b"100")
_MINUS_DIGITS = bytes.maketrans(b"+-0", b"010")


def parse_vector(text: str) -> SignedVector:
    """Parse a string over {'+', '-', '0'}, one character per coordinate.

    Each mask is read as a binary numeral of the reversed text (bit
    i - 1 is character i), after a check that no other character is
    there: int() would take '_', spaces and non-ASCII digits too."""
    if text == "":
        raise EmptyInput("empty vector text")
    if text.translate(_NOT_SIGNS):
        pos, ch = next((pos, ch) for pos, ch in enumerate(text) if ch not in "+-0")
        raise BadCharacter(f"character {ch!r} at position {pos + 1} (want '+', '-' or '0')")
    n, rev = len(text), text.encode()[::-1]
    plus, minus = int(rev.translate(_PLUS_DIGITS), 2), int(rev.translate(_MINUS_DIGITS), 2)
    return _decode(plus | minus << n, n)


def parse_codes(lines: Sequence[str]) -> list[tuple[int, int]]:
    """(n, code) of each vector text, in order, as parse_vector reads it;
    parse_vector's error for the first text it rejects.

    All texts are read in one pass.  Reversed, their join holds them
    last to first, each reversed, so bit i - 1 of a text's masks is its
    character i: one translation per mask spells every text's binary
    digits, and each text is two int(..., 2) calls.  A text that is
    empty or holds another character sends the texts through
    parse_vector one by one."""
    if not lines:
        return []
    joined = ",".join(lines).encode("utf-8", "replace")
    if "" in lines or joined.translate(None, b"+-0") != b"," * (len(lines) - 1):
        for line in lines:
            parse_vector(line)
    rev = joined[::-1]
    plus, minus = rev.translate(_PLUS_DIGITS).split(b","), rev.translate(_MINUS_DIGITS).split(b",")
    return [(len(q), int(q, 2) | int(m, 2) << len(q)) for q, m in zip(reversed(plus), reversed(minus))]


_OCTAL_SIGNS = str.maketrans("12", "+-")


def format_vector(v: SignedVector) -> str:
    """Inverse of parse_vector."""
    return format_codes((v.code,), v.n)[0]


def format_codes(codes: Iterable[int], n: int) -> list[str]:
    """The texts of the vectors with these codes at dimension n, in order.

    Each mask's binary digits, read as octal, put one octal digit per
    coordinate, so plus + 2 * minus has digit 1 at a plus coordinate, 2
    at a minus one and 0 elsewhere: written out in n octal digits, it
    spells the vector last coordinate first.  The numerals are joined,
    reversed and translated to signs in one call each."""
    full = (1 << n) - 1
    numerals = [f"{int(f'{c & full:b}', 8) + 2 * int(f'{c >> n:b}', 8):0{n}o}" for c in codes]
    if not (n and numerals):  # at n = 0 each numeral is "0"; no numerals would split into [""]
        return ["" for _ in numerals]
    return ",".join(numerals)[::-1].translate(_OCTAL_SIGNS).split(",")[::-1]


def scalar_product(v: SignedVector, w: SignedVector) -> int:
    """Standard scalar product: entries of equal sign, counted on the two
    codes, minus entries of opposite sign, counted against w with its
    halves swapped."""
    if v.n != w.n:
        raise DimensionMismatch(f"dimensions differ: {v.n} vs {w.n}")
    w_plus, w_minus = _masks(w)
    return (v.code & w.code).bit_count() - (v.code & (w_minus | w_plus << w.n)).bit_count()


def _conforming_codes(pairs: Iterable[tuple[int, int]], p: Params) -> dict[int, None]:
    """The codes of these (n, code) pairs as dict.fromkeys, in order
    and without repeats; the first pair that is not a member of
    V(n, k, l) raises."""
    n, k, l = p.n, p.k, p.l
    full = (1 << n) - 1
    codes: dict[int, None] = {}
    for vn, code in pairs:
        plus, minus = code & full, code >> n
        if vn != n or code < 0 or plus & minus or minus >> n or plus.bit_count() != k or minus.bit_count() != l:
            _raise_nonconforming(vn, code, p)
        codes[code] = None
    return codes


def _raise_nonconforming(n: int, code: int, p: Params) -> NoReturn:
    """Raise the error for a pair that _conforming_codes rejects, naming
    the first test it fails."""
    if n != p.n:
        raise DimensionMismatch(f"vector has n={n}, params have n={p.n}")
    plus, minus = code & ((1 << n) - 1), code >> n
    if code < 0 or plus & minus or minus >> n:  # not from a SignedVector
        raise InvalidParams(f"{code!r} is not a vector code at n={p.n}")
    raise InvalidParams(
        f"vector has {plus.bit_count()} plus / {minus.bit_count()} minus entries, params require k={p.k}, l={p.l}"
    )


def is_antipodal(v: SignedVector, w: SignedVector, p: Params) -> bool:
    """True iff <v, w> attains the minimum -2l.

    Two equivalent routes are evaluated on every call: the scalar product
    against -2l, and the containment characterization (minus of each
    inside plus of the other, plus sets disjoint).  Their agreement is an
    internal consistency check; for conforming inputs the equivalence is
    a theorem, so the RuntimeError can only fire on a coding error.
    """
    _conforming_codes(((v.n, v.code), (w.n, w.code)), p)
    by_product = scalar_product(v, w) == -2 * p.l
    (v_plus, v_minus), (w_plus, w_minus) = _masks(v), _masks(w)
    by_containment = not (v_minus & ~w_plus or w_minus & ~v_plus or v_plus & w_plus)
    if by_product != by_containment:
        raise RuntimeError("antipodality characterizations disagree")
    return by_product


class VectorFamily:
    """Duplicate-free ordered collection of vectors sharing one Params,
    held as its member codes (`codes`, see the module docstring).

    Construction validates that every member conforms to the parameters;
    duplicates are dropped, keeping the first occurrence.
    """

    __slots__ = ("params", "codes")

    def __init__(self, params: Params, members: Iterable[SignedVector]):
        self.params = params
        self.codes: dict[int, None] = _conforming_codes(((v.n, v.code) for v in members), params)

    @classmethod
    def _of(cls, params: Params, codes: dict[int, None]) -> "VectorFamily":
        """The family with these checked codes, taken as they are."""
        fam = object.__new__(cls)
        fam.params, fam.codes = params, codes
        return fam

    @classmethod
    def from_pairs(cls, params: Params, pairs: Iterable[tuple[int, int]]) -> "VectorFamily":
        """The family of the vectors with these (n, code) pairs, in order,
        checked as the constructor checks SignedVectors: a pair with
        another n raises DimensionMismatch."""
        return cls._of(params, _conforming_codes(pairs, params))

    @classmethod
    def from_codes(cls, params: Params, codes: Iterable[int]) -> "VectorFamily":
        """The family of the vectors with these codes, in order;
        InvalidParams for an int that is not a code at dimension n."""
        return cls.from_pairs(params, zip(repeat(params.n), codes))

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[SignedVector]:
        return map(_decode, self.codes, repeat(self.params.n))

    def __contains__(self, v: object) -> bool:
        return isinstance(v, SignedVector) and v.n == self.params.n and v.code in self.codes

    def strings(self) -> tuple[str, ...]:
        return tuple(format_codes(self.codes, self.params.n))

    def restrict(self, keep) -> "VectorFamily":
        """Subfamily of members satisfying the predicate, order preserved."""
        n = self.params.n
        return self.restrict_codes(lambda c: keep(_decode(c, n)))

    def restrict_codes(self, keep) -> "VectorFamily":
        """Subfamily of members whose code satisfies the predicate, order
        preserved; the codes were checked when this family was built."""
        return self._of(self.params, {c: None for c in self.codes if keep(c)})

    def __repr__(self) -> str:
        p = self.params
        return f"VectorFamily(n={p.n}, k={p.k}, l={p.l}, size={len(self)})"


def enumerate_v(p: Params) -> VectorFamily:
    """All of V(n, k, l) in lexicographic order on (plus, minus).

    Plus sets are emitted as lexicographically increasing k-tuples; for a
    fixed plus set the minus sets run lexicographically over the
    remaining indices.  The order is the canonical one used for vertex
    numbering throughout the package.  Over _ENUMERATE_CAP vectors it
    raises TooLarge before building any (see cardinality_exceeds).
    """
    if cardinality_exceeds(p, _ENUMERATE_CAP):
        raise TooLarge(f"|V({p.n},{p.k},{p.l})| exceeds the enumeration cap {_ENUMERATE_CAP}")
    bits = [1 << i for i in range(p.n)]
    codes = []
    for plus in combinations(bits, p.k):
        plus_mask = sum(plus)
        for minus in combinations([b << p.n for b in bits if not b & plus_mask], p.l):
            codes.append(plus_mask | sum(minus))
    fam = VectorFamily.from_codes(p, codes)
    if len(fam) != (size := cardinality_v(p)):
        raise RuntimeError(f"enumerated {len(fam)} vectors, closed form says {size}")
    return fam


def comb_exceeds(n: int, r: int, bound: int) -> bool:
    """C(n, r) > bound, in at most about log2(bound) + 1 steps: C(n, j)
    is at least 2**j for j <= n / 2, and each step is exact."""
    c = 1
    for j in range(min(r, n - r)):
        c = c * (n - j) // (j + 1)
        if c > bound:
            return True
    return c > bound


def cardinality_exceeds(p: Params, bound: int) -> bool:
    """|V(n, k, l)| > bound, without an exact count that could be slow
    when it is: |V| = C(n, k+l) * C(k+l, l) is over the bound if either
    factor is."""
    return (
        comb_exceeds(p.n, p.k + p.l, bound)
        or comb_exceeds(p.k + p.l, p.l, bound)
        or cardinality_v(p) > bound
    )


def cardinality_v(p: Params) -> int:
    """|V(n, k, l)| as an exact integer."""
    by_placement = math.comb(p.n, p.k) * math.comb(p.n - p.k, p.l)
    by_support = math.comb(p.n, p.k + p.l) * math.comb(p.k + p.l, p.l)
    if by_placement != by_support:
        raise RuntimeError(f"|V| by placement ({by_placement}) and by support ({by_support}) disagree")
    return by_placement


def subset_masks(mask: int, r: int) -> list[int]:
    """The r-subsets of the set bits of mask, as masks, in lexicographic
    order of their bit positions.  The bits are read off bit_positions,
    as mask & -mask would give each one the memory of the whole mask."""
    return [sum(c) for c in combinations([1 << i for i in bit_positions(mask)], r)]


def partner_codes(code: int, p: Params) -> Iterator[int]:
    """Codes of the antipodal partners of the member v of V(n, k, l) with
    this code (unchecked), in the order of antipodal_neighbors: the
    partner's minus set runs lexicographically over the l-subsets of
    plus(v), and for each its fresh plus positions over the
    (k - l)-subsets of the zeros of v."""
    n, full = p.n, (1 << p.n) - 1
    plus, minus = code & full, code >> n
    new_plus = [minus | z for z in subset_masks(full ^ plus ^ minus, p.k - p.l)]
    return (m << n | q for m in subset_masks(plus, p.l) for q in new_plus)


def antipodal_neighbors(v: SignedVector, p: Params) -> list[SignedVector]:
    """All w in V(n, k, l) antipodal to v, in deterministic order.

    Constructive generation: w must place its l minus entries inside
    plus(v) (C(k, l) choices) and its plus entries on minus(v) together
    with k - l of the n - k - l zero positions of v
    (C(n-k-l, k-l) choices).  Every such w is antipodal to v and every
    antipodal w arises exactly once, so the count is antipodal_degree(p).
    The brute-force cross-check lives in the test suite.
    """
    _conforming_codes(((v.n, v.code),), p)
    return [_decode(c, p.n) for c in partner_codes(v.code, p)]


def bit_columns(codes: Iterable[int], width: int) -> list[int]:
    """The bit columns of these codes, which must be non-negative and
    below 2**width: column i has bit j set when bit i of the j-th code is
    set, for each i < width.  Over a family's codes the columns are its
    member bitsets; over an adjacency matrix they are its transpose.

    _COLUMN_CHUNK codes at a time are packed into one int, a slot of
    8 * ceil(width / 8) bits each; its binary numeral holds the slots
    last to first, so every step-th digit from the one for bit i is
    column i of the chunk, read as one numeral.  Time is linear in the
    number of codes times width: per chunk, one packing and one C-level
    slice per column.  The transient memory is that of one chunk."""
    step = 8 * (nbytes := (width + 7) // 8)
    columns = [0] * width
    it, start = iter(codes), 0
    while chunk := list(islice(it, _COLUMN_CHUNK)):
        packed = int.from_bytes(b"".join(map(int.to_bytes, chunk, repeat(nbytes), repeat("little"))), "little")
        digits = f"{packed:0{len(chunk) * step}b}"
        for i in range(width):
            columns[i] |= int(digits[step - 1 - i :: step], 2) << start
        start += len(chunk)
    return columns


def partner_bitsets(codes: Collection[int], n: int) -> Iterator[int]:
    """For each code (plus | minus << n) in order, the bitset of the codes
    that are its antipodal partners: bit j stands for the j-th code.

    codes must be sized and re-iterable, such as a list or a family's
    codes.  A code w is a partner of v exactly when plus(w) misses
    plus(v), minus(w) lies in plus(v), and plus(w) holds minus(v).  On
    the member bitsets (bit_columns) the first two depend only on the plus
    mask P of v, so for each run of codes with plus mask P the codes
    meeting them are computed once, as X_P = everyone minus (the plus
    bitsets in P OR the minus bitsets outside P); the partners of v are
    X_P AND the plus bitsets of minus(v).  Cost: a linear build of 2n
    bitsets, n big-int ORs per run and at most l big-int ANDs per code
    (fewer once the row is empty).  The formula has no special cases:
    on minus-free codes a partner is a disjoint set, and when no two
    plus sets can be disjoint (n < 2k) every row is 0."""
    full = (1 << n) - 1
    columns = bit_columns(codes, 2 * n)
    everyone = (1 << len(codes)) - 1
    last_plus = None
    for code in codes:
        plus = code & full
        if plus != last_plus:
            blocked = 0
            for i in range(n):
                blocked |= columns[i] if plus >> i & 1 else columns[n + i]
            last_plus, x_p = plus, everyone ^ blocked
        partners, minus = x_p, code >> n
        while partners and minus:
            low = minus & -minus
            partners &= columns[low.bit_length() - 1]
            minus ^= low
        yield partners


def find_antipodal_pair(fam: VectorFamily) -> tuple[SignedVector, SignedVector] | None:
    """The first antipodal pair (v, w) of the family in member order, or
    None if the family is antipodal-free.

    v is the first member with a partner in the family, read off
    partner_bitsets; w is its first partner, in partner_codes order,
    that is in the family, so partner codes are built only for the v
    returned.  Below n = 2k no two plus sets are disjoint, so there is
    no pair and nothing is built."""
    p = fam.params
    if not p.nontrivial_regime:
        return None
    codes = fam.codes
    v = next(compress(codes, partner_bitsets(codes, p.n)), None)
    if v is None:
        return None
    return _decode(v, p.n), _decode(next(c for c in partner_codes(v, p) if c in codes), p.n)


def antipodal_degree(p: Params) -> int:
    """Number of antipodal partners of any fixed vector in V(n, k, l).

    Equals C(k, l) * C(n-k-l, k-l): the first factor places the partner's
    minus set inside the vector's plus set, the second chooses the k - l
    fresh plus positions among the vector's zeros (the remaining l plus
    positions are forced onto the vector's minus set).  The second
    exponent is k - l, not k - 2l; the variant with k - 2l undercounts,
    e.g. it gives 2 instead of 4 at (n, k, l) = (5, 2, 1) and fails every
    k = l instance.  The suite pins this down by brute force.
    """
    return math.comb(p.k, p.l) * math.comb(p.n - p.k - p.l, p.k - p.l)
