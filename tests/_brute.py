"""Independent oracles for the test suite.

Everything here recomputes quantities by routes the library never
takes: full 3^n sign-pattern scans instead of combination generators,
numpy Gram matrices instead of set intersections, and a plain
include/exclude recursion instead of the production solver, and
antipodal partners rebuilt as frozenset-backed SignedVectors instead of
integer vector codes.  Slow on purpose; keep the inputs tiny.
"""

from __future__ import annotations

import itertools

import numpy as np

from antipodal import SignedVector

_SIGN = {"+": 1, "-": -1, "0": 0}


def brute_vector_strings(n: int, k: int, l: int) -> list[str]:
    """All length-n strings over +-0 with k plus and l minus entries."""
    out = []
    for pattern in itertools.product("+-0", repeat=n):
        if pattern.count("+") == k and pattern.count("-") == l:
            out.append("".join(pattern))
    return out


def sign_matrix(strings: list[str]) -> np.ndarray:
    return np.array([[_SIGN[c] for c in s] for s in strings], dtype=np.int64)


def gram(strings: list[str]) -> np.ndarray:
    m = sign_matrix(strings)
    return m @ m.T


def antipodal_pair_counts(strings: list[str], l: int) -> np.ndarray:
    """Per-vector count of partners at scalar product -2l."""
    return (gram(strings) == -2 * l).sum(axis=1)


def brute_antipodal_neighbors(v, p) -> list:
    """Antipodal partners of v as SignedVectors, in the library's order:
    minus sets over the l-subsets of plus(v), then plus sets as minus(v)
    plus (k - l)-subsets of the zeros of v, both lexicographic."""
    zeros = sorted(set(range(1, p.n + 1)) - v.plus - v.minus)
    return [
        SignedVector(p.n, v.minus | frozenset(extra_plus), frozenset(new_minus))
        for new_minus in itertools.combinations(sorted(v.plus), p.l)
        for extra_plus in itertools.combinations(zeros, p.k - p.l)
    ]


def brute_find_antipodal_pair(fam):
    """The first (v, w) in member order with w a partner of v in fam, by
    hashing SignedVectors into the family."""
    for v in fam:
        for w in brute_antipodal_neighbors(v, fam.params):
            if w in fam:
                return v, w
    return None


def brute_max_independent(adj_lists: list[list[int]]) -> int:
    """Exact maximum independent set by unpruned include/exclude.

    Exponential; callers stay at or below ~18 vertices.
    """
    n = len(adj_lists)
    masks = [0] * n
    for i, row in enumerate(adj_lists):
        for j in row:
            masks[i] |= 1 << j

    def rec(live: int) -> int:
        if not live:
            return 0
        v = (live & -live).bit_length() - 1
        rest = live & ~(1 << v)
        return max(rec(rest), 1 + rec(rest & ~masks[v]))

    return rec((1 << n) - 1)


def brute_circle_pairs(n: int, k: int, l: int) -> list[tuple[frozenset[int], frozenset[int]]]:
    """The cyclic family H from its definition: member i is +1 on
    {i, ..., i+k-1} and -1 on {i-k, ..., i-k+l-1}, residues in [1..n]."""
    return [
        (
            frozenset((i + t - 1) % n + 1 for t in range(k)),
            frozenset((i - k + t - 1) % n + 1 for t in range(l)),
        )
        for i in range(1, n + 1)
    ]


def brute_image_count(image, h_pairs, fam_pairs) -> int:
    """|H(sigma) cap F| for sigma given as an image tuple, by rebuilding
    both index sets of every image member."""
    count = 0
    for plus, minus in h_pairs:
        ip = frozenset(image[i - 1] for i in plus)
        im = frozenset(image[i - 1] for i in minus)
        if (ip, im) in fam_pairs:
            count += 1
    return count


def brute_circle_histogram(strings, n: int, k: int, l: int, images=None) -> dict[int, int]:
    """Histogram of |H(sigma) cap F| over the given image tuples (default:
    all n! permutations, one by one), for F given as vector strings."""
    fam_pairs = frozenset(
        (
            frozenset(i for i, c in enumerate(s, start=1) if c == "+"),
            frozenset(i for i, c in enumerate(s, start=1) if c == "-"),
        )
        for s in strings
    )
    h_pairs = brute_circle_pairs(n, k, l)
    if images is None:
        images = itertools.permutations(range(1, n + 1))
    hist: dict[int, int] = {}
    for image in images:
        c = brute_image_count(image, h_pairs, fam_pairs)
        hist[c] = hist.get(c, 0) + 1
    return hist
