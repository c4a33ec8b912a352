"""Independent oracles for the test suite.

Everything here recomputes quantities by routes the library never
takes: full 3^n sign-pattern scans instead of combination generators,
numpy Gram matrices instead of set intersections, and a plain
include/exclude recursion instead of the production solver, antipodal
partners, slices and the deletion trace rebuilt from frozensets instead
of integer vector codes, a frozenset-backed reference vector, and a
per-character vector parser.  Slow
on purpose; keep the inputs tiny.

reference_solve and reference_cover_bound are the exception: they are
the solver's earlier node procedure and cover bound, kept to pin the
search tree of the current ones.  So is reference_antipodality_adj, the
antipodality graph's earlier build from partners looked up by code, and
reference_asymmetric_edge, Graph's earlier per-edge symmetry loop.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from antipodal import BadCharacter, OverlapError, RangeError, SignedVector, antipodal_neighbors, bit_positions, enumerate_v, search

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


def brute_parse_vector(text: str) -> SignedVector:
    """The vector a +-0 string spells, read one character at a time into
    two index sets."""
    plus, minus = set(), set()
    for i, ch in enumerate(text, start=1):
        if ch == "+":
            plus.add(i)
        elif ch == "-":
            minus.add(i)
        elif ch != "0":
            raise BadCharacter(f"character {ch!r} at position {i} (want '+', '-' or '0')")
    return SignedVector(len(text), plus, minus)


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


def reference_antipodality_adj(p) -> tuple[int, ...]:
    """The adjacency masks of the antipodality graph of V(n, k, l), built
    as the library once built them: each vertex's antipodal_neighbors,
    looked up in an index of the enumerated codes."""
    members = list(enumerate_v(p))
    index = {v.code: i for i, v in enumerate(members)}
    return tuple(sum(1 << index[w.code] for w in antipodal_neighbors(v, p)) for v in members)


def reference_asymmetric_edge(adj: tuple[int, ...]) -> str | None:
    """Graph's earlier symmetry check, the loop over every edge: the
    message for the first edge i-j, rows in order and j ascending, whose
    reverse is missing, or None.  Every mask must be inside the vertex
    range."""
    for i, mask in enumerate(adj):
        mm = mask
        while mm:
            lsb = mm & -mm
            j = lsb.bit_length() - 1
            mm ^= lsb
            if not adj[j] >> i & 1:
                return f"asymmetric edge {i}-{j}"
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


def reference_solve(adj: tuple[int, ...], mask: int, lo: int) -> tuple[int, int, int]:
    """search._Solver(adj, inf).solve(mask, lo) and the solver's node count
    after it, from the node procedure that rescans the residual.

    Each pass over the residual counts every degree and restarts after
    the first leaf it takes; the pass that finds no leaf gives the branch
    vertex.  search._Solver._cover_bound then makes its own greedy
    matching scan.
    """
    solver = search._Solver(adj, math.inf)
    closed = solver.closed
    nodes = 0

    def solve(mask: int, lo: int) -> tuple[int, int]:
        nonlocal nodes
        nodes += 1
        chosen = 0
        m = mask
        while True:
            leaf = v = -1
            best_d = 0
            for i in bit_positions(m):
                d = (adj[i] & m).bit_count()
                if d == 0:
                    chosen |= 1 << i
                elif d == 1:
                    leaf = i
                    break
                elif d > best_d:
                    best_d, v = d, i
            m &= ~chosen
            if leaf < 0:
                break
            chosen |= 1 << leaf
            m &= ~closed[leaf]
        taken = chosen.bit_count()
        target = lo - taken
        if m == 0:
            return taken, chosen
        bound = solver._cover_bound(m, target)[0]
        if bound <= target:
            return taken + bound, 0
        s_in, w_in = solve(m & ~closed[v], target - 1)
        size, wit = s_in + 1, w_in | 1 << v
        s_ex, w_ex = solve(m & ~(1 << v), max(target, size))
        if s_ex > size:
            size, wit = s_ex, w_ex
        if size <= target:
            return taken + size, 0
        return taken + size, wit | chosen

    size, wit = solve(mask, lo)
    return size, wit, nodes


def reference_cover_bound(adj: tuple[int, ...], mask: int, target: int, deg: list[int] | None = None) -> tuple[int, int]:
    """search._Solver(adj, inf)._cover_bound(mask, target, deg) as it was
    before it stopped once the outcome is known and closed failed trees:
    every root runs until the bound is at most target, and a later tree
    may enter a failed one.  The current routine must give the same
    decision (bound <= target), the same bound wherever that holds, and
    the same branch vertex."""
    mate = [0] * len(adj)
    if deg is None:
        deg = [0] * len(adj)  # no degree beats 0, so v stays -1
    free = 0  # the unmatched vertices
    v = -1
    best_d = 0
    mm = mask
    while mm:
        lsb = mm & -mm
        i = lsb.bit_length() - 1
        mm ^= lsb
        d = deg[i]
        if d > best_d:
            best_d = d
            v = i
        cand = adj[i] & free
        if cand:
            low = cand & -cand
            j = low.bit_length() - 1
            mate[i] = j
            mate[j] = i
            free ^= low
        else:
            free |= lsb
    # |mask| - |M|, with |M| = (|mask| - |free|) / 2
    bound = (mask.bit_count() + free.bit_count()) // 2
    parent = [0] * len(adj)
    used = 0  # the odd-cycle sets already charged
    roots = free
    while roots and bound > target:
        root_bit = roots & -roots
        roots ^= root_bit
        if not free & root_bit:
            continue  # matched by an earlier augmenting path
        r = root_bit.bit_length() - 1
        avail = mask & ~(used | root_bit)  # the vertices not yet in the tree
        outer_bits = root_bit
        outer = [r]
        for u in outer:
            nbrs = adj[u] & avail
            hit = nbrs & free
            if hit:
                end = hit & -hit
                free ^= root_bit | end
                bound -= 1
                w = end.bit_length() - 1
                while True:  # flip the path r ... u - w
                    nxt = mate[u]
                    mate[w] = u
                    mate[u] = w
                    if u == r:
                        break
                    w = nxt
                    u = parent[w]
                break
            hit = adj[u] & outer_bits
            if hit:
                used |= root_bit
                for z in (u, (hit & -hit).bit_length() - 1):
                    while z != r:  # the matched pairs up to the root
                        x = mate[z]
                        used |= 1 << z | 1 << x
                        z = parent[x]
                bound -= 1
                break
            while nbrs:  # matched neighbors: inner, their mates outer
                xb = nbrs & -nbrs
                x = xb.bit_length() - 1
                y = mate[x]
                parent[x] = u
                avail ^= xb | 1 << y
                outer_bits |= 1 << y
                nbrs &= avail
                outer.append(y)
    return bound, v


def reference_max_independent(adj: tuple[int, ...]) -> tuple[int, int, int]:
    """(optimum, witness mask, nodes explored) that max_independent_set
    must return: reference_solve of the whole graph against the
    min-degree greedy set, which is the answer when the search fails low."""
    everything = (1 << len(adj)) - 1
    greedy = search._greedy_mask(adj, everything)
    lo = greedy.bit_count()
    size, wit, nodes = reference_solve(adj, everything, lo)
    if size <= lo:
        size, wit = lo, greedy
    return size, wit, nodes


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


@dataclass(frozen=True)
class FrozensetVector:
    """A signed vector stored as its dimension and two index frozensets,
    with the constructor checks and views of SignedVector."""

    n: int
    plus: frozenset
    minus: frozenset

    def __post_init__(self) -> None:
        if self.plus & self.minus:
            raise OverlapError(f"plus and minus sets overlap in {sorted(self.plus & self.minus)}")
        for i in self.plus | self.minus:
            if not (isinstance(i, int) and 1 <= i <= self.n):
                raise RangeError(f"index {i!r} outside [1..{self.n}]")

    def __str__(self) -> str:
        return "".join("+" if i in self.plus else "-" if i in self.minus else "0" for i in range(1, self.n + 1))


def _comb(x: int, y: int) -> int:
    return math.comb(x, y) if 0 <= y <= x else 0


def _ordered_l_pairs(n: int, l: int):
    """Ordered pairs of disjoint l-sets of [n] as sorted tuples, lexicographic."""
    for a in itertools.combinations(range(1, n + 1), l):
        for b in itertools.combinations([i for i in range(1, n + 1) if i not in a], l):
            yield a, b


def _pair_str(a, b) -> str:
    return ",".join(map(str, a)) + "|" + ",".join(map(str, b))


def brute_subfamily(fam, a, b) -> list[frozenset]:
    """F(A, B) by definition: plus set minus A of every member whose minus
    set is B and whose plus set contains A, in member order."""
    a, b = frozenset(a), frozenset(b)
    return [v.plus - a for v in fam if v.minus == b and a <= v.plus]


def _frozenset_members(fam) -> list[FrozensetVector]:
    """The members of fam in order, each decoded once into its frozensets."""
    return [FrozensetVector(v.n, v.plus, v.minus) for v in fam]


def brute_family_b(fam, t) -> list[frozenset]:
    """Minus sets of the members supported exactly on T, in member order."""
    return [v.minus for v in fam if v.plus | v.minus == frozenset(t)]


def _report(fam, **fields) -> dict:
    p = fam.params
    out = {
        "family_size": len(fam),
        "threshold": _comb(p.n - 2 * p.l - 1, p.k - p.l - 1),
        "policy": "single pass: thresholds evaluated against the input family, pairs in lex order",
        "pair_counts": {},
        "deletions": {},
        "deleted": [],
        "survivor_size": 0,
        "accounting_lower_bound": 0,
        "family_b_sizes": {},
        "final_bound": None,
        "violations": [],
    }
    out.update(fields)
    out["ok"] = not out["violations"]
    return out


def brute_lemma1(fam) -> dict:
    """lemma1_check(fam).as_dict() by definition: each unordered pair {A, B}
    once, at the first of (A, B), (B, A) in lex order; a member pair
    (C, D) of F(A, B) x F(B, A) with C cap D empty is a violation naming
    the vectors (A cup C, B) and (B cup D, A)."""
    p = fam.params
    members = _frozenset_members(fam)
    counts, violations = {}, []
    for a, b in _ordered_l_pairs(p.n, p.l):
        if _pair_str(b, a) in counts:
            continue
        slice_ab, slice_ba = brute_subfamily(members, a, b), brute_subfamily(members, b, a)
        counts[_pair_str(a, b)] = len(slice_ab)
        counts[_pair_str(b, a)] = len(slice_ba)
        for c in slice_ab:
            for d in slice_ba:
                if not c & d:
                    pair = [str(FrozensetVector(p.n, frozenset(a) | c, frozenset(b))),
                            str(FrozensetVector(p.n, frozenset(b) | d, frozenset(a)))]
                    violations.append({
                        "stage": "lemma1",
                        "message": "slices are not cross-intersecting",
                        "data": {"A": list(a), "B": list(b), "C": sorted(c), "D": sorted(d),
                                 "antipodal_pair": pair},
                    })
    return _report(fam, pair_counts=counts, violations=violations)


def brute_deletion(fam) -> tuple[list[str], dict]:
    """deletion_procedure(fam) by definition: (survivor strings, trace
    as_dict()).  Every ordered pair whose slice in the input family has at
    most the threshold members deletes them; a vector is charged to the
    first such pair in lex order."""
    p = fam.params
    threshold = _comb(p.n - 2 * p.l - 1, p.k - p.l - 1)
    members = _frozenset_members(fam)
    counts, deletions, doomed = {}, {}, set()
    for a, b in _ordered_l_pairs(p.n, p.l):
        a_set, b_set = frozenset(a), frozenset(b)
        indexed = [v for v in members if v.minus == b_set and a_set <= v.plus]
        counts[_pair_str(a, b)] = len(indexed)
        if len(indexed) <= threshold:
            fresh = [v for v in indexed if v not in doomed]
            deletions[_pair_str(a, b)] = len(fresh)
            doomed.update(fresh)
    survivors = [str(v) for v in members if v not in doomed]
    lower = len(fam) - _comb(p.n, 2 * p.l) * _comb(2 * p.l, p.l) * threshold
    violations = []
    if len(survivors) < lower:
        violations.append({
            "stage": "accounting",
            "message": "survivor count fell below the accounting lower bound",
            "data": {"survivors": len(survivors), "lower_bound": lower},
        })
    return survivors, _report(
        fam,
        pair_counts=counts,
        deletions=deletions,
        deleted=[str(v) for v in members if v in doomed],
        survivor_size=len(survivors),
        accounting_lower_bound=lower,
        violations=violations,
    )
