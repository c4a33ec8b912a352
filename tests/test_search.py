"""Exact solver: graph model, branch and bound vs brute force, extremal values."""

import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    Graph,
    InvalidParams,
    Params,
    SearchResult,
    TooLarge,
    antipodal_degree,
    antipodality_graph,
    cardinality_v,
    circle_family,
    ekr_bound,
    fk1_bound,
    kneser_graph,
    max_antipodal_free,
    max_independent_set,
    max_intersecting,
    parse_vector,
    theorem1_bound,
    theorem2_bound,
)
from antipodal import bounds, search, vectors
from _brute import (
    antipodal_pair_counts,
    brute_max_independent,
    reference_asymmetric_edge,
    reference_cover_bound,
    reference_max_independent,
    reference_solve,
)


def _graph(labels, neighbor_lists):
    """Graph with these labels; vertex i is adjacent to neighbor_lists[i]."""
    return Graph(tuple(labels), tuple(sum(1 << j for j in set(nbrs)) for nbrs in neighbor_lists))


def _random_graph(rng, n, p_edge):
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                adj[i].add(j)
                adj[j].add(i)
    labels = tuple(f"v{i}" for i in range(n))
    return _graph(labels, adj)


def _neighbor_lists(g):
    return [[j for j in range(g.n) if g.adj[i] >> j & 1] for i in range(g.n)]


def _induced(g, keep):
    """Subgraph on the vertices keep; vertex i of it is keep[i] of g."""
    pos = {old: new for new, old in enumerate(keep)}
    lists = [[pos[j] for j in range(g.n) if g.adj[old] >> j & 1 and j in pos] for old in keep]
    return _graph(tuple(g.labels[old] for old in keep), lists)


# ---------------------------------------------------------------- graph model

def test_graph_rejects_self_loops():
    with pytest.raises(InvalidParams):
        _graph(("a",), [{0}])


@pytest.mark.parametrize(
    "labels, adj, message",
    [
        (("a", "b"), (0b100, 0), "leaves the vertex range"),
        (("a",), (0b1,), "self-loop"),
        (("a", "b"), (0,), "adjacency masks"),
        (("a", "b"), (0b10, 0), "asymmetric edge 0-1"),
        (("a", "b"), (0, 0b01), "asymmetric edge 1-0$"),
        # two edges of row 0 lack their reverse: the lower one is named
        (("a", "b", "c"), (0b110, 0, 0), "asymmetric edge 0-1$"),
        # the first asymmetric row comes after a symmetric edge 0-1
        (("a", "b", "c"), (0b010, 0b101, 0b000), "asymmetric edge 1-2$"),
        # range and self-loops are checked on every row before symmetry
        (("a", "b"), (0b10, 0b100), "adjacency of vertex 1 leaves the vertex range"),
        (("a", "b"), (-1, 0), "adjacency of vertex 0 leaves the vertex range"),
        (("a", "b"), (0b10, -2), "adjacency of vertex 1 leaves the vertex range"),
    ],
)
def test_graph_rejects_bad_adjacency_masks(labels, adj, message):
    with pytest.raises(InvalidParams, match=message):
        Graph(labels, adj)


def test_graph_checks_symmetry_past_one_column_chunk():
    # A path on one more chunk of rows than the transpose packs at once.
    n = vectors._COLUMN_CHUNK + 5
    labels = tuple(map(str, range(n)))
    path = [(1 << i - 1 if i else 0) | (1 << i + 1 if i < n - 1 else 0) for i in range(n)]
    assert Graph(labels, tuple(path)).adj == tuple(path)
    path[n - 2] ^= 1 << n - 3  # drop the reverse of edge n-3 - n-2
    with pytest.raises(InvalidParams, match=f"^asymmetric edge {n - 3}-{n - 2}$"):
        Graph(labels, tuple(path))


@pytest.mark.parametrize("seed", range(40))
def test_graph_symmetry_check_matches_the_edge_loop(seed):
    # Seeded random graphs, sparse to dense, with 0-3 single-bit flips off
    # the diagonal: Graph accepts and rejects as the earlier loop did, with
    # its message.  Seed 0 is one vertex past a column chunk.
    rng = random.Random(seed)
    if seed == 0:
        n = vectors._COLUMN_CHUNK + 1
        edges = [rng.sample(range(n), 2) for _ in range(2 * n)]
    else:
        n, p_edge = rng.randint(0, 300), rng.random()
        edges = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < p_edge]
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    for _ in range(rng.randint(0, 3) if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        adj[i] ^= 1 << j
    adj = tuple(adj)
    message = reference_asymmetric_edge(adj)
    labels = tuple(map(str, range(n)))
    if message is None:
        assert Graph(labels, adj).adj == adj
    else:
        with pytest.raises(InvalidParams, match=f"^{message}$"):
            Graph(labels, adj)


def test_antipodality_graph_frozen_4_2_1():
    g = antipodality_graph(Params(4, 2, 1))
    assert g.n == 12
    assert [m.bit_count() for m in g.adj] == [2] * 12  # 12 edges


def test_antipodality_graph_frozen_6_2_2():
    g = antipodality_graph(Params(6, 2, 2))
    assert g.n == 90
    assert [m.bit_count() for m in g.adj] == [1] * 90  # a perfect matching, 45 edges


def test_antipodality_graph_degree_matches_formula():
    for p in [(4, 2, 1), (5, 2, 1), (6, 2, 2), (6, 3, 1)]:
        park = Params(*p)
        g = antipodality_graph(park)
        deg = antipodal_degree(park)
        assert [m.bit_count() for m in g.adj] == [deg] * g.n


def test_antipodality_graph_vertex_cap():
    p = Params(12, 4, 2)  # |V| = 13,860
    assert cardinality_v(p) > search.VERTEX_CAP
    # A second call raises again: a p over the cap is never cached.
    for _ in range(2):
        with pytest.raises(TooLarge, match=r"^\|V\(12,4,2\)\| exceeds the vertex cap 5000$"):
            antipodality_graph(p)


def test_antipodality_graph_built_once_per_params():
    p = Params(7, 2, 1)
    assert antipodality_graph(p) is antipodality_graph(Params(7, 2, 1))


def test_kneser_graph_vertex_cap():
    assert math.comb(20, 5) == 15504 > search.VERTEX_CAP
    with pytest.raises(TooLarge, match=r"^C\(20,5\) exceeds the vertex cap 5000$"):
        kneser_graph(20, 5)


def test_kneser_graph_petersen():
    g = kneser_graph(5, 2)
    assert g.n == 10
    assert g.labels[:5] == ("1,2", "1,3", "1,4", "1,5", "2,3") and g.labels[-1] == "4,5"
    assert [m.bit_count() for m in g.adj] == [3] * 10  # 15 edges


# n < 2k and k = n have no edges; (1, 1) and (k, k) a single vertex.
@pytest.mark.parametrize(
    "nk", [(5, 2), (1, 1), (2, 1), (3, 2), (4, 4), (5, 3), (6, 1), (6, 3), (7, 2), (8, 4), (9, 3), (10, 5)], ids=str
)
def test_kneser_graph_matches_pairwise_disjointness(nk):
    n, k = nk
    g = kneser_graph(n, k)
    sets = [set(map(int, label.split(","))) for label in g.labels]
    assert sets == [set(c) for c in itertools.combinations(range(1, n + 1), k)]
    adj = tuple(sum(1 << j for j, b in enumerate(sets) if i != j and a.isdisjoint(b)) for i, a in enumerate(sets))
    assert g.adj == adj


# ---------------------------------------------------------------- solver

def test_solver_trivial_graphs():
    empty = Graph((), ())
    assert max_independent_set(empty).optimum == 0
    loner = Graph(("x",), (0,))
    assert max_independent_set(loner).optimum == 1


def test_solver_path_and_cycle():
    # path on 5 vertices: alpha = 3; 5-cycle: alpha = 2
    path = _graph(
        tuple("abcde"), [{1}, {0, 2}, {1, 3}, {2, 4}, {3}]
    )
    assert max_independent_set(path).optimum == 3
    cyc = _graph(
        tuple("abcde"), [{1, 4}, {0, 2}, {1, 3}, {2, 4}, {3, 0}]
    )
    assert max_independent_set(cyc).optimum == 2


@given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.floats(0.05, 0.9))
@settings(max_examples=60, deadline=None)
def test_solver_matches_brute(seed, n, p_edge):
    rng = random.Random(seed)
    g = _random_graph(rng, n, p_edge)
    result = max_independent_set(g)
    assert result.proof_of_optimality
    assert result.optimum == brute_max_independent(_neighbor_lists(g))
    assert len(result.witness) == result.optimum


def test_solver_relabel_invariant():
    rng = random.Random(11)
    g = _random_graph(rng, 12, 0.3)
    base = max_independent_set(g).optimum
    lists = _neighbor_lists(g)
    idx = list(range(g.n))
    for _ in range(10):
        rng.shuffle(idx)
        adj = [[idx.index(j) for j in lists[idx[i]]] for i in range(g.n)]
        shuffled = _graph(
            tuple(g.labels[idx[i]] for i in range(g.n)), adj
        )
        assert max_independent_set(shuffled).optimum == base


def test_solver_budget_exhaustion_falls_back():
    rng = random.Random(5)
    g = _random_graph(rng, 60, 0.5)
    result = max_independent_set(g, budget=0.0)
    assert not result.proof_of_optimality
    assert result.optimum == len(result.witness) > 0


@pytest.mark.parametrize("budget", [-1.0, -1e-9, -math.inf, math.nan])
def test_budget_below_zero_or_nan_rejected(budget):
    with pytest.raises(InvalidParams, match="budget"):
        max_independent_set(_cycle(5), budget=budget)
    with pytest.raises(InvalidParams, match="budget"):
        max_antipodal_free(Params(5, 2, 1), budget=budget)
    with pytest.raises(InvalidParams, match="budget"):
        max_intersecting(5, 2, budget=budget)


def test_budget_stops_a_search_on_a_large_graph():
    # A node on V(9,3,2) costs milliseconds, so a clock read only every
    # 1024th node would overrun a 0.5 s budget many times over.
    g = antipodality_graph(Params(9, 3, 2))
    start = time.monotonic()
    result = max_independent_set(g, budget=0.5)
    assert time.monotonic() - start < 3
    assert not result.proof_of_optimality
    assert result.optimum == len(result.witness) > 0


def test_budget_zero_and_infinite_accepted():
    assert not max_independent_set(_cycle(5), budget=0).proof_of_optimality
    result = max_independent_set(_cycle(5), budget=math.inf)
    assert result.proof_of_optimality and result.optimum == 2


# Largest induced subgraph drawn from each small antipodality graph.  These
# graphs are triangle-free, so their subgraphs have many leaves and split
# into components.  V(6,2,2) is a perfect matching: its subgraphs are mostly
# isolated vertices, on which the brute-force oracle doubles per vertex.
_ORACLE_SIZES = {(5, 2, 1): 22, (6, 3, 1): 22, (6, 2, 2): 18}


@given(st.sampled_from(sorted(_ORACLE_SIZES)), st.data())
@settings(max_examples=60, deadline=None)
def test_solver_matches_brute_on_antipodality_subgraphs(triple, data):
    g = antipodality_graph(Params(*triple))
    count = data.draw(st.integers(0, _ORACLE_SIZES[triple]))
    keep = data.draw(st.permutations(range(g.n)))[:count]
    h = _induced(g, keep)
    alpha = brute_max_independent(_neighbor_lists(h))
    result = max_independent_set(h)
    assert result.proof_of_optimality
    assert result.optimum == len(result.witness) == alpha
    # The fail-low contract at every target: exact above it, an upper bound
    # at most the target otherwise.  One solver serves all targets, from
    # the loosest down.
    solver = search._Solver(h.adj, float("inf"))
    for lo in range(h.n, -2, -1):
        size, wit = solver.solve((1 << h.n) - 1, lo)
        if alpha > lo:
            assert size == wit.bit_count() == alpha
        else:
            assert alpha <= size <= lo


# ---------------------------------------------------------------- greedy target

def _quadratic_greedy_mask(adj, m):
    """The reference greedy: recount the degree of every remaining vertex
    before each pick, take the lowest-index vertex of minimum degree and
    drop its closed neighborhood."""
    chosen = 0
    while m:
        best_v = -1
        best_d = len(adj)
        mm = m
        while mm:
            lsb = mm & -mm
            i = lsb.bit_length() - 1
            mm ^= lsb
            d = (adj[i] & m).bit_count()
            if d < best_d:
                best_d = d
                best_v = i
        chosen |= 1 << best_v
        m &= ~(adj[best_v] | 1 << best_v)
    return chosen


_GREEDY_TRIPLES = [
    (n, k, l)
    for n in range(2, 9)
    for k in range(1, n)
    for l in range(1, k + 1)
    if k + l <= n and cardinality_v(Params(n, k, l)) <= 600
]


@pytest.mark.parametrize("triple", _GREEDY_TRIPLES)
def test_greedy_matches_quadratic_reference_on_antipodality_graphs(triple):
    g = antipodality_graph(Params(*triple))
    everything = (1 << g.n) - 1
    assert search._greedy_mask(g.adj, everything) == _quadratic_greedy_mask(g.adj, everything)


@pytest.mark.parametrize("seed", range(40))
def test_greedy_matches_quadratic_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    g = _random_graph(rng, rng.randrange(1, 40), rng.choice((0.05, 0.15, 0.3, 0.6)))
    for _ in range(5):
        mask = rng.getrandbits(g.n)
        greedy = search._greedy_mask(g.adj, mask)
        assert greedy == _quadratic_greedy_mask(g.adj, mask)
        assert greedy & ~mask == 0 and search._is_independent(g.adj, greedy)


def test_bits_lists_the_set_bits_ascending():
    rng = random.Random(0)
    masks = [0, 1, 2, 3, 1 << 4999, (1 << 5000) - 1]
    masks += [rng.getrandbits(rng.randrange(1, 5001)) & rng.getrandbits(5000) for _ in range(50)]
    for mask in masks:
        assert vectors.bit_positions(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


# ---------------------------------------------------------------- cover bound

def _greedy_cover_bound(adj, mask):
    """The one-pass greedy matching bound: each vertex paired with its
    lowest earlier unpaired neighbor, |mask| minus the pairs."""
    open_m = 0
    pairs = 0
    for i in vectors.bit_positions(mask):
        cand = adj[i] & open_m
        if cand:
            open_m ^= cand & -cand
            pairs += 1
        else:
            open_m |= 1 << i
    return mask.bit_count() - pairs


def _matching_cover_bound(adj, mask):
    """The bound without odd cycles: |mask| - |M| for the greedy matching
    grown by the augmenting paths of one alternating BFS per unmatched
    root, in ascending order, without blossom shrinking."""
    mate = {}
    free = 0
    for i in vectors.bit_positions(mask):
        cand = adj[i] & free
        if cand:
            j = (cand & -cand).bit_length() - 1
            mate[i], mate[j] = j, i
            free ^= 1 << j
        else:
            free |= 1 << i
    for r in vectors.bit_positions(free):
        if not free >> r & 1:
            continue  # matched by an earlier augmenting path
        parent = {}
        seen = 1 << r
        outer = [r]
        for u in outer:
            nbrs = adj[u] & mask & ~seen
            hit = nbrs & free
            if hit:
                w = (hit & -hit).bit_length() - 1
                free ^= 1 << r | 1 << w
                while True:  # flip the path r ... u - w
                    nxt = mate.get(u)
                    mate[w], mate[u] = u, w
                    if u == r:
                        break
                    w = nxt
                    u = parent[w]
                break
            for x in vectors.bit_positions(nbrs):
                if not seen >> x & 1:
                    parent[x] = u
                    seen |= 1 << x | 1 << mate[x]
                    outer.append(mate[x])
    return (mask.bit_count() + free.bit_count()) // 2


def _cycle(n):
    return _graph(tuple(f"c{i}" for i in range(n)), [[(i - 1) % n, (i + 1) % n] for i in range(n)])


def _complete(n):
    return _graph(tuple(f"k{i}" for i in range(n)), [[j for j in range(n) if j != i] for i in range(n)])


def _union(*graphs):
    labels, lists = [], []
    for g in graphs:
        shift = len(labels)
        labels += [f"{shift + i}" for i in range(g.n)]
        lists += [[shift + j for j in row] for row in _neighbor_lists(g)]
    return _graph(tuple(labels), lists)


# C5 on vertices 0, 2, 3, 4, 5 with the stem 0 - 1 - 6.  The greedy
# matching pairs 0-1, 2-3 and 4-5 and leaves the stem's tip 6 unmatched, so
# the odd-cycle set found from 6 is stem plus cycle, all seven vertices.
_LOLLIPOP = _graph(
    tuple(f"l{i}" for i in range(7)), [[1, 2, 5], [0, 6], [0, 3], [2, 4], [3, 5], [4, 0], [1]]
)
_PETERSEN = kneser_graph(5, 2)
_ODD_CYCLE_GRAPHS = {
    "C5": _cycle(5),
    "C7": _cycle(7),
    "C9": _cycle(9),
    "lollipop": _LOLLIPOP,
    "Petersen": _PETERSEN,
    "K4": _complete(4),
    "C5+C7": _union(_cycle(5), _cycle(7)),
    "C5+K4+C5": _union(_cycle(5), _complete(4), _cycle(5)),
    "Petersen+C5": _union(_PETERSEN, _cycle(5)),
    "C7+K4+K1": _union(_cycle(7), _complete(4), _complete(1)),
    "lollipop+C9": _union(_LOLLIPOP, _cycle(9)),
}


def _full_cover_bound(solver, mask):
    """The bound of the run over every root.  A run stops early only above
    its target, so this is the value at the first target t that the
    bound does not exceed."""
    t = -1
    while (bound := solver._cover_bound(mask, t)[0]) > t:
        t += 1
    return bound


def _assert_cover_bound_sound(g):
    # The full run lies between alpha and the greedy bound it starts from.
    # On these seeded graphs it is also at most the bound without odd
    # cycles, but that is no longer true by design: a charged set can block
    # a later root's augmenting path (10 of 60,000 random induced subgraphs
    # read 1 above that reference, 12,036 below it).  Every target: the
    # decision of the full run, and a bound between the full run's and
    # the greedy one.
    mask = (1 << g.n) - 1
    alpha = brute_max_independent(_neighbor_lists(g))
    greedy = _greedy_cover_bound(g.adj, mask)
    solver = search._Solver(g.adj, float("inf"))
    full = _full_cover_bound(solver, mask)
    assert alpha <= full <= _matching_cover_bound(g.adj, mask) <= greedy
    for target in range(-1, g.n + 1):
        bound = solver._cover_bound(mask, target)[0]
        assert (bound <= target) == (full <= target)
        assert full <= bound <= greedy
    return full


@pytest.mark.parametrize("name", sorted(_ODD_CYCLE_GRAPHS))
def test_cover_bound_sound_on_odd_cycles(name):
    _assert_cover_bound_sound(_ODD_CYCLE_GRAPHS[name])


@pytest.mark.parametrize("name", ["C5", "C7", "C9", "lollipop", "lollipop+C9"])
def test_cover_bound_charges_odd_cycles(name):
    # A matching leaves one vertex of each odd cycle (or lollipop) unmatched
    # and so charges it one more than alpha; the odd-cycle charge takes
    # that 1 back, on each component.
    g = _ODD_CYCLE_GRAPHS[name]
    mask = (1 << g.n) - 1
    alpha = brute_max_independent(_neighbor_lists(g))
    assert _assert_cover_bound_sound(g) == alpha
    assert _matching_cover_bound(g.adj, mask) == alpha + name.count("+") + 1


@pytest.mark.parametrize("seed", range(40))
def test_cover_bound_sound_on_random_graphs(seed):
    rng = random.Random(seed)
    g = _random_graph(rng, rng.randrange(1, 15), rng.choice((0.15, 0.3, 0.5)))
    _assert_cover_bound_sound(g)
    # Every induced subgraph on a random vertex subset, too.
    solver = search._Solver(g.adj, float("inf"))
    for _ in range(5):
        keep = sorted(rng.sample(range(g.n), rng.randrange(g.n + 1)))
        sub = sum(1 << i for i in keep)
        alpha = brute_max_independent(_neighbor_lists(_induced(g, keep)))
        bound = _full_cover_bound(solver, sub)
        assert alpha <= bound <= _matching_cover_bound(g.adj, sub) <= _greedy_cover_bound(g.adj, sub)


@pytest.mark.parametrize("seed", range(20))
def test_cover_bound_exact_on_bipartite_graphs(seed):
    # No odd cycles means no blossoms: the alternating BFS then finds a
    # maximum matching, and |V| - nu = alpha (Koenig and Gallai).
    rng = random.Random(seed)
    left, right = rng.randrange(1, 8), rng.randrange(1, 8)
    lists = [[] for _ in range(left + right)]
    for i in range(left):
        for j in range(left, left + right):
            if rng.random() < 0.35:
                lists[i].append(j)
                lists[j].append(i)
    order = list(range(left + right))
    rng.shuffle(order)
    g = _induced(_graph(tuple(map(str, order)), lists), order)
    alpha = brute_max_independent(_neighbor_lists(g))
    assert _full_cover_bound(search._Solver(g.adj, float("inf")), (1 << g.n) - 1) == alpha


def _assert_cover_bound_matches_reference(adj, mask):
    # Stopping once the decision is known and closing failed trees must
    # keep the decision, the bound wherever it is at most the target and
    # the branch vertex of the earlier routine, at every target, with and
    # without degrees.
    solver = search._Solver(adj, float("inf"))
    deg = [(a & mask).bit_count() for a in adj]
    for target in range(-1, mask.bit_count() + 1):
        for d in (deg, None):
            bound, v = solver._cover_bound(mask, target, d)
            ref, ref_v = reference_cover_bound(adj, mask, target, d)
            assert (bound <= target) == (ref <= target), (target, bound, ref)
            if ref <= target:
                assert bound == ref
            assert v == ref_v


@pytest.mark.parametrize("seed", range(60))
def test_cover_bound_matches_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 41)
    p_edge = rng.choice((rng.uniform(2, 5) / max(n - 1, 1), rng.uniform(0.1, 0.4)))
    g = _triangle_free_graph(rng, n, p_edge) if seed % 2 else _random_graph(rng, n, p_edge)
    for _ in range(3):
        _assert_cover_bound_matches_reference(g.adj, rng.getrandbits(n) | rng.getrandbits(n))


@pytest.mark.parametrize("name", sorted(_ODD_CYCLE_GRAPHS))
def test_cover_bound_matches_reference_on_odd_cycles(name):
    g = _ODD_CYCLE_GRAPHS[name]
    _assert_cover_bound_matches_reference(g.adj, (1 << g.n) - 1)


@pytest.mark.parametrize("triple", [(6, 2, 1), (7, 2, 1), (7, 3, 1), (8, 2, 1)])
def test_cover_bound_matches_reference_on_antipodality_subgraphs(triple):
    rng = random.Random(sum(triple))
    g = antipodality_graph(Params(*triple))
    for _ in range(3):
        keep = rng.sample(range(g.n), rng.randrange(g.n // 4, g.n // 2))
        _assert_cover_bound_matches_reference(g.adj, sum(1 << i for i in keep))


@pytest.mark.parametrize("name", [name for name in sorted(_ODD_CYCLE_GRAPHS) if "+" in name])
def test_solver_fail_low_contract_on_unions_of_odd_cycles(name):
    # As on the antipodality subgraphs: exact above each target, an upper
    # bound at most the target otherwise, with one solver for every target.
    g = _ODD_CYCLE_GRAPHS[name]
    alpha = brute_max_independent(_neighbor_lists(g))
    assert max_independent_set(g).optimum == alpha
    solver = search._Solver(g.adj, float("inf"))
    for lo in range(g.n, -2, -1):
        size, wit = solver.solve((1 << g.n) - 1, lo)
        if alpha > lo:
            assert size == wit.bit_count() == alpha
            assert all(g.adj[i] & wit == 0 for i in vectors.bit_positions(wit))
        else:
            assert alpha <= size <= lo


# ---------------------------------------------------------------- node kernel

def _triangle_free_graph(rng, n, p_edge):
    """A random graph that keeps a drawn edge only if it closes no triangle."""
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge and not adj[i] & adj[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(tuple(f"v{i}" for i in range(n)), tuple(adj))


def _assert_same_search_as_reference(g, mask=None):
    # The degrees handed down, the leaf worklist and the fused scan must
    # give exactly the search tree of the node that rescans its residual:
    # at the root of max_independent_set, and from a full search (target
    # -1) and a search one below the optimum on the vertices of mask.
    size, wit, nodes = reference_max_independent(g.adj)
    result = max_independent_set(g)
    assert result.proof_of_optimality
    assert (result.optimum, result.witness, result.nodes_explored) == (
        size,
        tuple(g.labels[i] for i in vectors.bit_positions(wit)),
        nodes,
    )
    if mask is None:
        mask = (1 << g.n) - 1
    for lo in (-1, reference_solve(g.adj, mask, -1)[0] - 1):
        solver = search._Solver(g.adj, float("inf"))
        size, wit = solver.solve(mask, lo)
        assert (size, wit, solver.nodes) == reference_solve(g.adj, mask, lo)


@pytest.mark.parametrize("seed", range(40))
def test_solver_matches_reference_on_random_graphs(seed):
    # Sparse graphs (average degree 2 to 6), where leaves cascade, and
    # denser ones, where the search branches; with and without triangles.
    rng = random.Random(seed)
    n = rng.randrange(1, 61)
    if seed % 4 < 2:
        p_edge = rng.uniform(2, 6) / max(n - 1, 1)
    else:
        p_edge = rng.uniform(0.15, 0.5)
    if seed % 2:
        g = _triangle_free_graph(rng, n, p_edge)
    else:
        g = _random_graph(rng, n, p_edge)
    _assert_same_search_as_reference(g, rng.getrandbits(n) | rng.getrandbits(n))


@pytest.mark.parametrize("triple", [(6, 2, 1), (7, 2, 1), (7, 3, 1), (8, 2, 1)])
def test_solver_matches_reference_on_antipodality_subgraphs(triple):
    rng = random.Random(sum(triple))
    g = antipodality_graph(Params(*triple))
    for _ in range(3):
        keep = sorted(rng.sample(range(g.n), rng.randrange(g.n // 3, g.n // 2)))
        _assert_same_search_as_reference(_induced(g, keep))


@pytest.mark.parametrize("nk", [(5, 2), (6, 2), (7, 2), (7, 3), (8, 3)])
def test_solver_matches_reference_on_kneser_graphs(nk):
    _assert_same_search_as_reference(kneser_graph(*nk))


@pytest.mark.parametrize("seed", range(3))
def test_solver_relabel_invariant_on_antipodality_subgraphs(seed):
    rng = random.Random(seed)
    g = antipodality_graph(Params(6, 2, 1))
    keep = sorted(rng.sample(range(g.n), 40))
    base = max_independent_set(_induced(g, keep))
    assert base.proof_of_optimality
    for _ in range(5):
        rng.shuffle(keep)
        result = max_independent_set(_induced(g, keep))
        assert result.proof_of_optimality
        assert result.optimum == base.optimum


def test_solver_never_consults_closed_form_bounds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the solver consulted a closed-form bound")

    for module in (bounds, search):
        for name in ("theorem1_bound", "theorem2_bound", "fk1_bound", "ekr_bound"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for p, alpha in [((5, 2, 1), 12), ((6, 2, 1), 22), ((6, 2, 2), 45), ((6, 3, 1), 30)]:
        result = max_independent_set(antipodality_graph(Params(*p)))
        assert result.proof_of_optimality
        assert result.optimum == alpha


def test_witness_check_survives_python_O():
    script = textwrap.dedent(
        """
        import sys
        from antipodal import search

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        # An edge a-b, and a broken solver that returns both ends.
        search._Solver.solve = lambda self, mask, lo: (2, mask)
        g = search.Graph(("a", "b"), (0b10, 0b01))
        try:
            search.max_independent_set(g)
        except RuntimeError as exc:
            print("RuntimeError:", exc)
        # A closed form that disagrees with the enumeration.
        from antipodal import vectors
        closed_form = vectors.cardinality_v
        vectors.cardinality_v = lambda p: 0
        try:
            vectors.enumerate_v(vectors.Params(4, 2, 1))
        except RuntimeError as exc:
            print("RuntimeError:", exc)
        vectors.cardinality_v = closed_form
        # A degree formula that disagrees with the graph build.
        search.antipodal_degree = lambda p: 3
        try:
            search.antipodality_graph(vectors.Params(4, 2, 1))
        except RuntimeError as exc:
            print("RuntimeError:", exc)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("RuntimeError:") for line in lines)
    assert "antipodal neighbours, expected 3" in lines[2]


# ---------------------------------------------------------------- symmetric root

_SMALL_TRIPLES = [(n, k, l) for n in range(2, 7) for k in range(1, n) for l in range(1, k + 1) if k + l <= n]


@pytest.mark.parametrize("triple", _SMALL_TRIPLES)
def test_symmetric_root_matches_plain_search(triple):
    p = Params(*triple)
    plain = max_independent_set(antipodality_graph(p))
    result = max_antipodal_free(p)
    assert plain.proof_of_optimality and result.proof_of_optimality
    assert result.optimum == plain.optimum == len(set(result.witness))
    assert not antipodal_pair_counts(list(result.witness), p.l).any()


def test_symmetric_root_is_deterministic():
    first = max_antipodal_free(Params(7, 2, 1))
    second = max_antipodal_free(Params(7, 2, 1))
    assert first.proof_of_optimality
    assert first == second


@pytest.mark.parametrize("triple", [(6, 2, 1), (7, 2, 1), (7, 3, 1), (7, 3, 2), (3, 2, 1)])
def test_symmetric_root_zero_budget_returns_greedy(triple):
    p = Params(*triple)
    result = max_antipodal_free(p, budget=0)
    greedy = max_independent_set(antipodality_graph(p), budget=0)
    assert not result.proof_of_optimality
    assert result.optimum == greedy.optimum == len(result.witness)
    assert result.witness == greedy.witness


def test_symmetric_root_runs_one_solver(monkeypatch):
    # (7,2,1) solves its one H, the circle family, inside the graph, so the
    # whole search is one solver on the 105 vertices of V(7,2,1), and
    # nodes_explored is exactly that solver's node count.
    counted = []
    solvers = []
    count_node, init = search._Solver.count_node, search._Solver.__init__

    def counting(self):
        counted.append(self)
        count_node(self)

    def recording_init(self, adj, deadline):
        init(self, adj, deadline)
        solvers.append(self)

    monkeypatch.setattr(search._Solver, "count_node", counting)
    monkeypatch.setattr(search._Solver, "__init__", recording_init)
    result = max_antipodal_free(Params(7, 2, 1))
    assert result.proof_of_optimality and result.optimum == 37
    assert [len(s.adj) for s in solvers] == [105]
    assert all(s is solvers[0] for s in counted)
    assert result.nodes_explored == len(counted) == solvers[0].nodes


@pytest.mark.parametrize("triple", [(6, 2, 1), (7, 2, 1)])
def test_symmetric_root_builds_one_graph(monkeypatch, triple):
    # The circle family is solved inside the graph of V(n,k,l); no other
    # graph is built.
    built = []
    build = search.antipodality_graph

    def recording(p, *args, **kwargs):
        built.append(p)
        return build(p, *args, **kwargs)

    monkeypatch.setattr(search, "antipodality_graph", recording)
    p = Params(*triple)
    assert max_antipodal_free(p).proof_of_optimality
    assert built == [p]


def _cell_orbits(labels, cells):
    """Orbits of the coordinate permutations that keep every cell (a set
    of 0-based positions) in place, by applying each such permutation."""
    n = len(labels[0])
    group = [
        perm
        for perm in itertools.permutations(range(n))
        if all(perm[i] in cell for cell in cells for i in cell)
    ]
    index = {s: i for i, s in enumerate(labels)}
    orbits = []
    seen = set()
    for s in labels:
        if s not in seen:
            orbit = {"".join(s[perm[i]] for i in range(n)) for perm in group}
            seen |= orbit
            orbits.append(sum(1 << index[t] for t in orbit))
    return orbits


@pytest.mark.parametrize("triple", [(5, 2, 1), (6, 2, 1), (6, 2, 2), (6, 3, 1), (6, 3, 2)])
def test_orbital_branching_matches_plain_solver(triple):
    # Seeded cases: a random split of the coordinates into at most three
    # cells, and the union of a random subset of that group's orbits.
    rng = random.Random(sum(triple))
    p = Params(*triple)
    g = antipodality_graph(p)
    codes = [parse_vector(s).code for s in g.labels]
    for _ in range(40):
        colour = [rng.randrange(3) for _ in range(p.n)]
        cells = [c for c in ({i for i in range(p.n) if colour[i] == j} for j in range(3)) if c]
        mask = sum(o for o in _cell_orbits(g.labels, cells) if rng.random() < 0.6)
        alpha = max_independent_set(_induced(g, vectors.bit_positions(mask))).optimum
        cell_masks = tuple(sum(1 << i for i in c) for c in cells)
        for lo in (-1, alpha - 1, alpha):
            solver = search._Solver(g.adj, float("inf"))
            size, wit = search._orbital_solve(solver, codes, p.n, mask, cell_masks, lo)
            if alpha > lo:
                assert size == wit.bit_count() == alpha
                assert wit & ~mask == 0
                assert all(g.adj[i] & wit == 0 for i in vectors.bit_positions(wit))
            else:
                assert alpha <= size <= lo


@pytest.mark.parametrize("triple", [(5, 2, 1), (6, 2, 2), (7, 3, 2)])
def test_last_coordinate_zero_induces_the_smaller_graph(triple):
    # The ratio inequality with H = V(n-1,k,l) (see the next test) takes H
    # to be the vertices with coordinate n zero, which must induce a copy
    # of the antipodality graph of V(n-1,k,l).
    p = Params(*triple)
    g = antipodality_graph(p)
    small = antipodality_graph(Params(p.n - 1, p.k, p.l))
    keep = [i for i, s in enumerate(g.labels) if s.endswith("0")]
    h = _induced(g, keep)
    assert [s[:-1] for s in h.labels] == list(small.labels)
    assert h.adj == small.adj


def test_ratio_inequality_from_standalone_searches():
    # alpha(n,k,l) <= |V(n,k,l)| alpha(n-1,k,l) / |V(n-1,k,l)|, read off two
    # separate searches; no search solves a V(n-1,k,l) copy in place.
    alpha = {t: max_antipodal_free(Params(*t)) for t in _GREEDY_TRIPLES if t != (8, 3, 2)}
    assert all(r.proof_of_optimality for r in alpha.values())
    pairs = [(n, k, l) for n, k, l in alpha if n - 1 >= 2 * k]
    assert len(pairs) == 19
    for n, k, l in pairs:
        ratio = cardinality_v(Params(n, k, l)) * alpha[n - 1, k, l].optimum // cardinality_v(Params(n - 1, k, l))
        assert alpha[n, k, l].optimum <= ratio
    # The open (8,3,2): alpha(7,3,2) = 90 puts its upper end at 240, above
    # the greedy 230.
    assert (cardinality_v(Params(8, 3, 2)), cardinality_v(Params(7, 3, 2))) == (560, 210)
    assert 560 * alpha[7, 3, 2].optimum // 210 == 240
    assert max_antipodal_free(Params(8, 3, 2), budget=0).optimum == 230


@pytest.mark.parametrize(
    "triple,circle",
    [((8, 2, 1), 168), ((8, 3, 2), 280), ((9, 3, 1), 224), ((10, 3), 36), ((12, 5), 330), ((13, 5), 495)],
)
def test_ratio_bounds_close_at_their_values(monkeypatch, triple, circle):
    # Against a target equal to the circle ratio bound, the symmetric root
    # returns that bound and never branches.  A pair (n, k) stands for the
    # Kneser graph, whose circle family is the n cyclic k-intervals of [n]
    # and whose ratio bound is EKR's C(n-1, k-1).
    if len(triple) == 3:
        p = Params(*triple)
        g = antipodality_graph(p)
        codes = [parse_vector(s).code for s in g.labels]
        n, h = p.n, circle_family(p).codes
    else:
        n, k = triple
        g = kneser_graph(n, k)
        codes = [sum(1 << (int(x) - 1) for x in s.split(",")) for s in g.labels]
        h = {sum(1 << ((i + t) % n) for t in range(k)) for i in range(n)}
    branched = []
    orbital = search._orbital_solve

    def recording(solver, codes, n, mask, cells, lo):
        branched.append(mask)
        return orbital(solver, codes, n, mask, cells, lo)

    monkeypatch.setattr(search, "_orbital_solve", recording)
    solver = search._Solver(g.adj, float("inf"))
    assert search._symmetric_solve(solver, codes, n, h, circle) == (circle, 0)
    assert not branched


def test_symmetric_root_never_reads_closed_form_bounds(monkeypatch):
    # Vacuous closed forms: the ratio bound is computed from the circle
    # family by the solver, never looked up in bounds.py, on V(n,k,l) and
    # on Kneser graphs alike.
    for name in ("theorem1_bound", "theorem2_bound"):
        monkeypatch.setattr(search, name, cardinality_v)
    monkeypatch.setattr(search, "ekr_bound", math.comb)
    for p, alpha in [((6, 2, 1), 22), ((7, 3, 1), 60), ((7, 3, 2), 90)]:
        result = max_antipodal_free(Params(*p), budget=30.0)
        assert result.proof_of_optimality
        assert result.optimum == alpha
    for nk, alpha in [((10, 3), 36), ((12, 5), 330)]:
        result = max_intersecting(*nk, budget=30.0)
        assert result.proof_of_optimality
        assert result.optimum == alpha


# ---------------------------------------------------------------- extremal values

@pytest.mark.parametrize(
    "p,alpha",
    [
        ((2, 1, 1), 1),
        ((4, 2, 1), 6),
        ((4, 2, 2), 3),
        ((5, 2, 1), 12),
        ((6, 2, 2), 45),
        ((7, 3, 2), 90),
        ((8, 3, 1), 105),
        ((8, 2, 1), 58),
    ],
)
def test_alpha_frozen(p, alpha):
    result = max_antipodal_free(Params(*p))
    assert result.proof_of_optimality
    assert result.optimum == alpha


def test_node_count_ceiling_7_2_1():
    # The node count when each root's one alternating tree both augments
    # and charges odd cycles: a cover bound that lost the charge would need
    # more (478 nodes with the matching alone).
    result = max_antipodal_free(Params(7, 2, 1))
    assert result.proof_of_optimality
    assert result.optimum == 37
    assert result.nodes_explored <= 204


def test_node_count_ceiling_8_2_1():
    # 1,697 nodes is the count when every node branches on a maximum-degree
    # vertex, lowest index on ties, and the cover bound charges odd cycles
    # in the same tree that looks for augmenting paths; the reduction scan
    # that picks the vertex must keep that choice.
    result = max_antipodal_free(Params(8, 2, 1))
    assert result.proof_of_optimality
    assert result.optimum == 58
    assert result.nodes_explored <= 1697


def test_node_count_ceiling_over_the_proved_instances():
    # Every instance with n <= 8 and |V| <= 600 but (8,3,2), which stays
    # open: a node regression anywhere in the solver shows in the sum.
    proved = [Params(*t) for t in _GREEDY_TRIPLES if t != (8, 3, 2)]
    assert len(proved) == 49
    results = [max_antipodal_free(p) for p in proved]
    assert all(r.proof_of_optimality for r in results)
    assert sum(r.nodes_explored for r in results) <= 1967


def test_alpha_trivial_regime_is_everything():
    # n < 2k leaves no room for disjoint plus supports
    p = Params(3, 2, 1)
    result = max_antipodal_free(p)
    assert result.optimum == 3


def test_alpha_matches_fk1_at_l_1():
    for n in (4, 5, 6):
        result = max_antipodal_free(Params(n, 2, 1))
        assert result.proof_of_optimality
        assert result.optimum == fk1_bound(n, 2)


def test_alpha_witness_is_antipodal_free():
    from antipodal import is_antipodal, parse_vector

    p = Params(5, 2, 1)
    result = max_antipodal_free(p)
    vs = [parse_vector(s) for s in result.witness]
    for i, v in enumerate(vs):
        for w in vs[i + 1 :]:
            assert not is_antipodal(v, w, p)


def test_alpha_within_bounds_circle_regime():
    for p in [(4, 2, 1), (5, 2, 1), (4, 2, 2), (6, 3, 3)]:
        park = Params(*p)
        result = max_antipodal_free(park)
        assert result.optimum == theorem2_bound(park)
        assert result.optimum <= theorem1_bound(park)


@pytest.mark.parametrize("nk,value", [((4, 2), 3), ((5, 2), 4), ((6, 3), 10)])
def test_max_intersecting_matches_ekr(nk, value):
    result = max_intersecting(*nk)
    assert result.proof_of_optimality
    assert result.optimum == value == ekr_bound(*nk)


def test_node_count_ceiling_kneser():
    # The solve benchmark's Kneser jobs; no other test runs the solver on a
    # disjointness graph this large, so a node regression there shows here.
    nodes = {}
    for n in (8, 9, 10):
        result = max_intersecting(n, 3)
        assert result.proof_of_optimality
        assert result.optimum == ekr_bound(n, 3)
        nodes[n] = result.nodes_explored
    assert nodes[8] <= 25 and nodes[9] <= 59 and nodes[10] <= 99


@pytest.mark.parametrize("nk,value,ceiling", [((12, 5), 330, 3), ((13, 5), 495, 5)])
def test_max_intersecting_proves_ekr_in_a_few_nodes(nk, value, ceiling):
    # The circle ratio bound C(n-1, k-1) meets the greedy set at the root;
    # the plain solver proves neither instance in 60 s.
    result = max_intersecting(*nk)
    assert result.proof_of_optimality
    assert result.optimum == value
    assert result.nodes_explored <= ceiling


@pytest.mark.parametrize(
    "name, fake, message",
    [
        ("find_antipodal_pair", lambda fam: fam, "solver witness is not antipodal-free"),
        ("theorem1_bound", lambda p: 0, r"solver optimum 12 exceeds theorem 1 at Params\(n=5, k=2, l=1\)"),
        ("theorem2_bound", lambda p: 0, r"solver optimum 12 exceeds theorem 2 at Params\(n=5, k=2, l=1\)"),
    ],
)
def test_max_antipodal_free_self_checks_raise(monkeypatch, name, fake, message):
    # Each closed-form check and the witness check raise once the value
    # they compare against is forced wrong.
    monkeypatch.setattr(search, name, fake)
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        max_antipodal_free(Params(5, 2, 1))


def test_max_antipodal_free_rejects_a_witness_with_repeats(monkeypatch):
    solve = search._search

    def repeat_first(*args):
        result = solve(*args)
        return dataclasses.replace(result, witness=result.witness[:1] * result.optimum)

    monkeypatch.setattr(search, "_search", repeat_first)
    with pytest.raises(RuntimeError, match="^solver witness has duplicate or invalid members$"):
        max_antipodal_free(Params(5, 2, 1))


def test_max_intersecting_checks_ekr(monkeypatch):
    monkeypatch.setattr(search, "ekr_bound", lambda n, k: 0)
    with pytest.raises(RuntimeError, match="^solver optimum 4 exceeds EKR at n=5, k=2$"):
        max_intersecting(5, 2)


# n < 2k, k = n, k = 1 and n = 2k: the symmetric root runs for every (n, k).
@pytest.mark.parametrize("nk", [(6, 2), (3, 2), (5, 3), (1, 1), (4, 4), (5, 1), (6, 3), (7, 3)])
def test_max_intersecting_matches_brute(nk):
    result = max_intersecting(*nk)
    assert result.proof_of_optimality
    assert result.optimum == len(result.witness) == brute_max_independent(_neighbor_lists(kneser_graph(*nk)))


def test_search_result_as_dict_omits_timing():
    # No clock field: a result depends only on the instance and the budget's outcome.
    fields = ["optimum", "witness", "nodes_explored", "proof_of_optimality"]
    assert [f.name for f in dataclasses.fields(SearchResult)] == fields
    d = max_antipodal_free(Params(4, 2, 1)).as_dict()
    assert list(d) == fields
    assert d["optimum"] == 6
