"""Exact maximum independent set over antipodality and disjointness graphs.

Graphs are bit-indexed: the vertex set of a residual subproblem is one
Python int, and each vertex's neighborhood is a precomputed mask, so set
algebra is word-parallel.  antipodality_graph builds the graph of each
V(n, k, l) once per process and hands every later caller the same
immutable Graph.  It and kneser_graph take their adjacency rows from
vectors.partner_bitsets: the k-subsets of [n] are minus-free codes,
whose antipodal partners are the disjoint sets.  Every Graph checks its
masks when built, symmetry included: against the transpose of its rows,
vectors.bit_columns, with no loop over the edges.  The solver is a branch
and bound that threads a target through the recursion (the incumbent
pruning of Tomita-Seki style maximum-clique solvers).  solve(mask, lo)
is exact whenever alpha(mask) > lo; otherwise it fails low, returning
an upper bound <= lo, which proves alpha(mask) <= lo.  Inside the
recursion:

* reductions: isolated vertices are always taken; a degree-1 vertex is
  taken over its neighbor (dominance: swapping the neighbor out for the
  leaf never shrinks an independent set), cascading until the residual
  has minimum degree 2.  The target drops by the number taken.  No node
  rescans its residual for them: a root counts every degree once, and a
  child gets its parent's degrees and recounts only the neighbors of
  the vertices the branch removed (the include child a copy, the
  exclude child the parent's own list, which the parent no longer
  reads).  As the parent's residual had minimum degree 2, only those
  neighbors can become leaves; the leaves wait in a mask, the lowest is
  taken first, and taking one changes only the degrees of its
  neighbor's neighbors;
* bound: a residual whose cover bound is at most the target fails low
  at once.  A matching M plus singletons is a clique cover, so
  alpha <= |V_res| - |M| on any graph; on the triangle-free antipodality
  graphs no clique has three vertices, and by Gallai's identity the best
  such cover is |V_res| - nu for a maximum matching nu.  M starts as a
  greedy matching; then each unmatched root grows one alternating tree,
  a BFS without blossom shrinking.  The tree either finds an augmenting
  path (it may miss one, never makes a wrong one) or an edge between
  two of its outer vertices, an odd cycle: the root with the matched
  pairs on both tree paths is a set S with alpha(S) <= (|S| - 1) / 2,
  one less than the matching charges, and each such S, disjoint from
  the others, lowers the bound by 1.  The roots stop once the decision
  is known: when the bound reaches the target, or when the roots left,
  each worth at most 1, cannot bring it there.  A tree that finds
  neither is closed, as a later tree could leave it only the way it
  came in;
* branching: on a maximum-degree vertex (lowest index on ties); include
  branch first against target - 1, then the exclude branch against the
  larger of the target and the include result.  The cover bound's one
  scan of the final residual also picks that vertex.

At the root the target is the size lo of a min-degree greedy independent
set: if the search fails low, the greedy set is the proved optimum.  The
greedy keeps one vertex mask per degree and recounts only the neighbors
of removed vertices, so it makes at most one degree recount per edge
instead of recounting every remaining vertex after each pick.

max_antipodal_free and max_intersecting add a symmetric root, for full
V(n, k, l) with n >= 2k and for the Kneser graph of every (n, k).  S_n
permutes coordinates and acts on a vertex through its code: on V(n, k, l)
directly, and on the k-sets as on minus-free codes, whose antipodal
partners are the disjoint sets.  It acts transitively on the vertices
and maps edges to edges, so it acts on the graph by automorphisms that
move any vertex to any other.  Two facts follow:

* ratio bound: for any vertex set H and any independent set S, summing
  |S & sigma(H)| <= alpha(H) over all sigma in S_n counts each vertex of
  S equally often, |H| n! / |V| times, so alpha <= |V| alpha(H) / |H|.
  The root computes alpha(H) itself for one H, the circle family of
  Katona's circle method, solved exactly on its at most n vertices: the
  n-member family of the paper's theorem 2 on V(n, k, l), the n cyclic
  k-intervals of [n] on the k-sets.  On the k-sets with n >= 2k this is
  Katona's proof of Erdos-Ko-Rado, and with n < 2k, where no two k-sets
  are disjoint, it equals |V|;
* vertex fixing: an automorphism maps any optimal set to one holding
  vertex 0, so alpha = 1 + alpha(G - N[0]).  The root solves G - N[0]
  against target lo - 1: failing low proves the greedy set optimal.
  Below vertex 0 the same argument repeats with the permutations that
  fix vertex 0 (orbital branching, Ostrowski, Linderoth, Rossi and
  Smriglio 2011): take the largest orbit O of the remaining vertices,
  branch on its lowest vertex v with the permutations that also fix v,
  then drop all of O, until every orbit is a single vertex.

If the ratio bound is already at most lo, the greedy set is proved
optimal without the vertex-0 search.  The circle family and the orbital
branching run on one solver: one node count and deadline.  No bound is
taken from bounds.py.  max_independent_set runs the plain solve on any
graph, with no symmetry assumed.

Vertex masks are listed with vectors.bit_positions, the package's one
bit reader, wherever a whole mask is scanned: the cover bound, the
greedy set, the orbits and the witness.  The loops of _node and
_greedy_mask take the lowest bit one at a time instead: they read a few
bits, or a mask that changes while it is read, and a solve pass with
bit_positions there was measured slower.  Kneser labels are
vectors.mask_indices of the k-set masks.

Runs are deterministic: all scans are in ascending vertex order.  A
budget (wall-clock seconds, checked on every node) caps the search; on
exhaustion the result carries proof_of_optimality=False and the greedy
set as a lower bound.  The witness is re-checked by an explicit test
that raises RuntimeError, so it also runs under python -O.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import asdict, dataclass
from typing import Collection

from .bounds import ekr_bound, theorem1_bound, theorem2_bound
from .constructions import circle_family
from .errors import InvalidParams, TooLarge
from .vectors import (
    Params,
    VectorFamily,
    antipodal_degree,
    bit_columns,
    bit_positions,
    cardinality_exceeds,
    comb_exceeds,
    enumerate_v,
    find_antipodal_pair,
    mask_indices,
    parse_codes,
    partner_bitsets,
    subset_masks,
)

__all__ = [
    "Graph",
    "SearchResult",
    "antipodality_graph",
    "kneser_graph",
    "max_independent_set",
    "max_antipodal_free",
    "max_intersecting",
]

DEFAULT_BUDGET = 60.0
VERTEX_CAP = 5000
_GRAPH_CACHE_ENTRIES = 8  # antipodality graphs kept per process


@dataclass(frozen=True)
class Graph:
    """Undirected graph: labels plus one adjacency bitmask per vertex.

    Construction checks the masks: one per label, each inside the vertex
    range (so none is negative) and without its own vertex, then
    symmetry.  The adjacency is symmetric exactly when every row lies in
    its own column of the transpose, vectors.bit_columns of the rows; for
    the first row i that does not, the lowest bit j outside names the
    asymmetric edge i-j, the first in row-major order."""

    labels: tuple[str, ...]
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.adj) != n:
            raise InvalidParams(f"{n} labels but {len(self.adj)} adjacency masks")
        for i, mask in enumerate(self.adj):
            if mask >> n:
                raise InvalidParams(f"adjacency of vertex {i} leaves the vertex range")
            if mask >> i & 1:
                raise InvalidParams(f"self-loop at vertex {i}")
        for i, (row, column) in enumerate(zip(self.adj, bit_columns(self.adj, n))):
            if extra := row & ~column:
                raise InvalidParams(f"asymmetric edge {i}-{(extra & -extra).bit_length() - 1}")

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one exact (or budget-truncated) optimization."""

    optimum: int
    witness: tuple[str, ...]
    nodes_explored: int
    proof_of_optimality: bool

    def as_dict(self) -> dict:
        d = asdict(self)
        d["witness"] = list(self.witness)
        return d


class _OutOfTime(Exception):
    pass


class _Solver:
    __slots__ = ("adj", "closed", "deadline", "nodes", "mate", "parent")

    def __init__(self, adj: tuple[int, ...], deadline: float):
        self.adj = adj
        self.closed = tuple(a | (1 << i) for i, a in enumerate(adj))
        self.deadline = deadline
        self.nodes = 0
        # Scratch for the cover bound's matching and trees: an entry is read
        # only after the same bound computation set it.
        self.mate = [0] * len(adj)
        self.parent = [0] * len(adj)

    def count_node(self) -> None:
        """One more node; past the deadline it raises."""
        self.nodes += 1
        if time.monotonic() >= self.deadline:
            raise _OutOfTime

    def solve(self, mask: int, lo: int) -> tuple[int, int]:
        """(size, witness_mask) for the induced subgraph on mask, against target lo.

        Exact whenever alpha(mask) > lo.  Otherwise the call fails low: it
        returns an upper bound size <= lo, which proves alpha(mask) <= lo,
        with witness 0.  A root call: its node counts every degree, and each
        child gets its parent's counts (_node).
        """
        return self._node(mask, lo, [0] * len(self.adj), mask)

    def _node(self, m: int, lo: int, deg: list[int], stale: int) -> tuple[int, int]:
        """solve(m, lo), given deg[i] = |N(i) & m| for every vertex i of m
        outside stale; deg becomes this node's own and is left changed."""
        self.count_node()
        adj = self.adj
        leaves = 0  # the vertices of degree 1 in m
        chosen = 0
        while stale:
            lsb = stale & -stale
            i = lsb.bit_length() - 1
            stale ^= lsb
            d = (adj[i] & m).bit_count()
            deg[i] = d
            if d == 1:
                leaves |= lsb
            elif d == 0:
                chosen |= lsb
        m ^= chosen
        # Take the lowest leaf over its neighbor until none is left; only
        # the neighbor's neighbors lose a degree.
        while leaves:
            lsb = leaves & -leaves
            nb = adj[lsb.bit_length() - 1] & m
            chosen |= lsb
            m ^= lsb | nb
            leaves &= ~(lsb | nb)
            touched = adj[nb.bit_length() - 1] & m
            while touched:
                tb = touched & -touched
                i = tb.bit_length() - 1
                touched ^= tb
                d = deg[i] - 1
                deg[i] = d
                if d == 1:
                    leaves |= tb
                elif d == 0:
                    leaves ^= tb
                    chosen |= tb
                    m ^= tb

        taken = chosen.bit_count()
        target = lo - taken
        if m == 0:
            return taken, chosen
        bound, v = self._cover_bound(m, target, deg)
        if bound <= target:
            return taken + bound, 0
        rest = m & ~self.closed[v]
        stale = 0
        nbrs = adj[v] & m
        while nbrs:
            lsb = nbrs & -nbrs
            nbrs ^= lsb
            stale |= adj[lsb.bit_length() - 1]
        s_in, w_in = self._node(rest, target - 1, deg.copy(), stale & rest)
        size = s_in + 1
        wit = w_in | (1 << v)
        s_ex, w_ex = self._node(m ^ (1 << v), max(target, size), deg, adj[v] & m)
        if s_ex > size:
            size, wit = s_ex, w_ex
        if size <= target:
            return taken + size, 0
        return taken + size, wit | chosen

    def _cover_bound(self, mask: int, target: int, deg: list[int] | None = None) -> tuple[int, int]:
        """(bound, v): the cover upper bound |mask| - |M| - c for a matching
        M of the induced subgraph and c disjoint odd-cycle sets, where each
        edge of M and each unmatched vertex is a clique, and the branch
        vertex v.  Callers read only whether the bound is at most target
        and, when it is, its value, so the roots stop once that is known:
        at a bound of at most target, or once the roots left cannot bring
        it there, as each lowers it by at most 1.  A bound at most target
        is that of the run over every root; one above target is at least
        that.  v does not depend on target.

        One scan of mask builds a greedy M, each vertex paired with its
        lowest earlier unmatched neighbor, and picks v: maximum deg[i],
        lowest index on ties, or -1 without deg.  Then each root still
        unmatched, in ascending order, grows one alternating tree by BFS,
        outside the sets already charged.  At each outer vertex u, in this
        order:

        1. an unmatched neighbor of u ends an augmenting path, which is
           flipped.  The BFS shrinks no blossoms, so it may miss a path
           that exists, but every path it finds alternates and so gives a
           larger matching;
        2. else an outer neighbor w of u closes an odd cycle (Edmonds'
           blossom, not shrunk here): the root plus the matched pairs on
           the tree paths of u and w form a set S, a stem of pairs and
           that cycle, with alpha(S) <= (|S| - 1) / 2, one less than the
           cover charges S.  S joins the charged sets and lowers the bound
           by 1 (the cycle-cover bound of Akiba and Iwata, 2016);
        3. else the tree grows through u's matched neighbors.

        The bound stays sound because no later tree enters a charged S: S
        holds one unmatched root and whole pairs of M, so no later
        augmenting path ends at its root or changes its pairs, and S keeps
        its charge of (|S| - 1) / 2 while the rest is covered by M.

        A tree that ends with neither find is a failed tree F, and later
        trees skip it as they skip the charged sets; no result changes.
        F changed nothing, and when it ended every neighbor of an outer
        vertex of F was an inner vertex of F or skipped, and no two outer
        vertices were adjacent.  The skipped vertices only grow and M
        changes only along flipped paths, so a later tree could enter F
        only at an inner vertex, go on to its mate, an outer vertex of F,
        and from there only to inner vertices of F: it would find no
        unmatched vertex, no odd cycle and no way out inside F.
        """
        adj = self.adj
        mate = self.mate
        if deg is None:
            deg = [0] * len(adj)  # no degree beats 0, so v stays -1
        free = 0  # the unmatched vertices
        v = -1
        best_d = 0
        for i in bit_positions(mask):
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
                free |= 1 << i
        # |mask| - |M|, with |M| = (|mask| - |free|) / 2
        bound = (mask.bit_count() + free.bit_count()) // 2
        parent = self.parent
        skip = 0  # the charged odd-cycle sets and the closed failed trees
        roots = free  # the unmatched roots still to run
        # Stop at a bound of at most target, or once the roots left, each
        # worth at most 1, cannot bring it there.
        while target < bound <= target + roots.bit_count():
            root_bit = roots & -roots
            roots ^= root_bit
            r = root_bit.bit_length() - 1
            avail = mask & ~(skip | root_bit)  # the vertices not yet in the tree
            outer_bits = root_bit
            outer = [r]
            for u in outer:
                nbrs = adj[u] & avail
                hit = nbrs & free
                if hit:
                    end = hit & -hit
                    free ^= root_bit | end
                    roots &= free
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
                    skip |= root_bit
                    for z in (u, (hit & -hit).bit_length() - 1):
                        while z != r:  # the matched pairs up to the root
                            x = mate[z]
                            skip |= 1 << z | 1 << x
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
            else:  # a failed tree: later trees skip it (docstring)
                skip |= mask & ~avail
        return bound, v


def _greedy_mask(adj: tuple[int, ...], m: int) -> int:
    """Min-degree greedy independent set in the vertex mask m: a target and the budget fallback.

    Each pick is the lowest-index vertex of minimum degree in what is left.
    Degrees are kept per vertex with one vertex mask per degree, and a pick
    recounts only the remaining neighbors of the vertices it removes, so a
    run makes at most one recount per edge.
    """
    deg = [0] * len(adj)
    buckets = [0] * len(adj)  # every degree is below the vertex count
    for i in bit_positions(m):
        deg[i] = (adj[i] & m).bit_count()
        buckets[deg[i]] |= 1 << i
    chosen = 0
    while m:
        d = 0
        while not buckets[d]:
            d += 1
        pick = buckets[d] & -buckets[d]
        chosen |= pick
        gone = adj[pick.bit_length() - 1] & m | pick
        m ^= gone
        touched = 0
        while gone:
            lsb = gone & -gone
            i = lsb.bit_length() - 1
            gone ^= lsb
            buckets[deg[i]] ^= lsb
            touched |= adj[i]
        touched &= m
        while touched:
            lsb = touched & -touched
            i = lsb.bit_length() - 1
            touched ^= lsb
            d = (adj[i] & m).bit_count()
            buckets[deg[i]] ^= lsb
            buckets[d] |= lsb
            deg[i] = d
    return chosen


def _is_independent(adj: tuple[int, ...], mask: int) -> bool:
    return all(adj[i] & mask == 0 for i in bit_positions(mask))


def _deadline(budget: float) -> float:
    if not budget >= 0:  # also rejects nan
        raise InvalidParams(f"budget must be a number of seconds >= 0, got {budget}")
    return time.monotonic() + budget


def _search(
    g: Graph, deadline: float, codes: list[int] | None = None, n: int = 0, circle: Collection[int] | None = None
) -> SearchResult:
    """The one root routine: greedy target, one solver, witness check.

    With circle, codes[i] is vertex i's code over n coordinates, S_n acts
    on g through them (module docstring), and the symmetric root with
    circle family circle replaces the plain solve of all of g.
    """
    everything = (1 << g.n) - 1
    greedy = _greedy_mask(g.adj, everything)
    lo = greedy.bit_count()
    solver = _Solver(g.adj, deadline)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 3 * g.n + 1000))
    try:
        if circle is None:
            size, wit = solver.solve(everything, lo)
        else:
            size, wit = _symmetric_solve(solver, codes, n, circle, lo)
        proved = True
    except _OutOfTime:
        size = 0
        proved = False
    finally:
        sys.setrecursionlimit(old_limit)
    if size <= lo:
        # A search that fails low proves the greedy set optimal; on budget
        # exhaustion the greedy set is the lower bound returned.
        size, wit = lo, greedy
    if not _is_independent(g.adj, wit) or wit.bit_count() != size:
        raise RuntimeError(f"solver witness is not an independent set of size {size}")
    return SearchResult(
        optimum=size,
        witness=tuple(g.labels[i] for i in bit_positions(wit)),
        nodes_explored=solver.nodes,
        proof_of_optimality=proved,
    )


def _symmetric_solve(solver: _Solver, codes: list[int], n: int, circle: Collection[int], lo: int) -> tuple[int, int]:
    """solver.solve of all of the solver's graph, against target lo, for a
    graph on which S_n acts through the vertex codes, codes[i] being
    vertex i's code over n coordinates: the ratio bound of the circle
    family, the vertices whose codes are in circle, then orbital
    branching (module docstring).  Same fail-low contract as
    _Solver.solve."""
    h = sum(1 << i for i, c in enumerate(codes) if c in circle)
    upper = len(codes) * solver.solve(h, -1)[0] // h.bit_count()
    if upper <= lo:
        return upper, 0
    return _orbital_solve(solver, codes, n, (1 << len(codes)) - 1, ((1 << n) - 1,), lo)


def _orbital_solve(
    solver: _Solver, codes: list[int], n: int, mask: int, cells: tuple[int, ...], lo: int
) -> tuple[int, int]:
    """solver.solve(mask, lo) by orbital branching, for a mask that every
    permutation of the coordinates keeping each cell (a coordinate mask)
    in place maps onto itself; codes[i] is vertex i's vector code.

    The orbits of that group on mask are given by how many plus and minus
    entries a vector has in each cell.  An optimal set that meets the
    first orbit is mapped by the group to one holding the orbit's lowest
    vertex v, so alpha(mask) is the larger of 1 + alpha(mask - N[v]),
    whose group also keeps v's plus, minus and zero entries in each cell,
    and alpha(mask - orbit), whose group is unchanged.  Once every orbit
    is a single vertex the plain solver takes over.
    """
    bound = solver._cover_bound(mask, lo)[0]
    if bound <= lo:
        return bound, 0
    full = (1 << n) - 1
    orbits: dict[tuple, int] = {}
    for i in bit_positions(mask):
        plus, minus = codes[i] & full, codes[i] >> n
        key = tuple(((plus & c).bit_count(), (minus & c).bit_count()) for c in cells)
        orbits[key] = orbits.get(key, 0) | 1 << i
    if len(orbits) == mask.bit_count():
        return solver.solve(mask, lo)
    solver.count_node()
    best, wit = lo, 0
    # Largest orbit first: it removes the most vertices from the later branches.
    for orbit in sorted(orbits.values(), key=int.bit_count, reverse=True):
        v = (orbit & -orbit).bit_length() - 1
        plus, minus = codes[v] & full, codes[v] >> n
        split = tuple(x for c in cells for x in (c & plus, c & minus, c & ~(plus | minus)) if x)
        s, w = _orbital_solve(solver, codes, n, mask & ~solver.closed[v], split, best - 1)
        if s >= best:
            best, wit = s + 1, w | 1 << v
        mask &= ~orbit
    return best, wit


def max_independent_set(g: Graph, budget: float = DEFAULT_BUDGET) -> SearchResult:
    """Exact alpha(g) with witness; lower bound only on budget exhaustion."""
    return _search(g, _deadline(budget))


@functools.lru_cache(maxsize=_GRAPH_CACHE_ENTRIES)
def antipodality_graph(p: Params) -> Graph:
    """V(n, k, l) with an edge per antipodal pair; vertices in canonical order.

    Each vertex's adjacency is its row of partner_bitsets over the
    enumerated codes.  Raises TooLarge when |V| exceeds VERTEX_CAP.
    Every vertex must end with exactly antipodal_degree(p) neighbours; a
    mismatch raises RuntimeError.  The graph is built once per p and
    process and then shared: Graph is immutable.
    """
    if cardinality_exceeds(p, VERTEX_CAP):
        raise TooLarge(f"|V({p.n},{p.k},{p.l})| exceeds the vertex cap {VERTEX_CAP}")
    fam = enumerate_v(p)
    labels = fam.strings()
    adj = tuple(partner_bitsets(fam.codes, p.n))
    degree = antipodal_degree(p)
    for label, mask in zip(labels, adj):
        if mask.bit_count() != degree:
            raise RuntimeError(f"vertex {label} has {mask.bit_count()} antipodal neighbours, expected {degree}")
    return Graph(labels=labels, adj=adj)


def kneser_graph(n: int, k: int) -> Graph:
    """k-subsets of [n] with an edge per disjoint pair, lex vertex order;
    each vertex is labelled by its elements, comma-separated.  A k-set is
    a minus-free code, whose antipodal partners are the disjoint sets, so
    the adjacency rows are partner_bitsets of the sets' masks."""
    if not 1 <= k <= n:
        raise InvalidParams(f"need 1 <= k <= n, got n={n}, k={k}")
    if comb_exceeds(n, k, VERTEX_CAP):
        raise TooLarge(f"C({n},{k}) exceeds the vertex cap {VERTEX_CAP}")
    codes = subset_masks((1 << n) - 1, k)
    labels = tuple(",".join(map(str, mask_indices(c))) for c in codes)
    return Graph(labels=labels, adj=tuple(partner_bitsets(codes, n)))


def max_antipodal_free(p: Params, budget: float = DEFAULT_BUDGET) -> SearchResult:
    """Exact maximum antipodal-free subfamily of V(n, k, l).

    For n >= 2k the search starts at the symmetric root (module
    docstring), which computes its own ratio bounds.  The witness is
    re-verified antipodal-free, and the optimum is checked against the
    applicable closed-form bounds before returning.
    """
    g = antipodality_graph(p)
    codes = [code for _, code in parse_codes(g.labels)]
    result = _search(g, _deadline(budget), codes, p.n, circle_family(p).codes if p.nontrivial_regime else None)
    fam = VectorFamily.from_pairs(p, parse_codes(result.witness))
    if len(fam) != result.optimum:
        raise RuntimeError("solver witness has duplicate or invalid members")
    if find_antipodal_pair(fam) is not None:
        raise RuntimeError("solver witness is not antipodal-free")
    if result.optimum > theorem1_bound(p):
        raise RuntimeError(f"solver optimum {result.optimum} exceeds theorem 1 at {p}")
    if p.circle_regime and result.optimum > theorem2_bound(p):
        raise RuntimeError(f"solver optimum {result.optimum} exceeds theorem 2 at {p}")
    return result


def max_intersecting(n: int, k: int, budget: float = DEFAULT_BUDGET) -> SearchResult:
    """Exact maximum intersecting k-uniform family over [n].

    Independent sets of the Kneser graph are exactly the intersecting
    families.  The search starts at the symmetric root (module
    docstring) for every (n, k): the circle family is the n cyclic
    k-intervals of [n], and its ratio bound is C(n-1, k-1) for n >= 2k
    and C(n, k) below.  For n >= 2k the optimum is checked against
    ekr_bound.
    """
    g = kneser_graph(n, k)
    circle = {sum(1 << ((i + t) % n) for t in range(k)) for i in range(n)}
    result = _search(g, _deadline(budget), subset_masks((1 << n) - 1, k), n, circle)
    if n >= 2 * k and result.proof_of_optimality and result.optimum > ekr_bound(n, k):
        raise RuntimeError(f"solver optimum {result.optimum} exceeds EKR at n={n}, k={k}")
    return result
