"""Uniform set families: intersection predicates and the cross-intersecting cap.

The disjunction verified here: if A (a-uniform) and B (b-uniform) over
[m] with m >= a + b are cross-intersecting, then |A| <= C(m-1, a-1) or
|B| <= C(m-1, b-1).  proposition1_holds evaluates the disjunction for a
given pair; verify_prop1_exhaustive sweeps a whole parameter triple.

The exhaustive sweep never materializes the full product space of pairs.
For a fixed A the largest compatible partner is comp(A), the set of all
b-sets meeting every member of A, and (A, comp(A)) dominates every
cross-intersecting pair with the same A.  The verifier therefore walks
the subset tree of a-sets carrying comp as a bitmask, abandoning any
branch whose comp pool has already shrunk to at most C(m-1, b-1) members
(the disjunction then holds throughout the subtree) or whose A side can
no longer exceed C(m-1, a-1).  Completeness: any counterexample pair
(A, B) yields the counterexample (A, comp(A)) at a leaf.  A leaf is
reached only when both caps are exceeded, so every leaf is one.

The sweep holds the a-sets and b-sets of [m] as masks from
vectors.subset_masks, in lex order; an a-set meets a b-set when their
masks share a bit, and witnesses are written with vectors.mask_indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import GroundMismatch, InvalidParams, PreconditionError, RangeError, TooLarge
from .vectors import comb_exceeds, mask_indices, subset_masks

__all__ = [
    "SetFamily",
    "is_intersecting",
    "all_pairs_meet",
    "is_cross_intersecting",
    "proposition1_holds",
    "verify_prop1_exhaustive",
    "Prop1Report",
]

_SWEEP_CAP = 12  # verify_prop1_exhaustive refuses C(m,a) or C(m,b) above this


class SetFamily:
    """Duplicate-free a-uniform family over the ground set [1..m]."""

    __slots__ = ("ground", "uniformity", "members", "_index")

    def __init__(self, ground: int, uniformity: int, members: Iterable[Iterable[int]]):
        if ground < 1:
            raise InvalidParams(f"ground must be a positive integer, got {ground}")
        if uniformity < 0:
            raise InvalidParams(f"uniformity must be >= 0, got {uniformity}")
        kept: list[frozenset[int]] = []
        seen: set[frozenset[int]] = set()
        for raw in members:
            s = frozenset(raw)
            if len(s) != uniformity:
                raise InvalidParams(f"member {sorted(s)} is not {uniformity}-uniform")
            if any(not (1 <= i <= ground) for i in s):
                raise RangeError(f"member {sorted(s)} leaves the ground set [1..{ground}]")
            if s not in seen:
                seen.add(s)
                kept.append(s)
        self.ground = ground
        self.uniformity = uniformity
        self.members: tuple[frozenset[int], ...] = tuple(kept)
        self._index = frozenset(kept)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, s: object) -> bool:
        return s in self._index

    def __repr__(self) -> str:
        return f"SetFamily(ground={self.ground}, uniformity={self.uniformity}, size={len(self)})"


def is_intersecting(fam: SetFamily) -> bool:
    """Every two members share an element; empty and singleton families pass."""
    return all_pairs_meet(fam.members)


def all_pairs_meet(sets: Sequence) -> bool:
    """Every two of these sets share an element; the sets are frozensets
    or bitmasks, anything whose & is empty or 0 when they are disjoint."""
    for i, x in enumerate(sets):
        for j in range(i + 1, len(sets)):
            if not x & sets[j]:
                return False
    return True


def is_cross_intersecting(a: SetFamily, b: SetFamily) -> bool:
    """Every member of a meets every member of b; vacuously true if either is empty."""
    if a.ground != b.ground:
        raise GroundMismatch(f"ground sets differ: {a.ground} vs {b.ground}")
    for x in a:
        for y in b:
            if not (x & y):
                return False
    return True


def proposition1_holds(a: SetFamily, b: SetFamily) -> bool:
    """The size disjunction for one cross-intersecting pair.

    Preconditions (PreconditionError if violated): the pair is
    cross-intersecting and m >= a.uniformity + b.uniformity.
    """
    if a.ground != b.ground:
        raise GroundMismatch(f"ground sets differ: {a.ground} vs {b.ground}")
    m = a.ground
    if m < a.uniformity + b.uniformity:
        raise PreconditionError(
            f"need m >= a + b, got m={m}, a={a.uniformity}, b={b.uniformity}"
        )
    if not is_cross_intersecting(a, b):
        raise PreconditionError("families are not cross-intersecting")
    cap_a = math.comb(m - 1, a.uniformity - 1)
    cap_b = math.comb(m - 1, b.uniformity - 1)
    return len(a) <= cap_a or len(b) <= cap_b


@dataclass(frozen=True)
class Prop1Report:
    """Outcome of an exhaustive sweep at (m, a, b).

    counterexamples counts maximal pairs (A, comp(A)) violating the
    disjunction; zero here is equivalent to zero over all
    cross-intersecting pairs, because comp(A) dominates every partner
    of A.  pairs_examined counts the maximal pairs the sweep actually
    evaluated, with each pruned subtree contributing one.
    """

    m: int
    a: int
    b: int
    cap_a: int
    cap_b: int
    pairs_examined: int
    counterexamples: int
    witnesses: tuple[str, ...] = field(default_factory=tuple)

    @property
    def holds(self) -> bool:
        return self.counterexamples == 0


def verify_prop1_exhaustive(m: int, a: int, b: int) -> Prop1Report:
    """Complete sweep of all cross-intersecting pairs at (m, a, b).

    Feasibility caps: C(m, a) <= 12 and C(m, b) <= 12 (TooLarge beyond);
    at those sizes a whole sweep takes about a millisecond.
    """
    if a < 1 or b < 1:
        raise PreconditionError(f"need a, b >= 1, got a={a}, b={b}")
    if m < a + b:
        raise PreconditionError(f"need m >= a + b, got m={m}, a={a}, b={b}")
    if comb_exceeds(m, a, _SWEEP_CAP) or comb_exceeds(m, b, _SWEEP_CAP):
        raise TooLarge(f"sweep needs C({m},{a}) and C({m},{b}) <= {_SWEEP_CAP}")
    asets = subset_masks((1 << m) - 1, a)
    bsets = subset_masks((1 << m) - 1, b)
    cap_a = math.comb(m - 1, a - 1)
    cap_b = math.comb(m - 1, b - 1)
    n_a = len(asets)
    meets = [sum(1 << j for j, t in enumerate(bsets) if s & t) for s in asets]

    examined = 0
    counterexamples = 0
    witnesses: list[str] = []

    def recurse(i: int, size_a: int, members: list[int], comp: int) -> None:
        nonlocal examined, counterexamples
        if comp.bit_count() <= cap_b:
            examined += 1  # B side of the disjunction holds for every extension
            return
        if size_a + (n_a - i) <= cap_a:
            examined += 1  # A side holds for every extension
            return
        if i == n_a:  # both caps exceeded: a counterexample
            examined += 1
            counterexamples += 1
            if len(witnesses) < 4:
                fam_a = [mask_indices(asets[j]) for j in members]
                witnesses.append(f"|A|={size_a} A={fam_a} |comp(A)|={comp.bit_count()}")
            return
        recurse(i + 1, size_a, members, comp)
        members.append(i)
        recurse(i + 1, size_a + 1, members, comp & meets[i])
        members.pop()

    recurse(0, 0, [], (1 << len(bsets)) - 1)
    return Prop1Report(
        m=m,
        a=a,
        b=b,
        cap_a=cap_a,
        cap_b=cap_b,
        pairs_examined=examined,
        counterexamples=counterexamples,
        witnesses=tuple(witnesses),
    )
