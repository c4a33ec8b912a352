"""Certification pipeline for the two-term bound.

For a family F inside V(n, k, l) and disjoint l-sets (A, B), the slice
F(A, B) collects the (k-l)-sets C with A cup C as plus set and B as
minus set of some member.  The pipeline mechanizes the counting argument
behind theorem1_bound:

1. lemma1_check: for antipodal-free F, the slices F(A, B) and F(B, A)
   must be cross-intersecting; a disjoint witness pair (C, D) folds back
   into an antipodal pair of vectors, which is reported as data.
2. deletion_procedure: every ordered pair whose slice has at most
   C(n-2l-1, k-l-1) members deletes all vectors it indexes.  Thresholds
   are evaluated against the ORIGINAL family in a single pass; pairs are
   processed in lexicographic order, and a deleted vector is charged to
   the first pair that hits it.  That policy is stamped into every
   report.  The survivor count obeys the accounting lower bound
   |F'| >= |F| - C(n,2l) C(2l,l) C(n-2l-1,k-l-1).
3. lemma2_check: for each (k+l)-set T, the minus sets of surviving
   vectors supported exactly on T (family_b) must form an intersecting
   l-uniform family, hence at most C(k+l-1, l-1) of them.
4. certify_theorem1: summing stage 3 over T gives
   |F'| <= C(n,k+l) C(k+l-1,l-1) and, with the accounting bound,
   |F| <= theorem1_bound(p).  It runs the antipodal-free precheck, then
   stages 2 and 3 and the two caps, but not stage 1: its violations are
   exactly the antipodal pairs, which the precheck has excluded.

Violations discovered at any stage are collected in the report, never
raised; an empty violation list certifies every inequality above.

Every stage works on the family's member codes (VectorFamily.codes)
and formats or decodes a vector only for the report: the deleted
vectors and the data of a violation.  Stages 1 and 2 read the slices
from one builder (_slices): it visits each member once and files its
code under every l-subset A of its plus mask, with B its minus mask, so
all slices cost |F| C(k, l) steps; the l-subsets are built once per run
of members with the same plus mask.  lemma1_check then pairs F(A, B)
with F(B, A): two filed members fold into disjoint (C, D) exactly when
their codes share no bit, i.e. when they are an antipodal pair.  Both
stages also walk all C(n, l) C(n - l, l) ordered disjoint l-pairs, a
count set by n alone; over _PAIR_CAP of them they raise TooLarge before
building anything, so a header-only file cannot make them run for long.
A pair with an empty slice (for lemma 1, either slice) takes one step:
its count 0 is recorded and, for the deletion, its charge 0, as 0 never
exceeds the threshold; the cross check and the doomed set are skipped.
The report keys keep the pair order either way.
The deletion keeps the survivors as codes, and lemma2_check groups their
minus masks by support mask and tests each group with all_pairs_meet.

Index sets and masks convert through vectors alone: the pairs take A
from the l-subsets of [n] and B from those of [n] - A, both from
subset_masks, with index tuples from mask_indices, and subfamily and
family_b encode their A, B and T with index_mask, whose RangeError
names the first index outside [1..n].
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Iterable

from .bounds import choose, theorem1_bound
from .errors import BadPair, BadT, TooLarge
from .setfamilies import SetFamily, all_pairs_meet
from .vectors import (
    Params,
    VectorFamily,
    comb_exceeds,
    find_antipodal_pair,
    format_codes,
    format_vector,
    index_mask,
    mask_indices,
    subset_masks,
)

__all__ = [
    "Violation",
    "TraceReport",
    "subfamily",
    "lemma1_check",
    "deletion_procedure",
    "lemma2_check",
    "family_b",
    "antipodal_free_precheck",
    "check_pair_cap",
    "certify_theorem1",
]

_PAIR_CAP = 100_000  # ordered l-pairs walked by lemma1_check and deletion_procedure
_POLICY = "single pass: thresholds evaluated against the input family, pairs in lex order"

PairKey = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class Violation:
    """One failed check, with enough data to reproduce it."""

    stage: str
    message: str
    data: dict = field(default_factory=dict)


@dataclass
class TraceReport:
    """Trace of the pipeline; fields are filled by the stages that ran.

    pair_counts holds |F(A, B)| in the input family for every ordered
    disjoint l-pair; deletions holds, for every triggered pair, the
    number of vectors charged to it (first-hitting pair wins), so
    survivor_size = family_size - sum(deletions.values()).
    family_b_sizes records the nonempty supports only.
    """

    family_size: int = 0
    threshold: int = 0
    policy: str = _POLICY
    pair_counts: dict[PairKey, int] = field(default_factory=dict)
    deletions: dict[PairKey, int] = field(default_factory=dict)
    deleted: tuple[str, ...] = ()
    survivor_size: int = 0
    accounting_lower_bound: int = 0
    family_b_sizes: dict[tuple[int, ...], int] = field(default_factory=dict)
    final_bound: int | None = None
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        def pair_str(key: PairKey) -> str:
            a, b = key
            return ",".join(map(str, a)) + "|" + ",".join(map(str, b))

        # Field by field: asdict(self) would also deep-copy every tuple key
        # of the pair dicts, six times the cost of this at 60,000 pairs.
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["pair_counts"] = {pair_str(k): v for k, v in self.pair_counts.items()}
        d["deletions"] = {pair_str(k): v for k, v in self.deletions.items()}
        d["deleted"] = list(self.deleted)
        d["family_b_sizes"] = {",".join(map(str, t)): s for t, s in self.family_b_sizes.items()}
        d["violations"] = [asdict(v) for v in self.violations]
        d["ok"] = self.ok
        return d


def _pair_masks(p: Params, a: frozenset[int], b: frozenset[int]) -> tuple[int, int]:
    """The masks of A and B, once they are checked to be disjoint l-sets
    of [n]; the indices are checked as the one set A | B."""
    if len(a) != p.l or len(b) != p.l:
        raise BadPair(f"index sets must both have size l={p.l}, got {len(a)} and {len(b)}")
    if a & b:
        raise BadPair(f"index sets overlap in {sorted(a & b)}")
    both, a_mask = index_mask(a | b, p.n), index_mask(a, p.n)
    return a_mask, both ^ a_mask


def _slices(fam: VectorFamily) -> dict[int, list[int]]:
    """The member codes behind every nonempty slice F(A, B), in member
    order, keyed by the code A | B << n of the pair."""
    p = fam.params
    n, full = p.n, (1 << p.n) - 1
    out: dict[int, list[int]] = {}
    last_plus = None
    for code in fam.codes:
        plus = code & full
        if plus != last_plus:
            last_plus, subsets = plus, subset_masks(plus, p.l)
        b = code >> n << n
        for a in subsets:
            out.setdefault(a | b, []).append(code)
    return out


def check_pair_cap(p: Params) -> None:
    """TooLarge if the ordered pairs of disjoint l-sets of [n], which
    lemma1_check and deletion_procedure walk, number over _PAIR_CAP.
    Their number C(n, l) C(n - l, l) grows with n, not with any family;
    it is over the cap if either factor is, so a huge n is refused
    without an exact count, and no pair is built."""
    if comb_exceeds(p.n, p.l, _PAIR_CAP) or comb_exceeds(p.n - p.l, p.l, _PAIR_CAP):
        raise TooLarge(f"ordered pairs of disjoint {p.l}-sets of [{p.n}] exceed the pair cap {_PAIR_CAP}")
    count = choose(p.n, p.l) * choose(p.n - p.l, p.l)
    if count > _PAIR_CAP:
        raise TooLarge(f"{count} ordered pairs of disjoint {p.l}-sets exceed the pair cap {_PAIR_CAP}")


def _ordered_pairs(p: Params):
    """All ordered pairs of disjoint l-sets, lexicographic on (A, B): each
    as its two index tuples and its two bitmasks; check_pair_cap first,
    so over the cap nothing is built.  Each A walks only the l-subsets of
    the coordinates it misses, so the walk costs the pair count, which
    the cap bounds, and not C(n, l)**2."""
    check_pair_cap(p)
    full = (1 << p.n) - 1
    index_tuples = {mask: mask_indices(mask) for mask in subset_masks(full, p.l)}
    return (
        (a, index_tuples[b_mask], a_mask, b_mask)
        for a_mask, a in index_tuples.items()
        for b_mask in subset_masks(full ^ a_mask, p.l)
    )


def subfamily(fam: VectorFamily, a: Iterable[int], b: Iterable[int]) -> SetFamily:
    """The slice F(A, B): plus remainders of members with minus set B and
    plus set containing A, as a (k-l)-uniform family over [1..n]."""
    p = fam.params
    a_mask, b_mask = _pair_masks(p, frozenset(a), frozenset(b))
    full = (1 << p.n) - 1
    codes = _slices(fam).get(a_mask | b_mask << p.n, ())
    return SetFamily(p.n, p.k - p.l, [mask_indices(c & full ^ a_mask) for c in codes])


def lemma1_check(fam: VectorFamily) -> TraceReport:
    """Cross-intersection of F(A, B) and F(B, A) for every disjoint l-pair.

    A violating pair of slice members (C, D) with C cap D empty comes from
    the antipodal vector pair (A cup C minus B, B cup D minus A), which is
    reported.  Antipodal-free input therefore yields no violations.
    """
    p = fam.params
    n, full = p.n, (1 << p.n) - 1
    pairs = _ordered_pairs(p)
    report = TraceReport(family_size=len(fam), threshold=choose(p.n - 2 * p.l - 1, p.k - p.l - 1))
    slices = _slices(fam)
    for a, b, a_mask, b_mask in pairs:
        if b < a:  # the unordered pair was handled at (b, a)
            continue
        slice_ab = slices.get(a_mask | b_mask << n, ())
        slice_ba = slices.get(b_mask | a_mask << n, ())
        report.pair_counts[(a, b)] = len(slice_ab)
        report.pair_counts[(b, a)] = len(slice_ba)
        if not (slice_ab and slice_ba):
            continue
        for v in slice_ab:
            for w in slice_ba:
                if not v & w:
                    report.violations.append(
                        Violation(
                            "lemma1",
                            "slices are not cross-intersecting",
                            {
                                "A": list(a),
                                "B": list(b),
                                "C": list(mask_indices(v & full ^ a_mask)),
                                "D": list(mask_indices(w & full ^ b_mask)),
                                "antipodal_pair": format_codes((v, w), n),
                            },
                        )
                    )
    return report


def deletion_procedure(fam: VectorFamily) -> tuple[VectorFamily, TraceReport]:
    """Single-pass deletion of vectors indexed by small slices.

    Returns the survivor family F' and a trace with per-pair slice sizes,
    per-pair deletion charges, and the accounting lower bound on |F'|.
    """
    p = fam.params
    n = p.n
    pairs = _ordered_pairs(p)
    threshold = choose(p.n - 2 * p.l - 1, p.k - p.l - 1)
    report = TraceReport(family_size=len(fam), threshold=threshold)
    slices = _slices(fam)
    doomed: set[int] = set()
    for a, b, a_mask, b_mask in pairs:
        key, indexed = (a, b), slices.get(a_mask | b_mask << n)
        if indexed is None:  # an empty slice: count 0, and 0 <= threshold charges 0
            report.pair_counts[key] = report.deletions[key] = 0
            continue
        report.pair_counts[key] = len(indexed)
        if len(indexed) <= threshold:
            fresh = [c for c in indexed if c not in doomed]
            report.deletions[key] = len(fresh)
            doomed.update(fresh)
    survivors = fam.restrict_codes(lambda c: c not in doomed)
    report.deleted = tuple(format_codes([c for c in fam.codes if c in doomed], n))
    report.survivor_size = len(survivors)
    report.accounting_lower_bound = len(fam) - choose(p.n, 2 * p.l) * choose(2 * p.l, p.l) * threshold
    if report.survivor_size != report.family_size - sum(report.deletions.values()):
        raise RuntimeError("deletion charges do not account for every removed vector")
    if report.survivor_size < report.accounting_lower_bound:
        report.violations.append(
            Violation(
                "accounting",
                "survivor count fell below the accounting lower bound",
                {"survivors": report.survivor_size, "lower_bound": report.accounting_lower_bound},
            )
        )
    return survivors, report


def family_b(fam: VectorFamily, t: Iterable[int]) -> SetFamily:
    """Minus sets of members supported exactly on the (k+l)-set T."""
    p = fam.params
    t = frozenset(t)
    if len(t) != p.k + p.l:
        raise BadT(f"support set must have size k+l={p.k + p.l}, got {len(t)}")
    t_mask = index_mask(t, p.n)
    n, full = p.n, (1 << p.n) - 1
    return SetFamily(p.n, p.l, [mask_indices(c >> n) for c in fam.codes if (c | c >> n) & full == t_mask])


def lemma2_check(fam: VectorFamily) -> TraceReport:
    """Run deletion_procedure, then check the survivors over each support.

    For every (k+l)-set T carrying survivors, the minus sets over T must
    be intersecting (a lemma2 violation lists them) and at most the EKR
    cap C(k+l-1, l-1) in number (a lemma2-cap violation).  The deletion
    trace is returned with family_b_sizes and these violations added.
    """
    p = fam.params
    n, full = p.n, (1 << p.n) - 1
    survivors, report = deletion_procedure(fam)
    cap = choose(p.k + p.l - 1, p.l - 1)
    by_support: dict[int, list[int]] = {}  # minus masks of the survivors by support mask
    for code in survivors.codes:
        minus = code >> n
        by_support.setdefault((code | minus) & full, []).append(minus)
    for t_key, minus_masks in sorted((mask_indices(t), m) for t, m in by_support.items()):
        report.family_b_sizes[t_key] = len(minus_masks)
        if not all_pairs_meet(minus_masks):
            report.violations.append(
                Violation(
                    "lemma2",
                    "surviving minus sets over a support are not intersecting",
                    {"T": list(t_key), "members": [list(mask_indices(m)) for m in minus_masks]},
                )
            )
        if len(minus_masks) > cap:
            report.violations.append(
                Violation(
                    "lemma2-cap",
                    "surviving minus sets over a support exceed the EKR cap",
                    {"T": list(t_key), "size": len(minus_masks), "cap": cap},
                )
            )
    return report


def antipodal_free_precheck(fam: VectorFamily) -> list[Violation]:
    """No violation if the family is antipodal-free, else one naming the
    first antipodal pair (see find_antipodal_pair)."""
    pair = find_antipodal_pair(fam)
    if pair is None:
        return []
    return [
        Violation(
            "antipodal-free precheck",
            "input family contains an antipodal pair",
            {"pair": [format_vector(pair[0]), format_vector(pair[1])]},
        )
    ]


def certify_theorem1(fam: VectorFamily) -> TraceReport:
    """Run the full pipeline and certify |F| <= theorem1_bound(p).

    Checks the pair cap first (TooLarge over it, see check_pair_cap),
    then stops after the antipodal-free precheck if it fails;
    lemma1_check, whose violations are exactly the antipodal pairs, is
    not re-run.
    Otherwise returns the lemma2 report (deletion trace, per-support
    EKR-capped intersecting families) plus the final two inequalities.
    """
    p = fam.params
    check_pair_cap(p)
    precheck = antipodal_free_precheck(fam)
    if precheck:
        return TraceReport(family_size=len(fam), violations=precheck)

    report = lemma2_check(fam)

    survivor_cap = choose(p.n, p.k + p.l) * choose(p.k + p.l - 1, p.l - 1)
    if report.survivor_size > survivor_cap:
        report.violations.append(
            Violation(
                "survivor-cap",
                "survivors exceed C(n,k+l) C(k+l-1,l-1)",
                {"survivors": report.survivor_size, "cap": survivor_cap},
            )
        )
    report.final_bound = theorem1_bound(p)
    if report.family_size > report.final_bound:
        report.violations.append(
            Violation(
                "final-bound",
                "family exceeds the two-term bound",
                {"size": report.family_size, "bound": report.final_bound},
            )
        )
    return report
