"""Rotation-and-permutation verifiers built on the cyclic family H.

For a permutation sigma of [1..n], H(sigma) is the image of the circle
family under coordinate relabeling.  Two facts are checked here at desk
scale:

* interval cap: in the regime 2k <= n <= 3k - l, an antipodal-free
  family meets every H(sigma) in at most k members.  The companion
  combinatorial fact, that at most k of the n cyclic k-intervals can
  pairwise intersect (Katona), is checked by brute force in the suite.
* double counting: summed over ALL n! permutations, |H(sigma) cap F| =
  |F| n k! l! (n-k-l)! for ANY subfamily F of V(n, k, l), because each
  fixed vector lands in H(sigma) for exactly n k! l! (n-k-l)! choices of
  sigma.  This identity needs no freeness assumption and is the engine
  behind theorem2_bound: combining it with the interval cap yields
  |F| <= k |V| / n.

Exhaustive sweeps are capped at n = 8 (40320 permutations); larger n
must sample.  Sampled sweeps are capped at n = 100, because building H
costs n^2 whatever the family's size.  Sampled runs are deterministic
given their seed.

An exhaustive sweep evaluates only the (n-1)! coset representatives
with sigma(1) = 1 and counts each with weight n.  This is exact: the
rotation rho(i) = i + 1 (mod n) maps H onto itself, so H(sigma rho) =
H(sigma), and the image tuple of sigma rho is the image tuple of sigma
rotated by one place.  The n permutations sigma rho^t therefore share
one count, and exactly one of them sends 1 to 1.  The sweep checks the
rotation invariance of H before it relies on it.

Every mode runs in-process, and F enters it as its set of vector codes
(VectorFamily.codes): a member of H(sigma) is counted when its image
code lies in that set.  Two kernels compute the image codes.

* One permutation at a time (_count), for the sampled mode and
  lemma3_count: the code of an image member is the sum of its entries in
  sigma's bit table.
* Lane-parallel (_lane_histogram), for the exhaustive mode: one Python
  int holds a 16-bit lane per coset representative, and column t
  (_lane_columns, cached per n) holds sigma(t)'s plus bit in every lane.
  A member of H sums its columns, the minus ones shifted by n, which
  gives its image code in every lane at once; the lanes are then looked
  up in the code set and their 0/1 results added into one byte per lane.
  A code of 2n <= 16 bits fills at most one lane, so no lane carries
  into the next.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from array import array
from dataclasses import asdict, dataclass, field
from itertools import permutations as _iter_permutations
from operator import itemgetter

from .bounds import theorem2_bound
from .constructions import Permutation, apply_permutation, circle_family
from .errors import DimensionMismatch, InvalidParams, RegimeError, TooLarge
from .theorem1 import Violation, antipodal_free_precheck
from .vectors import VectorFamily, bit_positions

__all__ = [
    "CircleReport",
    "lemma3_count",
    "lemma3_sweep",
    "double_count_check",
    "theorem2_certify",
]

DEFAULT_SAMPLES = 1000  # sampled permutations per sweep, besides the identity
DEFAULT_SEED = 0
_EXHAUSTIVE_CAP = 8
_LANE = "H"  # the lane kernel's lane type: 16 bits, one code of 2n <= 16 bits
_SAMPLED_CAP = 100  # building H and its getters costs n^2, and each sampled sigma n (k + l)
_DELTA = 1e-9  # false-violation probability of double_count_check's sampled band


@dataclass
class CircleReport:
    """Outcome of a permutation sweep; fields vary with the mode.

    count_histogram maps an intersection size to the number of
    permutations attaining it.  identity_lhs/identity_rhs hold the two
    sides of the double-counting identity in exhaustive mode;
    mean_observed/mean_expected the sampled analogue.
    """

    params: tuple[int, int, int]
    family_size: int
    mode: str
    sigmas_checked: int
    count_histogram: dict[int, int] = field(default_factory=dict)
    max_observed: int = 0
    cap: int | None = None
    identity_lhs: int | None = None
    identity_rhs: int | None = None
    mean_observed: float | None = None
    mean_expected: float | None = None
    bound_value: int | None = None
    seed: int | None = None
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        d = asdict(self)
        d["params"] = list(self.params)
        d["count_histogram"] = {str(k): v for k, v in sorted(self.count_histogram.items())}
        d["ok"] = self.ok
        return d


def _member_getters(h: VectorFamily) -> list[itemgetter]:
    """Per member of the circle family h, an itemgetter of a bit table's
    entries (see _bit_table) at its code's set bits: plus, then minus."""
    return [itemgetter(*bit_positions(c)) for c in h.codes]


def _bit_table(image, n: int) -> list[int]:
    """Per-coordinate bit table of sigma: entry i - 1 holds the plus bit
    of sigma(i), entry n + i - 1 its minus bit."""
    bits = [1 << (x - 1) for x in image]
    return bits + [b << n for b in bits]


def _count(table, getters: list[itemgetter], codes: dict[int, None]) -> int:
    """|H(sigma) cap F|: the code of each image member is the sum of its
    entries in sigma's bit table."""
    return len([g for g in getters if sum(g(table)) in codes])


@functools.lru_cache(maxsize=_EXHAUSTIVE_CAP)
def _lane_columns(n: int) -> tuple[int, ...]:
    """Columns of the lane kernel for the (n-1)! permutations sigma with
    sigma(1) = 1, in permutations() order: lane j of column t - 1 (a
    _LANE-sized field of the int) holds the plus bit 1 << (sigma(t) - 1)
    of the j-th sigma."""
    if 2 * n > 8 * array(_LANE).itemsize:
        raise RuntimeError(f"codes of n={n} need {2 * n} bits, more than one {_LANE!r} lane holds")
    columns = [array(_LANE, [1]) * math.factorial(n - 1)]
    for t in range(n - 1):
        columns.append(array(_LANE, (1 << tail[t] for tail in _iter_permutations(range(1, n)))))
    return tuple(int.from_bytes(c.tobytes(), sys.byteorder) for c in columns)


def _lane_histogram(h: VectorFamily, codes: dict[int, None]) -> dict[int, int]:
    """Exhaustive histogram of |H(sigma) cap F| over all n! permutations,
    one pass per member of H over the lanes of _lane_columns."""
    n = h.params.n
    columns = _lane_columns(n)
    lanes = math.factorial(n - 1)
    # A lane sums distinct bits below 2**(2n), and a lane's count is at
    # most |H| = n < 256, so neither sum carries into the next lane.
    total = 0
    for code in h.codes:
        image = sum(columns[t] for t in bit_positions(code & ((1 << n) - 1)))
        image += sum(columns[t] for t in bit_positions(code >> n)) << n
        lane_codes = memoryview(image.to_bytes(2 * lanes, sys.byteorder)).cast(_LANE)
        total += int.from_bytes(bytes(map(codes.__contains__, lane_codes)), "little")
    counts = total.to_bytes(lanes, "little")
    return {c: m * n for c in range(n + 1) if (m := counts.count(c))}


def lemma3_count(fam: VectorFamily, sigma: Permutation) -> int:
    """|H(sigma) cap F| for one permutation."""
    p = fam.params
    if sigma.n != p.n:
        raise DimensionMismatch(f"permutation on [1..{sigma.n}] vs family with n={p.n}")
    return _count(_bit_table(sigma.image, p.n), _member_getters(circle_family(p)), fam.codes)


def lemma3_sweep(
    fam: VectorFamily,
    *,
    exhaustive: bool = False,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> CircleReport:
    """Histogram of |H(sigma) cap F| over permutations.

    Pure data collection; the caller decides what counts as a violation.
    Exhaustive mode covers all n! permutations (TooLarge for n > 8) by
    evaluating the (n-1)! with sigma(1) = 1, each with weight n; sampled
    mode (TooLarge for n > 100) draws `samples` (>= 0) permutations from
    random.Random(seed) and always adds the identity.
    """
    if samples < 0:
        raise InvalidParams(f"sample count must be >= 0, got {samples}")
    p = fam.params
    mode, cap = ("exhaustive", _EXHAUSTIVE_CAP) if exhaustive else ("sample", _SAMPLED_CAP)
    if p.n > cap:
        raise TooLarge(f"{mode} sweep capped at n <= {cap}, got n={p.n}")
    h = circle_family(p)
    if exhaustive:
        # The coset quotient below is exact only if rotation maps H onto itself.
        if apply_permutation(h, Permutation((*range(2, p.n + 1), 1))).codes != h.codes:
            raise RuntimeError(f"circle family at {(p.n, p.k, p.l)} is not rotation-invariant")
        hist = _lane_histogram(h, fam.codes)
        checked = math.factorial(p.n)
        used_seed = None
    else:
        getters = _member_getters(h)
        hist: dict[int, int] = {}
        rng = random.Random(seed)
        image = list(range(1, p.n + 1))
        checked = samples + 1
        for step in range(checked):
            if step:  # the identity first, then successive shuffles
                rng.shuffle(image)
            c = _count(_bit_table(image, p.n), getters, fam.codes)
            hist[c] = hist.get(c, 0) + 1
        used_seed = seed
    return CircleReport(
        params=(p.n, p.k, p.l),
        family_size=len(fam),
        mode=mode,
        sigmas_checked=checked,
        count_histogram=hist,
        max_observed=max(hist) if hist else 0,
        cap=p.k,
        seed=used_seed,
    )


def double_count_check(
    fam: VectorFamily,
    *,
    exhaustive: bool = False,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> CircleReport:
    """Check the double-counting identity for an arbitrary subfamily.

    Exhaustive mode compares sum_sigma |H(sigma) cap F| with
    |F| n k! l! (n-k-l)! exactly and records a violation on mismatch.

    Sampled mode compares the mean count with the exact mean mu =
    |F| n k! l! (n-k-l)! / n! inside a Hoeffding band.  Each of the m =
    `samples` drawn sigma is uniform on S_n and its count lies in
    [0, R], R = min(n, |F|), so the mean of the draws strays from mu by
    t = R sqrt(ln(2/delta) / (2m)) or more with probability at most
    delta = 1e-9.  The identity, counted first, moves the overall mean by
    at most R / (m + 1) more, so the band is (R + m t) / (m + 1).  A
    correct count falls outside it with probability at most 1e-9; the
    band is recorded in the violation.
    """
    p = fam.params
    report = lemma3_sweep(fam, exhaustive=exhaustive, samples=samples, seed=seed)
    report.cap = None
    rhs = (
        len(fam)
        * p.n
        * math.factorial(p.k)
        * math.factorial(p.l)
        * math.factorial(p.n - p.k - p.l)
    )
    if exhaustive:
        lhs = sum(c * m for c, m in report.count_histogram.items())
        report.identity_lhs = lhs
        report.identity_rhs = rhs
        if lhs != rhs:
            report.violations.append(
                Violation(
                    "double-count",
                    "permutation sum does not match the closed form",
                    {"lhs": lhs, "rhs": rhs},
                )
            )
    else:
        total = sum(c * m for c, m in report.count_histogram.items())
        draws = report.sigmas_checked - 1
        mean = total / report.sigmas_checked
        expected = rhs / math.factorial(p.n)
        spread = min(p.n, len(fam))
        band = spread * (1 + math.sqrt(draws * math.log(2 / _DELTA) / 2)) / (draws + 1)
        report.mean_observed = mean
        report.mean_expected = expected
        if abs(mean - expected) > band + 1e-9:
            report.violations.append(
                Violation(
                    "double-count-sample",
                    "sampled mean strayed outside the Hoeffding band",
                    {"mean": mean, "expected": expected, "band": band},
                )
            )
    return report


def theorem2_certify(fam: VectorFamily, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> CircleReport:
    """Certify |F| <= theorem2_bound(p) for an antipodal-free family in
    the circle regime.

    RegimeError outside 2k <= n <= 3k - l.  An antipodal pair in the
    input is reported as a violation, not raised.  The interval cap is
    checked for the identity plus `samples` sampled permutations.
    """
    p = fam.params
    if not p.circle_regime:
        raise RegimeError(
            f"circle certification needs 2k <= n <= 3k - l, got (n,k,l)=({p.n},{p.k},{p.l})"
        )
    report = lemma3_sweep(fam, exhaustive=False, samples=samples, seed=seed)
    report.bound_value = theorem2_bound(p)
    report.violations.extend(antipodal_free_precheck(fam))
    if report.max_observed > p.k:
        report.violations.append(
            Violation(
                "interval-cap",
                "a permuted circle family met the input in more than k members",
                {"max_observed": report.max_observed, "cap": p.k},
            )
        )
    if len(fam) > report.bound_value:
        report.violations.append(
            Violation(
                "circle-bound",
                "family exceeds k |V| / n",
                {"size": len(fam), "bound": report.bound_value},
            )
        )
    return report
