"""Explicit antipodal-free families and coordinate permutations.

Two deterministic constructions realize the known lower bounds:

* example1(p): vectors whose last nonzero coordinate carries -1.  Size
  C(n, k+l) * C(k+l-1, l-1).  Antipodal-free: an antipodal pair would put
  the larger of the two maximal support elements simultaneously in a
  minus set and in the partner's plus set, forcing it into both the plus
  and the minus set of one vector.
* example2(p): vectors whose first coordinate carries +1.  Size
  C(n-1, k+l-1) * C(k+l-1, k-1) = (k/n) |V|.  Antipodal-free because the
  plus sets all share coordinate 1.

Both are produced by filtering the codes of the canonical enumeration,
so member order is inherited from enumerate_v and the sizes double as
regression oracles for the closed forms.

The circle family H places, for each i in [n], a cyclic run of k plus
entries starting at i and a cyclic run of l minus entries ending just
before it.  H is generally NOT antipodal-free; it is the rotation
skeleton the circle-method verifiers permute and intersect against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, InvalidParams, RegimeError, TooLarge
from .vectors import Params, VectorFamily, bit_positions, enumerate_v

__all__ = [
    "Permutation",
    "apply_permutation",
    "example1",
    "example2",
    "circle_family",
]

_CIRCLE_CAP = 1000  # circle_family's n: H prints as n^2 characters, and the sweeps need n <= 100


@dataclass(frozen=True)
class Permutation:
    """Bijection on [1..n], stored as the image tuple (image[i-1] = sigma(i))."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise InvalidParams(f"not a bijection on [1..{len(self.image)}]: {self.image}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]


def apply_permutation(fam: VectorFamily, sigma: Permutation) -> VectorFamily:
    """Relabel coordinates of every member; order and size are preserved.

    Bit j of a code moves to bit table[j]: sigma(i) - 1 for the plus bit
    of coordinate i, n + sigma(i) - 1 for its minus bit.
    """
    n = fam.params.n
    if sigma.n != n:
        raise DimensionMismatch(f"permutation on [1..{sigma.n}] vs family with n={n}")
    table = [x - 1 for x in sigma.image] + [n + x - 1 for x in sigma.image]
    codes = (sum(1 << table[j] for j in bit_positions(c)) for c in fam.codes)
    return VectorFamily.from_codes(fam.params, codes)


def example1(p: Params) -> VectorFamily:
    """Vectors of V(n,k,l) whose largest support element lies in the minus
    set: the minus mask is the larger of the two disjoint masks."""
    return enumerate_v(p).restrict_codes(lambda c: c >> p.n > c & ((1 << p.n) - 1))


def example2(p: Params) -> VectorFamily:
    """Vectors of V(n,k,l) whose first coordinate is +1 (bit 0 of the code)."""
    return enumerate_v(p).restrict_codes(lambda c: c & 1)


def _mod1(x: int, n: int) -> int:
    """Residue of x in 1..n (1-based wrap-around)."""
    return (x - 1) % n + 1


def circle_family(p: Params) -> VectorFamily:
    """The n-member cyclic family H; member i is +1 on the cyclic block
    {i, ..., i+k-1} and -1 on {i-k, ..., i-k+l-1} (residues taken in [1..n]).

    Needs n >= 2k so the two blocks cannot collide.  TooLarge for
    n > _CIRCLE_CAP: H has n members of n coordinates each.
    """
    if p.n < 2 * p.k:
        raise RegimeError(f"circle family needs n >= 2k, got n={p.n}, k={p.k}")
    if p.n > _CIRCLE_CAP:
        raise TooLarge(f"circle family capped at n <= {_CIRCLE_CAP}, got n={p.n}")
    fam = VectorFamily.from_codes(
        p,
        (
            sum(1 << (_mod1(i + t, p.n) - 1) for t in range(p.k))
            | sum(1 << (p.n + _mod1(i - p.k + t, p.n) - 1) for t in range(p.l))
            for i in range(1, p.n + 1)
        ),
    )
    if len(fam) != p.n:
        raise RuntimeError(f"circle family has {len(fam)} distinct members, expected n={p.n}")
    return fam
