"""Closed-form upper bounds, with regime guards and an aggregate table.

All arithmetic is exact integer arithmetic.  Binomials follow the
convention C(x, y) = 0 whenever y < 0 or y > x; this realizes the k = l
degeneration of the two-term bound (the second term vanishes) without a
special case.

The bounds:

* ekr_bound(n, k): C(n-1, k-1), the classical cap on an intersecting
  k-uniform family over [n], for n >= 2k > 0.
* theorem1_bound(p): C(n,k+l) C(k+l-1,l-1) + C(n,2l) C(2l,l) C(n-2l-1,k-l-1),
  the two-term bound certified by the deletion pipeline in
  :mod:`antipodal.theorem1`.
* theorem2_bound(p): C(n-1,k+l-1) C(k+l-1,k-1), valid in the circle
  regime 2k <= n <= 3k-l, where it is tight; equals k |V| / n exactly.
* fk1_bound(n, k): the complete answer for the single-minus case l = 1,
  in two regimes split at n = k^2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import RegimeError, TooLarge
from .vectors import Params, cardinality_exceeds, cardinality_v

__all__ = [
    "choose",
    "ekr_bound",
    "theorem1_bound",
    "theorem2_bound",
    "fk1_bound",
    "BoundEntry",
    "BoundTable",
    "bound_table",
]


def choose(x: int, y: int) -> int:
    """Binomial coefficient with C(x, y) = 0 outside 0 <= y <= x."""
    if y < 0 or y > x:
        return 0
    return math.comb(x, y)


def ekr_bound(n: int, k: int) -> int:
    """Max size of an intersecting k-uniform family over [n], n >= 2k > 0."""
    if not 0 < 2 * k <= n:
        raise RegimeError(f"ekr_bound needs n >= 2k > 0, got n={n}, k={k}")
    return math.comb(n - 1, k - 1)


def theorem1_bound(p: Params) -> int:
    """Two-term upper bound on an antipodal-free family in V(n, k, l).

    The first term is exactly |example1(p)|; the second vanishes iff
    k = l (the exponent k - l - 1 drops below zero).
    """
    first = choose(p.n, p.k + p.l) * choose(p.k + p.l - 1, p.l - 1)
    second = choose(p.n, 2 * p.l) * choose(2 * p.l, p.l) * choose(p.n - 2 * p.l - 1, p.k - p.l - 1)
    return first + second


def theorem2_bound(p: Params) -> int:
    """Tight bound k |V| / n in the circle regime 2k <= n <= 3k - l."""
    if not p.circle_regime:
        if p.n < 2 * p.k:
            raise RegimeError(f"theorem2_bound needs n >= 2k, got n={p.n}, k={p.k}")
        raise RegimeError(
            f"theorem2_bound needs n <= 3k - l, got n={p.n}, 3k-l={3 * p.k - p.l}"
        )
    value = choose(p.n - 1, p.k + p.l - 1) * choose(p.k + p.l - 1, p.k - 1)
    # Product form and k|V|/n agree identically; divisibility is exact.
    scaled = p.k * cardinality_v(p)
    if scaled % p.n or value != scaled // p.n:
        raise RuntimeError(f"product form {value} disagrees with k|V|/n = {scaled}/{p.n}")
    return value


def fk1_bound(n: int, k: int) -> int:
    """Exact maximum for l = 1: k C(n-1,k) while n <= k^2, then k C(k^2-1,k)
    + sum_{m=k^2}^{n-1} C(m,k), which is C(n,k+1) - C(k^2,k+1) by the hockey stick."""
    if k < 1:
        raise RegimeError(f"fk1_bound needs k >= 1, got k={k}")
    if n < 2 * k:
        raise RegimeError(f"fk1_bound needs n >= 2k, got n={n}, k={k}")
    if n <= k * k:
        return k * math.comb(n - 1, k)
    return k * choose(k * k - 1, k) + math.comb(n, k + 1) - math.comb(k * k, k + 1)


@dataclass(frozen=True)
class BoundEntry:
    """One row of a bound table: value if applicable, else the failed condition."""

    name: str
    value: int | None
    note: str = ""

    @property
    def applicable(self) -> bool:
        return self.value is not None

    def render(self) -> str:
        if self.applicable:
            return str(self.value)
        return f"n/a ({self.note})"


@dataclass(frozen=True)
class BoundTable:
    """Applicable bounds plus construction sizes for one parameter triple."""

    params: Params
    entries: tuple[BoundEntry, ...] = field(default_factory=tuple)

    def __getitem__(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def as_dict(self) -> dict:
        p = self.params
        return {
            "n": p.n,
            "k": p.k,
            "l": p.l,
            "entries": {
                e.name: e.value for e in self.entries
            },
            "notes": {e.name: e.note for e in self.entries if not e.applicable},
        }


def bound_table(p: Params) -> BoundTable:
    """Assemble |V|, construction sizes, and every bound with its regime flag.

    Construction sizes use the closed forms (the suite checks they agree
    with the literal filtered constructions).  The ekr entry is the
    intersecting-family cap at the support level k + l, which needs
    n >= 2(k + l).

    Raises TooLarge when |V| or a bound has more digits than Python
    turns into a string (sys.get_int_max_str_digits); |V| is checked
    before it is counted exactly.
    """
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    cap = 10**digits - 1 if digits else None
    if cap is not None and cardinality_exceeds(p, cap):
        raise TooLarge(f"|V({p.n},{p.k},{p.l})| has more than {digits} digits, the int-to-string limit")
    kl = p.k + p.l
    entries = [
        BoundEntry("V", cardinality_v(p)),
        BoundEntry("example1", choose(p.n, kl) * choose(kl - 1, p.l - 1)),
        BoundEntry("example2", choose(p.n - 1, kl - 1) * choose(kl - 1, p.k - 1)),
        BoundEntry("thm1", theorem1_bound(p)),
    ]
    if p.circle_regime:
        entries.append(BoundEntry("thm2", theorem2_bound(p)))
    elif p.n < 2 * p.k:
        entries.append(BoundEntry("thm2", None, f"n={p.n} < 2k={2 * p.k}"))
    else:
        entries.append(BoundEntry("thm2", None, f"n={p.n} > 3k-l={3 * p.k - p.l}"))
    if p.l != 1:
        entries.append(BoundEntry("fk1", None, f"l={p.l} != 1"))
    elif p.n < 2 * p.k:
        entries.append(BoundEntry("fk1", None, f"n={p.n} < 2k={2 * p.k}"))
    else:
        entries.append(BoundEntry("fk1", fk1_bound(p.n, p.k)))
    if p.n >= 2 * kl:
        entries.append(BoundEntry("ekr", ekr_bound(p.n, kl)))
    else:
        entries.append(BoundEntry("ekr", None, f"n={p.n} < 2(k+l)={2 * kl}"))
    for e in entries:
        if cap is not None and e.applicable and e.value > cap:
            raise TooLarge(f"{e.name} at ({p.n},{p.k},{p.l}) has more than {digits} digits, the int-to-string limit")
    return BoundTable(p, tuple(entries))
