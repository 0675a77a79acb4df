"""Definitional compositae routes that the tests check compositae_dp against.

Literal enumeration of every composition (compositae_bruteforce) is kept
free of the DP recurrence; it is capped at small n because the
composition count doubles with every increment.

Unordered part multisets (partitions into exactly k parts) and the
multinomial count of orderings per multiset give a third decomposition:

    F_delta(n, k) = sum over partitions L of n into k parts
                    of b(L) * prod f(l),  b(L) = k! / (j_1! ... j_m!),

where j_i are the multiplicities of the distinct part values in L.
None of them is on a production path, so they live here.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterator

from logseries import IntSeries
from logseries._value import Value, set_field

# Composition enumeration doubles per unit of n; C(24, 12) ~ 2.7e6 keeps
# a single brute-force call affordable.
BRUTE_FORCE_MAX_N = 25


def compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All compositions of n into k positive parts (ordered tuples).

    Realized by choosing k-1 cut points among the n-1 gaps, which is
    independent of any recurrence on the compositae.
    """
    def parts(cuts: tuple[int, ...]) -> tuple[int, ...]:
        bounds = (0,) + cuts + (n,)
        return tuple(b - a for a, b in zip(bounds, bounds[1:]))

    return map(parts, itertools.combinations(range(1, n), k - 1))


def compositae_bruteforce(f: IntSeries, n: int, k: int) -> int:
    """Definitional F_delta(n, k): enumerate every composition, sum products.

    Returns 0 when k > n (no compositions).  Guarded at n <= 25 because
    the enumeration grows as C(n-1, k-1).
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if n > f.order:
        raise ValueError(f"n={n} exceeds series order {f.order}")
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute-force enumeration capped at n <= {BRUTE_FORCE_MAX_N} (got n={n})"
        )
    if k > n:
        return 0
    get = f.coeffs.get
    return sum(math.prod(get(p, 0) for p in parts) for parts in compositions(n, k))


class PartMultiset(Value):
    """Unordered multiset of positive parts {l_1, ..., l_k}, stored sorted."""

    __slots__ = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts: tuple[int, ...]) -> None:
        if not parts:
            raise ValueError("a part multiset must be non-empty")
        if any(p < 1 for p in parts):
            raise ValueError("all parts must be positive")
        set_field(self, "parts", tuple(sorted(parts)))

    @classmethod
    def of(cls, *parts: int) -> PartMultiset:
        return cls(tuple(parts))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        """Multiplicity j_i of each distinct part value, ascending by value."""
        counts = Counter(self.parts)
        return tuple(counts[v] for v in sorted(counts))


def multinomial_count(L: PartMultiset) -> int:
    """Number of distinct orderings of L: b(L) = k! / (j_1! ... j_m!)."""
    num = math.factorial(L.k)
    for j in L.multiplicities:
        num //= math.factorial(j)
    return num


def enumerate_part_multisets(n: int, k: int) -> list[PartMultiset]:
    """All partitions of n into exactly k positive parts, each exactly once.

    Canonical order: lexicographic on the ascending part tuples.
    """
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")

    def gen(total: int, count: int, minimum: int):
        if count == 1:
            if total >= minimum:
                yield (total,)
            return
        for first in range(minimum, total // count + 1):
            for rest in gen(total - first, count - 1, first):
                yield (first,) + rest

    return [PartMultiset(parts) for parts in gen(n, k, 1)]
