"""Compositae of an integer series and composition/partition counting.

The compositae of F(x) = sum_{n>=1} f(n) x^n is the triangle

    F_delta(n, k) = sum over all compositions (l_1, ..., l_k) of n
                    of the product f(l_1) * ... * f(l_k),

for 1 <= k <= n.  A composition is an ordered tuple of positive parts;
there are C(n-1, k-1) of them with exactly k parts.  Equivalently the
triangle collects the coefficients of F(x)^k.

Two independent routes are provided: a dynamic program over the last
part (compositae_dp) and literal enumeration of every composition
(compositae_bruteforce).  The brute force is the testing oracle and is
deliberately kept free of the DP recurrence; it is capped at small n
because the composition count doubles with every increment.

Unordered part multisets (partitions into exactly k parts) and the
multinomial count of orderings per multiset give a third decomposition:

    F_delta(n, k) = sum over partitions L of n into k parts
                    of b(L) * prod f(l),  b(L) = k! / (j_1! ... j_m!),

where j_i are the multiplicities of the distinct part values in L.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterator
from operator import add, mul, sub

from ._value import Value, set_field
from .series import IntSeries

# Composition enumeration doubles per unit of n; C(24, 12) ~ 2.7e6 keeps
# a single brute-force call affordable.
BRUTE_FORCE_MAX_N = 25


class CompositaeTable(Value):
    """Triangle F_delta(n, k), 1 <= k <= n <= order, as immutable rows."""

    __slots__ = ("order", "rows")
    order: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, order: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if order < 1:
            raise ValueError("CompositaeTable order must be positive")
        if len(rows) != order or any(len(row) != n for n, row in enumerate(rows, start=1)):
            raise ValueError("rows must form a triangle: row n has n entries")
        set_field(self, "order", order)
        set_field(self, "rows", rows)

    def value(self, n: int, k: int) -> int:
        """F_delta(n, k).  Entries with k > n do not exist."""
        if not (1 <= k <= n <= self.order):
            raise IndexError(f"(n={n}, k={k}) outside triangle of order {self.order}")
        return self.rows[n - 1][k - 1]

    def row(self, n: int) -> tuple[int, ...]:
        if not (1 <= n <= self.order):
            raise IndexError(f"row {n} outside 1..{self.order}")
        return self.rows[n - 1]


def compositae_dp(f: IntSeries, order: int) -> CompositaeTable:
    """Compositae triangle of f up to `order` by dynamic programming.

    Row recurrence over the last part:
        F_delta(n, 1) = f(n)
        F_delta(n, k) = sum_{m < n} f(m) * F_delta(n - m, k - 1),  k >= 2
    so row n starts as [f(n), 0, ..., 0] and each support term (m, c)
    adds c times row n - m into entries 2..n - m + 1.  Only the support
    of f is visited, so series with small support (e.g. x + x^2) stay
    cheap, and c = +-1 costs an add or subtract with no multiply.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if order > f.order:
        raise ValueError(
            f"insufficient coefficients: requested order {order} exceeds series order {f.order}"
        )
    support = [(m, c) for m, c in sorted(f.coeffs.items()) if m <= order]
    rows: list[tuple[int, ...]] = []
    for n in range(1, order + 1):
        row = [0] * n
        row[0] = f.coeffs.get(n, 0)
        for m, c in support:
            if m >= n:
                break
            prev = rows[n - m - 1]
            stop = n - m + 1
            if c == 1:
                row[1:stop] = map(add, row[1:stop], prev)
            elif c == -1:
                row[1:stop] = map(sub, row[1:stop], prev)
            else:
                row[1:stop] = map(add, row[1:stop], map(mul, itertools.repeat(c), prev))
        rows.append(tuple(row))
    return CompositaeTable(order, tuple(rows))


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
