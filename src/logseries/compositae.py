"""Compositae of an integer series: the triangle and its streamed row sums.

The compositae of F(x) = sum_{n>=1} f(n) x^n is the triangle

    F_delta(n, k) = sum over all compositions (l_1, ..., l_k) of n
                    of the product f(l_1) * ... * f(l_k),

for 1 <= k <= n.  A composition is an ordered tuple of positive parts;
there are C(n-1, k-1) of them with exactly k parts.  Equivalently the
triangle collects the coefficients of F(x)^k.

compositae_dp builds it by a dynamic program over the last part, with
two kernels: one int per entry, or, when f has at least
PACKED_MIN_SUPPORT = 16 nonzero terms up to the order, one int per row
by Kronecker substitution (Harvey, "Faster polynomial multiplication
via multipoint Kronecker substitution", J. Symb. Comput. 44, 2009).  The
packed slots are W whole bytes, from the bound |F_delta(n, k)| <= h_|f|(n)
plus a sign bit, and cost about order^2 * W / 2 extra bits.  Each packed
row sums its terms shortest first, so its running sum is copied at full
length only once.  The kernels cross over at 6-16 support terms for
orders 150-500.

The row sums h(n) of the triangle and n*g(n) = sum_k (n/k) F_delta(n, k)
also stream, with no triangle, from _h_and_ng (H = 1/(1-F), G' = F' H),
holding O(d) values for a support that ends at d: the generic witness
and scan read n*g(n) there.  The packed slot bound runs the h half of
the same recurrence on |f|.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from operator import add, mul, neg, sub

from ._value import Value, set_field
from .series import IntSeries

# compositae_dp packs each row into one integer when f has at least this many
# nonzero coefficients up to the order; see its docstring for the crossover.
PACKED_MIN_SUPPORT = 16


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
    visiting only the support of f, its nonzero f(m) with m <= order.
    Fewer than PACKED_MIN_SUPPORT support terms run _entry_rows, one int
    per entry; more run _packed_rows, one int per row with slots of W
    bits, W the whole bytes that hold h_|f|(n) >= |F_delta(n, k)| and a
    sign bit.  The packed rows take about order^2 * W / 2 bits beside the
    table; at order 200, W is 208 for ones and about 1050 for signed 8-bit
    values.  For f(1..s) all ones, the kernels cross over at s = 8, 10 and
    16 for orders 150, 300 and 500; for small signed values at s = 6, 6
    and 8.  At 16 terms, the cut-off, packing is 1.2-2.6x faster at every
    order measured; at 4 terms it is 1.2-2.7x slower.  Both give the same
    table.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if order > f.order:
        raise ValueError(
            f"insufficient coefficients: requested order {order} exceeds series order {f.order}"
        )
    dense = sum(m <= order for m in f.coeffs) >= PACKED_MIN_SUPPORT
    return CompositaeTable(order, (_packed_rows if dense else _entry_rows)(f, order))


def _support(f: IntSeries, order: int) -> list[tuple[int, int]]:
    """The nonzero (m, f(m)) with m <= order, ascending in m."""
    return [(m, c) for m, c in sorted(f.coeffs.items()) if m <= order]


def _entry_rows(f: IntSeries, order: int) -> tuple[tuple[int, ...], ...]:
    """Rows 1..order, each entry its own int.

    Row n starts as [f(n), 0, ..., 0] and each support term (m, c) adds c
    times row n - m into entries 2..n - m + 1.  The first (widest) term
    assigns its slice instead of adding into zeros, and c = +-1 costs a
    copy, negation, add or subtract with no multiply.
    """
    support = _support(f, order)
    rows: list[tuple[int, ...]] = []
    for n in range(1, order + 1):
        row = [0] * n
        row[0] = f.coeffs.get(n, 0)
        first = True
        for m, c in support:
            if m >= n:
                break
            prev = rows[n - m - 1]
            stop = n - m + 1
            if first:
                first = False
                if c == 1:
                    row[1:stop] = prev
                elif c == -1:
                    row[1:stop] = map(neg, prev)
                else:
                    row[1:stop] = map(mul, itertools.repeat(c), prev)
            elif c == 1:
                row[1:stop] = map(add, row[1:stop], prev)
            elif c == -1:
                row[1:stop] = map(sub, row[1:stop], prev)
            else:
                row[1:stop] = map(add, row[1:stop], map(mul, itertools.repeat(c), prev))
        rows.append(tuple(row))
    return tuple(rows)


def _h_and_ng(f: IntSeries, order: int, mod: int | None = None) -> Iterator[tuple[int, int]]:
    """Yield (h(n), n*g(n)) for n = 0..order, keeping O(d) values of h.

    h(0) = 1 and ng(0) = 0; for n >= 1, h(n) = sum_{m<=n} f(m) h(n-m) and
    n*g(n) = sum_{m<=n} m f(m) h(n-m), the coefficients of H = 1/(1-F)
    and of x G' = x F' H.  Each step walks only the sorted support of f,
    which ends at d <= order (d = 1 for an empty support), so only the
    last d values of h are read: the list is cut back to them whenever
    it passes 2d + 64.  With `mod` (at least 2) every value is reduced
    below mod; without it they are the exact integers.  The caller checks
    that order <= f.order.
    """
    support = _support(f, order)
    d = support[-1][0] if support else 1
    cap = 2 * d + 64
    h = [1]
    yield 1, 0
    for n in range(1, order + 1):
        hn = ngn = 0
        for m, c in support:
            if m > n:
                break
            term = c * h[-m]
            hn += term
            ngn += m * term
        if mod is not None:
            hn %= mod
            ngn %= mod
        h.append(hn)
        if len(h) > cap:
            del h[:-d]
        yield hn, ngn


def _slot_bytes(support: list[tuple[int, int]], order: int) -> int:
    """Bytes per packed slot: room for max |F_delta(n, k)| and a spare sign bit.

    |F_delta(n, k)| <= h_|f|(n), the row sum of the triangle of |f|: the h
    half of _h_and_ng's recurrence on |f|, h(n) = sum_{m<=n} |f(m)| h(n-m),
    without the n*g(n) sums that the bound does not read.
    """
    abs_support = [(m, abs(c)) for m, c in support]
    h = [1]
    for n in range(1, order + 1):
        hn = 0
        for m, c in abs_support:
            if m > n:
                break
            hn += c * h[n - m]
        h.append(hn)
    return max(h).bit_length() // 8 + 1


def _packed_rows(f: IntSeries, order: int) -> tuple[tuple[int, ...], ...]:
    """Rows 1..order by Kronecker substitution: row n is one integer.

    P_n = sum_k F_delta(n, k) 2^((k-1) W), so the recurrence becomes
    P_n = f(n) + (sum_{(m, c)} c P_{n-m}) << W.  The sum walks the support
    from its largest m down, so the rows P_{n-m} come shortest first.  An
    int is immutable and each += copies the whole sum so far, so the sum
    reaches full length only at its last term; longest first, every term
    would copy a full-length row, about twice the bits the terms hold for
    a dense support.  c = +-1 adds or subtracts with no multiply.  Adding
    2^(W-1) to every slot makes each slot's bytes the unsigned
    F_delta(n, k) + 2^(W-1), which one to_bytes and one from_bytes per
    slot read back.
    """
    support = _support(f, order)
    width = _slot_bytes(support, order)
    shift = 8 * width
    half = 1 << (shift - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * order, "little")
    slots = [slice(i, i + width) for i in range(0, order * width, width)]
    packed = [0]
    rows: list[tuple[int, ...]] = []
    live: list[tuple[int, int]] = []  # the (m, c) with m < n, largest m first
    for n in range(1, order + 1):
        if len(live) < len(support) and support[len(live)][0] < n:
            live.insert(0, support[len(live)])
        acc = 0
        for m, c in live:
            if c == 1:
                acc += packed[n - m]
            elif c == -1:
                acc -= packed[n - m]
            else:
                acc += c * packed[n - m]
        packed.append(f.coeffs.get(n, 0) + (acc << shift))
        data = (packed[n] + (bias >> (order - n) * shift)).to_bytes(n * width, "little")
        values = map(int.from_bytes, map(data.__getitem__, slots[:n]), itertools.repeat("little"))
        rows.append(tuple(map(sub, values, itertools.repeat(half))))
    return tuple(rows)

