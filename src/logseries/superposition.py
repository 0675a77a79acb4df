"""Superposition of series through compositae, and its integrality sums.

For R(x) = sum_{k>=0} r(k) x^k and F(x) = sum_{n>=1} f(n) x^n (integer
coefficients, no constant term), the superposition Z(x) = R(F(x)) has

    z(n) = sum_{k=1}^{n} F_delta(n, k) r(k),      z(0) = r(0).

Taking R(x) = ln(1/(1-x)) gives G(x) = ln(1/(1-F(x))) with

    g(n) = sum_{k=1}^{n} F_delta(n, k) / k,

and n*g(n) is always an integer when f is an integer sequence; dropping
the k = n term gives a sum that is integral whenever n is prime.  The
checks below expose those quantities exactly and loudly fail if the
integral ones ever come out non-integral.

Every sum here is one weighted compositae row sum
sum_k F_delta(n, k) w(k), computed by the single kernel _row_sum: w(k) is
r(k) for z(n) and a(k)/k for every log sum, with a = 1 for g(n), and the
weight list stops at k = n - 1 for the sums that drop the k = n term.
Each call scales its weights once to integers over a common denominator
D, w(k) = W(k)/D, so a row sum is one integer dot product and one Fraction:

    sum_k F_delta(n, k) w(k) = (sum_k F_delta(n, k) W(k)) / D.

_reciprocal_weights builds the weights a(k)/k without Fractions.
log_superposition (n*g(n)) and statement21_check take n times the row
sum through _n_times_row_sums, and every value that must be an integer
is checked by _integral.

The generic witness needs n*g(n) only, and _h_and_ng gives it without a
triangle: G' = F' H with H = 1/(1-F), so

    h(n) = sum_{m<=n} f(m) h(n-m),  h(0) = 1,
    n*g(n) = sum_{m<=n} m f(m) h(n-m),

in O(order * |supp f|) integer steps, optionally mod some modulus.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from ._value import Value, set_field
from .compositae import CompositaeTable, compositae_dp
from .series import IntSeries, LogSeries, RatSeries


class IntegralityError(ArithmeticError):
    """A quantity that must be an exact integer came out fractional.

    Raised only when an arithmetic invariant is violated, so any
    occurrence signals a bug in the caller's inputs or in this package,
    never a property of the mathematical objects themselves.
    """


def _integral(what: str, n: int, value: Fraction) -> int:
    """value as an int; a fractional value raises IntegralityError."""
    if value.denominator != 1:
        raise IntegralityError(
            f"{what} came out fractional at n={n}: {value}; "
            "this signals a defect in the compositae arithmetic"
        )
    return int(value)


ScaledWeights = tuple[list[int], int]


def _scale_weights(weights: Sequence[Fraction]) -> ScaledWeights:
    """(ints, den) with weights[i] == ints[i] / den and den the lcm of the denominators."""
    den = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (den // w.denominator) for w in weights], den


def _reciprocal_weights(n: int, a: LogSeries | None = None) -> ScaledWeights:
    """The weights a(k)/k for k = 1..n over den = lcm(1..n), built without Fractions.

    Without `a` the weights are 1/k, and the result equals _scale_weights
    of them.  With `a` the denominator is not reduced, which leaves every
    row sum's value unchanged.
    """
    den = math.lcm(*range(1, n + 1))
    if a is None:
        return [den // k for k in range(1, n + 1)], den
    return [a.coeff_a(k) * (den // k) for k in range(1, n + 1)], den


def _row_sum(row: Sequence[int], scaled: ScaledWeights) -> Fraction:
    """Exact sum of row[k-1] * w(k) over k = 1..min(len(row), len(ints)).

    `scaled` is (ints, den) from _scale_weights or _reciprocal_weights,
    with w(k) = ints[k-1] / den, so the terms add as integers and one
    Fraction is built per row.  Fewer weights than row entries drop the
    trailing terms.
    """
    ints, den = scaled
    return Fraction(sum(map(mul, row, ints)), den)


class LogSuperposition(Value):
    """g, n*g(n) and h for G = ln(1/(1-F)) and H = 1/(1-F).

    ng[i] = (i+1) * g(i+1) as exact integers; h[i] = h(i+1) is the
    row sum of the compositae triangle.
    """

    __slots__ = ("order", "g", "ng", "h")
    order: int
    g: RatSeries
    ng: tuple[int, ...]
    h: tuple[int, ...]

    def __init__(self, order: int, g: RatSeries, ng: tuple[int, ...], h: tuple[int, ...]) -> None:
        set_field(self, "order", order)
        set_field(self, "g", g)
        set_field(self, "ng", ng)
        set_field(self, "h", h)

    def ng_at(self, n: int) -> int:
        if not (1 <= n <= self.order):
            raise IndexError(f"n={n} outside 1..{self.order}")
        return self.ng[n - 1]

    def h_at(self, n: int) -> int:
        if not (1 <= n <= self.order):
            raise IndexError(f"n={n} outside 1..{self.order}")
        return self.h[n - 1]


def superpose(r: RatSeries, f: IntSeries, order: int) -> RatSeries:
    """Z = R(F) up to `order` via the compositae of f.

    r's constant term passes through additively: z(0) = r(0).
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if r.order < order or f.order < order:
        raise ValueError(
            f"order {order} exceeds an input order (r: {r.order}, f: {f.order})"
        )
    tab = compositae_dp(f, order)
    weights = _scale_weights([r.coeff(k) for k in range(1, order + 1)])
    coeffs = {n: _row_sum(tab.row(n), weights) for n in range(1, order + 1)}
    return RatSeries(order, {0: r.coeff(0)} | coeffs)


def _n_times_row_sums(what: str, tab: CompositaeTable, weights: ScaledWeights) -> tuple[int, ...]:
    """n * _row_sum(row n, weights) for every row n of `tab`, each checked integral."""
    return tuple(
        _integral(what, n, n * _row_sum(row, weights))
        for n, row in enumerate(tab.rows, start=1)
    )


def log_superposition(f: IntSeries, order: int) -> LogSuperposition:
    """G = ln(1/(1-F)) coefficients g(n), their integer scalings, and h(n).

    n*g(n) is theorem_sum's value: n times the row sum over the weights
    1/k, one integer dot product per row of a single compositae table.
    It must be integral; a failure raises IntegralityError and indicates
    an arithmetic bug, not a property of f.  g(n) is n*g(n) / n and h(n)
    is the row sum.
    """
    tab = compositae_dp(f, order)
    ng = _n_times_row_sums("n*g(n)", tab, _reciprocal_weights(order))
    return LogSuperposition(
        order=order,
        g=RatSeries(order, {n: Fraction(ngn, n) for n, ngn in enumerate(ng, start=1)}),
        ng=ng,
        h=tuple(sum(row) for row in tab.rows),
    )


def _h_and_ng(f: IntSeries, order: int, mod: int | None = None) -> tuple[list[int], list[int]]:
    """(h, ng) with h[n] = h(n) and ng[n] = n*g(n) for n = 0..order.

    h(0) = 1 and ng(0) = 0; for n >= 1, h(n) = sum_{m<=n} f(m) h(n-m) and
    ng(n) = sum_{m<=n} m f(m) h(n-m), the coefficients of H = 1/(1-F)
    and of x G' = x F' H.  Each step walks only the sorted support of f.
    With `mod` (at least 2) every value is reduced, so the lists hold
    ints below mod; without it they are the exact integers.  The caller
    checks that order <= f.order.
    """
    support = [(m, c) for m, c in sorted(f.coeffs.items()) if m <= order]
    h = [1]
    ng = [0]
    for n in range(1, order + 1):
        hn = ngn = 0
        for m, c in support:
            if m > n:
                break
            term = c * h[n - m]
            hn += term
            ngn += m * term
        if mod is not None:
            hn %= mod
            ngn %= mod
        h.append(hn)
        ng.append(ngn)
    return h, ng


def _row(f: IntSeries, n: int, table: CompositaeTable | None) -> tuple[int, ...]:
    """Row n of `table`, or of compositae_dp(f, n) when no table is given."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > f.order:
        raise ValueError(f"n={n} exceeds series order {f.order}")
    if table is None:
        return compositae_dp(f, n).row(n)
    if table.order < n:
        raise ValueError(f"supplied table order {table.order} < required {n}")
    return table.row(n)


def theorem_sum(f: IntSeries, n: int, *, table: CompositaeTable | None = None) -> Fraction:
    """Exact value of sum_{k=1}^{n} (n/k) * F_delta(n, k) = n * g(n).

    Integral for every integer series f; returned as a Fraction so the
    caller can check that fact rather than trust it.
    """
    return n * _row_sum(_row(f, n, table), _reciprocal_weights(n))


def corollary_sum(f: IntSeries, n: int, *, table: CompositaeTable | None = None) -> Fraction:
    """Exact value of sum_{k=1}^{n-1} F_delta(n, k) / k.

    Integral whenever n is prime; for composite n it may or may not be,
    so the exact rational is returned for the caller to inspect.  n = 1
    gives the empty sum 0.
    """
    return _row_sum(_row(f, n, table), _reciprocal_weights(n - 1))


def statement21_check(f: IntSeries, a: LogSeries, order: int) -> list[int]:
    """Derivative-superposition values zdot(n) = sum_k (n/k) F_delta(n,k) a(k), n = 1..order.

    zdot(n) is n*z(n) for Z = superpose(A, F) with A = sum a(k)/k x^k,
    and n*g(n) when a = 1; it is computed as log_superposition computes
    n*g(n), over the weights a(k)/k.  Every value must be integral for
    integer f and a; a fractional one raises IntegralityError, since it
    would falsify that property.
    """
    if f.order < order or a.order < order:
        raise ValueError(f"order {order} exceeds an input order (f: {f.order}, a: {a.order})")
    tab = compositae_dp(f, order)
    weights = _reciprocal_weights(order, a)
    return list(_n_times_row_sums("derivative superposition value", tab, weights))


def statement22_check(f: IntSeries, a: LogSeries, n: int) -> Fraction:
    """Truncated superposition sum_{k=1}^{n-1} (a(k)/k) * F_delta(n, k).

    Integral whenever n is prime; returned exactly with no primality
    requirement so composite n can be probed.
    """
    if a.order < n - 1:
        raise ValueError(f"n={n} exceeds an input order (f: {f.order}, a: {a.order})")
    return _row_sum(_row(f, n, None), _reciprocal_weights(n - 1, a))
