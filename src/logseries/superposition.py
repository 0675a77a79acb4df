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
r(k) for z(n), 1/k for g(n) and the theorem sum n*g(n), and the weight
list stops at k = n - 1 for the sums that drop the k = n term.  Each
call scales its weights once to integers over a common denominator D,
w(k) = W(k)/D, so a row sum is one integer dot product and one Fraction:

    sum_k F_delta(n, k) w(k) = (sum_k F_delta(n, k) W(k)) / D.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from ._value import Value, set_field
from .compositae import CompositaeTable, compositae_dp
from .series import (
    IntSeries,
    LogSeries,
    RatSeries,
    geometric_inverse,
    series_add,
    series_derivative,
    series_mul,
)


class IntegralityError(ArithmeticError):
    """A quantity that must be an exact integer came out fractional.

    Raised only when an arithmetic invariant is violated, so any
    occurrence signals a bug in the caller's inputs or in this package,
    never a property of the mathematical objects themselves.
    """


def _require_table(f: IntSeries, order: int, table: CompositaeTable | None) -> CompositaeTable:
    if table is None:
        return compositae_dp(f, order)
    if table.order < order:
        raise ValueError(f"supplied table order {table.order} < required {order}")
    return table


ScaledWeights = tuple[list[int], int]


def _scale_weights(weights: Sequence[Fraction]) -> ScaledWeights:
    """(ints, den) with weights[i] == ints[i] / den and den the lcm of the denominators."""
    den = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (den // w.denominator) for w in weights], den


def _reciprocal_weights(n: int) -> ScaledWeights:
    """_scale_weights of the weights 1/k for k = 1..n, built without Fractions."""
    den = math.lcm(*range(1, n + 1))
    return [den // k for k in range(1, n + 1)], den


def _row_sum(row: Sequence[int], scaled: ScaledWeights) -> Fraction:
    """Exact sum of row[k-1] * w(k) over k = 1..min(len(row), len(ints)).

    `scaled` is (ints, den) from _scale_weights, with w(k) = ints[k-1] / den,
    so the terms add as integers and one Fraction is built per row.
    Fewer weights than row entries drop the trailing terms.
    """
    ints, den = scaled
    return Fraction(sum(map(mul, row, ints)), den)


class SuperpositionResult(Value):
    """Coefficients of Z = R(F) plus the scaled sequence n*z(n).

    n_times_z[i] holds (i+1) * z(i+1).
    """

    __slots__ = ("z", "n_times_z")
    z: RatSeries
    n_times_z: tuple[Fraction, ...]

    def __init__(self, z: RatSeries, n_times_z: tuple[Fraction, ...]) -> None:
        set_field(self, "z", z)
        set_field(self, "n_times_z", n_times_z)

    @property
    def order(self) -> int:
        return self.z.order


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


def superpose(
    r: RatSeries,
    f: IntSeries,
    order: int,
    *,
    table: CompositaeTable | None = None,
) -> SuperpositionResult:
    """Z = R(F) up to `order` via the compositae of f.

    r's constant term passes through additively: z(0) = r(0).
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if r.order < order or f.order < order:
        raise ValueError(
            f"order {order} exceeds an input order (r: {r.order}, f: {f.order})"
        )
    tab = _require_table(f, order, table)
    weights = _scale_weights([r.coeff(k) for k in range(1, order + 1)])
    coeffs = {n: _row_sum(tab.row(n), weights) for n in range(1, order + 1)}
    z = RatSeries(order, {0: r.coeff(0)} | coeffs)
    n_times_z = tuple(n * z.coeff(n) for n in range(1, order + 1))
    return SuperpositionResult(z=z, n_times_z=n_times_z)


def compose_truncated(r: RatSeries, f: IntSeries, order: int) -> RatSeries:
    """Direct functional composition R(F) by Horner evaluation.

    Cross-check route for superpose(): substitutes f into r from the
    highest power down, using only truncated add/mul.  Valid because f
    has no constant term, so powers f^k with k > order cannot reach
    coefficients <= order.
    """
    if r.order < order or f.order < order:
        raise ValueError(
            f"order {order} exceeds an input order (r: {r.order}, f: {f.order})"
        )
    frat = f.to_rat().truncated(order)
    top = min(r.order, order)
    acc = RatSeries.constant(r.coeff(top), order)
    for k in range(top - 1, -1, -1):
        acc = series_add(series_mul(acc, frat), RatSeries.constant(r.coeff(k), order))
    return acc


def log_superposition(f: IntSeries, order: int) -> LogSuperposition:
    """G = ln(1/(1-F)) coefficients g(n), their integer scalings, and h(n).

    g is superpose() with r(k) = 1/k, and n*g(n) is then asserted
    integral; a failure raises IntegralityError and indicates an
    arithmetic bug, not a property of f.
    """
    tab = compositae_dp(f, order)
    result = superpose(LogSeries.ones(order).to_rat(), f, order, table=tab)
    for n, ngn in enumerate(result.n_times_z, start=1):
        if ngn.denominator != 1:
            raise IntegralityError(
                f"n*g(n) must be integral but n={n} gave {ngn}; "
                "this signals a defect in the compositae arithmetic"
            )
    return LogSuperposition(
        order=order,
        g=result.z,
        ng=tuple(int(ngn) for ngn in result.n_times_z),
        h=tuple(sum(row) for row in tab.rows),
    )


def _check_n(f: IntSeries, n: int) -> None:
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > f.order:
        raise ValueError(f"n={n} exceeds series order {f.order}")


def theorem_sum(f: IntSeries, n: int, *, table: CompositaeTable | None = None) -> Fraction:
    """Exact value of sum_{k=1}^{n} (n/k) * F_delta(n, k) = n * g(n).

    Integral for every integer series f; returned as a Fraction so the
    caller can check that fact rather than trust it.
    """
    _check_n(f, n)
    return n * _row_sum(_require_table(f, n, table).row(n), _reciprocal_weights(n))


def corollary_sum(f: IntSeries, n: int, *, table: CompositaeTable | None = None) -> Fraction:
    """Exact value of sum_{k=1}^{n-1} F_delta(n, k) / k.

    Integral whenever n is prime; for composite n it may or may not be,
    so the exact rational is returned for the caller to inspect.  n = 1
    gives the empty sum 0.
    """
    _check_n(f, n)
    return _row_sum(_require_table(f, n, table).row(n), _reciprocal_weights(n - 1))


def statement21_check(f: IntSeries, a: LogSeries, order: int) -> list[Fraction]:
    """Derivative-superposition values zdot(n) = sum_k (n/k) F_delta(n,k) a(k).

    zdot(n) is n*z(n) for Z = superpose(A, F) with A = sum a(k)/k x^k.
    Every entry must be integral for integer f and a; a non-integral
    entry raises IntegralityError since it would falsify that property.
    """
    values = list(superpose(a.to_rat(), f, order).n_times_z)
    for n, zdot in enumerate(values, start=1):
        if zdot.denominator != 1:
            raise IntegralityError(
                f"derivative superposition value at n={n} is {zdot}, not an integer; "
                "this would falsify the integrality property"
            )
    return values


def statement22_check(f: IntSeries, a: LogSeries, n: int) -> Fraction:
    """Truncated superposition sum_{k=1}^{n-1} (a(k)/k) * F_delta(n, k).

    Integral whenever n is prime; returned exactly with no primality
    requirement so composite n can be probed.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if f.order < n or a.order < n - 1:
        raise ValueError(f"n={n} exceeds an input order (f: {f.order}, a: {a.order})")
    weights = _scale_weights([Fraction(a.coeff_a(k), k) for k in range(1, n)])
    return _row_sum(compositae_dp(f, n).row(n), weights)


def derivative_identity_residual(f: IntSeries) -> RatSeries:
    """F'/(1-F) minus G' as a series; identically zero up to truncation.

    Exposes the product-of-series route to n*g(n): the coefficient of
    x^{n-1} in F'(x) * H(x) equals n*g(n).  Useful as an independent
    integer-arithmetic check on log_superposition.
    """
    frat = f.to_rat()
    lhs = series_mul(series_derivative(frat), geometric_inverse(f))
    g = log_superposition(f, f.order).g
    rhs = series_derivative(g)
    return series_add(lhs, RatSeries(rhs.order, {n: -c for n, c in rhs.coeffs.items()}))
