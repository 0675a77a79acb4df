"""Exact truncated power series over arbitrary-precision coefficients.

Conventions:
  - IntSeries holds sum_{n>=1} f(n) x^n with integer coefficients and no
    constant term; valid indices are 1..order.
  - RatSeries holds sum_{n>=0} c(n) x^n with Fraction coefficients;
    valid indices are 0..order.
  - LogSeries holds an integer sequence a(n), n>=1, and materializes to
    the rational series with c(n) = a(n)/n and c(0) = 0.
  - Storage is sparse: an absent index means coefficient 0.
  - Truncation order is explicit state; binary operations truncate the
    result to the smaller of the two orders.

Rationals are stdlib fractions.Fraction, which already guarantees the
invariants we need (always reduced, positive denominator, arbitrary
precision).  Series values are immutable after construction; operations
are pure functions safe to call from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

RationalLike = int | Fraction


def is_integral(q: Fraction) -> bool:
    """True when q is an exact integer (denominator 1)."""
    return q.denominator == 1


def _normalize_int_coeffs(coeffs: Mapping[int, int], order: int, min_index: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for idx, value in coeffs.items():
        if not isinstance(idx, int) or idx < min_index or idx > order:
            raise ValueError(f"coefficient index {idx!r} outside [{min_index}, {order}]")
        if not isinstance(value, int):
            raise TypeError(f"coefficient at index {idx} is not an integer: {value!r}")
        if value != 0:
            out[idx] = int(value)
    return out


@dataclass(frozen=True, eq=True)
class IntSeries:
    """Integer-coefficient series sum_{n>=1} f(n) x^n truncated at `order`.

    No constant term by construction: index 0 is not representable.
    """

    order: int
    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("IntSeries order must be a positive integer")
        object.__setattr__(self, "coeffs", _normalize_int_coeffs(self.coeffs, self.order, 1))

    @classmethod
    def from_values(cls, values: Iterable[int], order: int | None = None) -> IntSeries:
        """Build from a 1-based coefficient list: values[i] is f(i+1)."""
        vals = list(values)
        n = order if order is not None else len(vals)
        return cls(n, {i + 1: v for i, v in enumerate(vals[:n])})

    @classmethod
    def x(cls, order: int) -> IntSeries:
        return cls(order, {1: 1})

    @classmethod
    def zero(cls, order: int) -> IntSeries:
        return cls(order, {})

    def coeff(self, n: int) -> int:
        if n < 1 or n > self.order:
            raise IndexError(f"index {n} outside 1..{self.order}")
        return self.coeffs.get(n, 0)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices with nonzero coefficient, ascending."""
        return tuple(sorted(self.coeffs))

    def to_rat(self) -> RatSeries:
        return RatSeries(self.order, {n: Fraction(c) for n, c in self.coeffs.items()})

    def truncated(self, order: int) -> IntSeries:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return IntSeries(order, {n: c for n, c in self.coeffs.items() if n <= order})


@dataclass(frozen=True, eq=True)
class RatSeries:
    """Rational-coefficient series sum_{n>=0} c(n) x^n truncated at `order`."""

    order: int
    coeffs: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("RatSeries order must be >= 0")
        out: dict[int, Fraction] = {}
        for idx, value in self.coeffs.items():
            if not isinstance(idx, int) or idx < 0 or idx > self.order:
                raise ValueError(f"coefficient index {idx!r} outside [0, {self.order}]")
            q = Fraction(value)
            if q != 0:
                out[idx] = q
        object.__setattr__(self, "coeffs", out)

    @classmethod
    def from_values(cls, values: Iterable[RationalLike], order: int | None = None) -> RatSeries:
        """Build from a 0-based coefficient list: values[i] is c(i)."""
        vals = [Fraction(v) for v in values]
        n = order if order is not None else len(vals) - 1
        return cls(n, {i: v for i, v in enumerate(vals[: n + 1])})

    @classmethod
    def constant(cls, value: RationalLike, order: int) -> RatSeries:
        return cls(order, {0: Fraction(value)})

    @classmethod
    def one(cls, order: int) -> RatSeries:
        return cls.constant(1, order)

    @classmethod
    def zero(cls, order: int) -> RatSeries:
        return cls(order, {})

    def coeff(self, n: int) -> Fraction:
        if n < 0 or n > self.order:
            raise IndexError(f"index {n} outside 0..{self.order}")
        return self.coeffs.get(n, Fraction(0))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def is_integer_valued(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def truncated(self, order: int) -> RatSeries:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return RatSeries(order, {n: c for n, c in self.coeffs.items() if n <= order})


@dataclass(frozen=True, eq=True)
class LogSeries:
    """Integer sequence a(n), n>=1, denoting the series sum a(n)/n x^n."""

    order: int
    a: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("LogSeries order must be a positive integer")
        object.__setattr__(self, "a", _normalize_int_coeffs(self.a, self.order, 1))

    @classmethod
    def from_values(cls, values: Iterable[int], order: int | None = None) -> LogSeries:
        vals = list(values)
        n = order if order is not None else len(vals)
        return cls(n, {i + 1: v for i, v in enumerate(vals[:n])})

    @classmethod
    def ones(cls, order: int) -> LogSeries:
        return cls(order, {n: 1 for n in range(1, order + 1)})

    def coeff_a(self, n: int) -> int:
        if n < 1 or n > self.order:
            raise IndexError(f"index {n} outside 1..{self.order}")
        return self.a.get(n, 0)

    def to_rat(self) -> RatSeries:
        """Materialize to the rational series c(n) = a(n)/n, c(0) = 0."""
        return RatSeries(self.order, {n: Fraction(v, n) for n, v in self.a.items()})


def series_add(p: RatSeries, q: RatSeries) -> RatSeries:
    """Coefficient-wise exact sum, truncated to min(orders)."""
    order = min(p.order, q.order)
    coeffs: dict[int, Fraction] = {n: c for n, c in p.coeffs.items() if n <= order}
    for n, c in q.coeffs.items():
        if n <= order:
            coeffs[n] = coeffs.get(n, Fraction(0)) + c
    return RatSeries(order, coeffs)


def series_mul(p: RatSeries, q: RatSeries) -> RatSeries:
    """Exact Cauchy product, truncated to min(orders)."""
    order = min(p.order, q.order)
    coeffs: dict[int, Fraction] = {}
    for i, ci in p.coeffs.items():
        if i > order:
            continue
        for j, cj in q.coeffs.items():
            n = i + j
            if n > order:
                continue
            coeffs[n] = coeffs.get(n, Fraction(0)) + ci * cj
    return RatSeries(order, coeffs)


def series_derivative(p: RatSeries) -> RatSeries:
    """Formal derivative: coefficient n-1 of the result is n*c(n).

    The result order drops by one, so an order-0 series has no valid
    derivative truncation and is rejected.
    """
    if p.order == 0:
        raise ValueError("derivative of an order-0 series has no representable truncation")
    return RatSeries(p.order - 1, {n - 1: n * c for n, c in p.coeffs.items() if n >= 1})


def geometric_inverse(f: IntSeries) -> RatSeries:
    """H(x) = 1/(1 - F(x)) for an integer series F with no constant term.

    h(0) = 1 and h(n) = sum_m f(m) h(n-m); every coefficient is an
    integer, returned exactly inside a RatSeries.
    """
    order = f.order
    h = [0] * (order + 1)
    h[0] = 1
    support = sorted(f.coeffs.items())
    for n in range(1, order + 1):
        acc = 0
        for m, fm in support:
            if m > n:
                break
            acc += fm * h[n - m]
        h[n] = acc
    return RatSeries(order, {n: Fraction(v) for n, v in enumerate(h)})
