"""Exact truncated power series over arbitrary-precision coefficients.

Conventions:
  - IntSeries holds sum_{n>=1} f(n) x^n with integer coefficients and no
    constant term; valid indices are 1..order.
  - RatSeries holds sum_{n>=0} c(n) x^n with Fraction coefficients;
    valid indices are 0..order.
  - LogSeries holds an integer sequence a(n), n>=1, and materializes to
    the rational series with c(n) = a(n)/n and c(0) = 0.
  - Storage is sparse: an absent index means coefficient 0.
  - Truncation order is explicit state.

Rationals are stdlib fractions.Fraction, which already guarantees the
invariants we need (always reduced, positive denominator, arbitrary
precision).  Series values are immutable after construction, so they
are safe to share between threads.  The series algebra (sums, products,
derivatives, composition) is not needed on the production route, which
goes through the compositae triangle; the tests keep it as an oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from types import MappingProxyType

from ._value import Value, set_field

RationalLike = int | Fraction

# Default coefficients: read-only, and never stored, since every series
# copies its coefficients into a fresh dict.
_NO_COEFFS: Mapping = MappingProxyType({})


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


class IntSeries(Value):
    """Integer-coefficient series sum_{n>=1} f(n) x^n truncated at `order`.

    No constant term by construction: index 0 is not representable.
    """

    __slots__ = ("order", "coeffs")
    order: int
    coeffs: dict[int, int]

    def __init__(self, order: int, coeffs: Mapping[int, int] = _NO_COEFFS) -> None:
        if order < 1:
            raise ValueError("IntSeries order must be a positive integer")
        set_field(self, "order", order)
        set_field(self, "coeffs", _normalize_int_coeffs(coeffs, order, 1))

    @classmethod
    def from_values(cls, values: Iterable[int], order: int | None = None) -> IntSeries:
        """Build from a 1-based coefficient list: values[i] is f(i+1)."""
        vals = list(values)
        n = order if order is not None else len(vals)
        return cls(n, {i + 1: v for i, v in enumerate(vals[:n])})

    def coeff(self, n: int) -> int:
        if n < 1 or n > self.order:
            raise IndexError(f"index {n} outside 1..{self.order}")
        return self.coeffs.get(n, 0)

    def to_rat(self) -> RatSeries:
        return RatSeries(self.order, {n: Fraction(c) for n, c in self.coeffs.items()})


class RatSeries(Value):
    """Rational-coefficient series sum_{n>=0} c(n) x^n truncated at `order`."""

    __slots__ = ("order", "coeffs")
    order: int
    coeffs: dict[int, Fraction]

    def __init__(self, order: int, coeffs: Mapping[int, RationalLike] = _NO_COEFFS) -> None:
        if order < 0:
            raise ValueError("RatSeries order must be >= 0")
        out: dict[int, Fraction] = {}
        for idx, value in coeffs.items():
            if not isinstance(idx, int) or idx < 0 or idx > order:
                raise ValueError(f"coefficient index {idx!r} outside [0, {order}]")
            q = Fraction(value)
            if q != 0:
                out[idx] = q
        set_field(self, "order", order)
        set_field(self, "coeffs", out)

    def coeff(self, n: int) -> Fraction:
        if n < 0 or n > self.order:
            raise IndexError(f"index {n} outside 0..{self.order}")
        return self.coeffs.get(n, Fraction(0))


class LogSeries(Value):
    """Integer sequence a(n), n>=1, denoting the series sum a(n)/n x^n."""

    __slots__ = ("order", "a")
    order: int
    a: dict[int, int]

    def __init__(self, order: int, a: Mapping[int, int] = _NO_COEFFS) -> None:
        if order < 1:
            raise ValueError("LogSeries order must be a positive integer")
        set_field(self, "order", order)
        set_field(self, "a", _normalize_int_coeffs(a, order, 1))

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
