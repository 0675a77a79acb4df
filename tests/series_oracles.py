"""Slow, definitional series routes that the tests check the package against.

Each is an independent route to a quantity the package computes through
the compositae triangle: the Cauchy product and Horner composition for
superpose(), 1/(1 - F) for the row sums h(n), and G' = F'/(1 - F) for
n*g(n); the series A = sum a(k)/k x^k of an integer sequence a, the
outer series whose superposition statements 2.1 and 2.2 sum; and trial
division for the primes1 coefficients, which the
package reads off its prime sieve.  None of them is on a production
path, so they live here.
"""

import math
from fractions import Fraction

from logseries import IntSeries, RatSeries, log_superposition


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
    frat = RatSeries(order, {n: c for n, c in f.coeffs.items() if n <= order})
    top = min(r.order, order)
    acc = RatSeries(order, {0: r.coeff(top)})
    for k in range(top - 1, -1, -1):
        acc = series_add(series_mul(acc, frat), RatSeries(order, {0: r.coeff(k)}))
    return acc


def derivative_identity_residual(f: IntSeries) -> RatSeries:
    """F'/(1-F) minus G' as a series; identically zero up to truncation.

    The product-of-series route to n*g(n): the coefficient of x^{n-1} in
    F'(x) * H(x) equals n*g(n), an independent check on log_superposition.
    """
    frat = RatSeries(f.order, f.coeffs)
    lhs = series_mul(series_derivative(frat), geometric_inverse(f))
    g = log_superposition(f, f.order).g
    rhs = series_derivative(RatSeries(f.order, {n: g[n - 1] for n in range(1, f.order + 1)}))
    return series_add(lhs, RatSeries(rhs.order, {n: -c for n, c in rhs.coeffs.items()}))


def log_series(a: IntSeries) -> RatSeries:
    """A = sum_{k>=1} a(k)/k x^k, with A(0) = 0, for the integer sequence a."""
    return RatSeries(a.order, {k: Fraction(v, k) for k, v in a.coeffs.items()})


def primes1_values(order: int) -> list[int]:
    """1, then the first order - 1 primes, by trial division of every candidate."""
    values = [1]
    candidate = 2
    while len(values) < order:
        for d in range(2, math.isqrt(candidate) + 1):
            if candidate % d == 0:
                break
        else:
            values.append(candidate)
        candidate += 1
    return values[:order]


def catalan_shifted_values(order: int) -> list[int]:
    """Catalan(m) = C(2m, m) / (m + 1) for m < order, from math.comb."""
    return [math.comb(2 * m, m) // (m + 1) for m in range(order)]
