"""Superposition, log-superposition, and the integrality sums.

Expected values marked by hand or oracle were computed by definitional
composition enumeration (see compositae_bruteforce) or direct modular
arithmetic, never by the code paths under test.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logseries import (
    IntSeries,
    IntegralityError,
    RatSeries,
    compositae_dp,
    corollary_sum,
    log_superposition,
    scan_pseudoprimes,
    statement21_check,
    statement22_check,
    superpose,
    superposition,
    theorem_sum,
    witness_generic,
)
from logseries.compositae import _h_and_ng
from logseries.superposition import _reciprocal_weights, _row_sum, _scale_weights
from compositae_oracles import compositae_bruteforce
from series_oracles import (
    compose_truncated,
    derivative_identity_residual,
    geometric_inverse,
    log_series,
    series_derivative,
    series_mul,
)

LUCAS_17 = [1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322, 521, 843, 1364, 2207, 3571]
CATALAN_NG_10 = [1, 3, 10, 35, 126, 462, 1716, 6435, 24310, 92378]


def ones(order):
    return IntSeries(order, {i: 1 for i in range(1, order + 1)})


def catalan_shifted(order):
    return IntSeries(order, {n: math.comb(2 * (n - 1), n - 1) // n for n in range(1, order + 1)})


FIB_GF_17 = IntSeries(17, {1: 1, 2: 1})
PRIMES1_6 = IntSeries.from_values([1, 2, 3, 5, 7, 11])


@st.composite
def int_series(draw, min_order=1, max_order=10, lo=-9, hi=9):
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    coeffs = draw(
        st.dictionaries(st.integers(1, order), st.integers(lo, hi), max_size=order)
    )
    return IntSeries(order, coeffs)


@st.composite
def series_and_log_weights(draw):
    """(f, a) of one order <= 9: signed coefficients, f(1) = 0 half the time, a with zeros."""
    order = draw(st.integers(min_value=1, max_value=9))
    f_vals = draw(st.lists(st.integers(-9, 9), min_size=order, max_size=order))
    if draw(st.booleans()):
        f_vals[0] = 0
    a_vals = draw(st.lists(st.just(0) | st.integers(-50, 50), min_size=order, max_size=order))
    return IntSeries.from_values(f_vals), IntSeries(order, dict(enumerate(a_vals, start=1)))


# ---------------------------------------------------------------------------
# _row_sum, the kernel behind every weighted row sum


@settings(max_examples=200)
@given(
    st.lists(st.integers(-(10**30), 10**30) | st.just(0), max_size=12),
    st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=60) | st.just(Fraction(0)),
        max_size=12,
    ),
)
def test_row_sum_matches_per_term_fraction_sum(row, weights):
    # oracle: one Fraction per term, summed, over the shorter of the two lists
    n = min(len(row), len(weights))
    per_term = sum(
        (row[k - 1] * weights[k - 1] for k in range(1, n + 1) if row[k - 1]), Fraction(0)
    )
    assert _row_sum(row, _scale_weights(weights)) == per_term


def test_row_sum_edge_cases():
    assert _row_sum((5, 7), _scale_weights([])) == 0
    assert _row_sum((), _scale_weights([Fraction(1, 2)])) == 0
    assert _row_sum((0, 0, 3), _scale_weights([Fraction(1, 3)] * 3)) == 1
    assert _row_sum((-4, 6, 9), _scale_weights([Fraction(1, 2), Fraction(-1, 3)])) == -4
    assert _row_sum((2, 9), _scale_weights([Fraction(1, 4), Fraction(1, 4)])) == Fraction(11, 4)


def test_reciprocal_weights_scale_one_over_k():
    a = IntSeries(39, {k: (-1) ** k * (k % 4) for k in range(1, 40)})  # signed, with zeros
    for n in range(0, 40):
        assert _reciprocal_weights(n) == _scale_weights([Fraction(1, k) for k in range(1, n + 1)])
        ints, den = _reciprocal_weights(n, a)
        assert [Fraction(w, den) for w in ints] == [
            Fraction(a.coeff(k), k) for k in range(1, n + 1)
        ]


# ---------------------------------------------------------------------------
# superpose


def test_superpose_geometric():
    # R = 1/(1-y) composed with F = x gives 1/(1-x)
    r = RatSeries(6, {k: Fraction(1) for k in range(7)})
    z = superpose(r, IntSeries(6, {1: 1}), 6)
    assert z == RatSeries(6, {n: Fraction(1) for n in range(7)})


def test_superpose_log_series_of_ones():
    r = log_series(ones(3))
    z = superpose(r, ones(3), 3)
    assert z.coeff(3) == Fraction(7, 3)  # (2^3 - 1) / 3


def test_superpose_zero_outer_series():
    z = superpose(RatSeries(5, {}), ones(5), 5)
    assert z == RatSeries(5, {})


def test_superpose_constant_term_passthrough():
    r = RatSeries(3, {0: Fraction(9), 1: Fraction(1)})
    z = superpose(r, IntSeries(3, {1: 1}), 3)
    assert z.coeff(0) == 9


def test_superpose_order_precondition():
    with pytest.raises(ValueError):
        superpose(RatSeries(3, {0: 1}), IntSeries(5, {1: 1}), 5)


@settings(max_examples=60)
@given(int_series(max_order=15), st.data())
def test_superpose_matches_horner_composition(f, data):
    order = data.draw(st.integers(min_value=1, max_value=f.order))
    r_coeffs = data.draw(
        st.dictionaries(
            st.integers(0, order),
            st.fractions(min_value=-8, max_value=8, max_denominator=10),
            max_size=order + 1,
        )
    )
    r = RatSeries(order, r_coeffs)
    via_compositae = superpose(r, f, order)
    via_horner = compose_truncated(r, f, order)
    assert via_compositae == via_horner


# ---------------------------------------------------------------------------
# log_superposition


def test_log_superposition_fib_gf_gives_lucas_numbers():
    ls = log_superposition(FIB_GF_17, 17)
    assert list(ls.ng) == LUCAS_17


def test_log_superposition_shifted_catalan():
    ls = log_superposition(catalan_shifted(10), 10)
    assert list(ls.ng) == CATALAN_NG_10


def test_log_superposition_of_x():
    ls = log_superposition(IntSeries(9, {1: 1}), 9)
    assert list(ls.ng) == [1] * 9
    assert ls.g[4 - 1] == Fraction(1, 4)


def test_log_superposition_h_matches_geometric_inverse():
    f = IntSeries.from_values([2, -1, 3, 0, 1])
    ls = log_superposition(f, 5)
    h = geometric_inverse(f)
    assert list(ls.h) == [h.coeff(n) for n in range(1, 6)]


@settings(max_examples=60, deadline=None)
@given(int_series(max_order=40, lo=-99, hi=99))
def test_log_superposition_g_ng_and_h_are_tuples_indexed_alike(f):
    ls = log_superposition(f, f.order)
    assert type(ls.g) is type(ls.ng) is type(ls.h) is tuple
    assert len(ls.g) == len(ls.ng) == len(ls.h) == f.order
    for i, gi in enumerate(ls.g):
        assert type(gi) is Fraction and gi == Fraction(ls.ng[i], i + 1)


def test_log_superposition_accessors():
    ls = log_superposition(FIB_GF_17, 5)
    assert ls.ng[5 - 1] == 11
    assert ls.h[5 - 1] == 8


# ---------------------------------------------------------------------------
# theorem_sum


def test_theorem_sum_primes1_is_380():
    assert theorem_sum(PRIMES1_6, 6) == 380


def test_theorem_sum_ones_is_mersenne():
    f = ones(16)
    for n in range(1, 17):
        assert theorem_sum(f, n) == 2**n - 1


def test_theorem_sum_all_minus_one():
    # oracle: sum_k (4/k) * sum over compositions of (-1)^k = -1
    f = IntSeries(4, {i: -1 for i in range(1, 5)})
    value = theorem_sum(f, 4)
    assert value == -1
    oracle = sum(
        Fraction(4, k) * compositae_bruteforce(f, 4, k) for k in range(1, 5)
    )
    assert value == oracle


def test_theorem_sum_equals_n_g_n():
    f = IntSeries.from_values([3, -2, 0, 5, 1, -4])
    ls = log_superposition(f, 6)
    for n in range(1, 7):
        assert theorem_sum(f, n) == ls.ng[n - 1] == n * ls.g[n - 1]


def test_theorem_sum_bounds():
    with pytest.raises(ValueError):
        theorem_sum(ones(4), 5)
    with pytest.raises(ValueError):
        theorem_sum(ones(4), 0)


@settings(max_examples=60)
@given(int_series(lo=-99, hi=99), st.data())
def test_theorem_sum_always_integral(f, data):
    n = data.draw(st.integers(min_value=1, max_value=f.order))
    assert theorem_sum(f, n).denominator == 1


# ---------------------------------------------------------------------------
# corollary_sum


def test_corollary_sum_ones_n5():
    assert corollary_sum(ones(5), 5) == Fraction(2**5 - 2, 5) == 6


def test_corollary_sum_empty_at_n1():
    assert corollary_sum(IntSeries.from_values([7, 8]), 1) == 0


@pytest.mark.parametrize("a", [(1, 1, 1, 1, 1), (2, -3, 5, 7, -11), (0, 4, 0, -6, 9)])
def test_corollary_sum_symbolic_expansion_n5(a):
    # truncated sum at prime 5 collapses to an integer polynomial in the a_i
    a1, a2, a3, a4, a5 = a
    f = IntSeries.from_values(list(a))
    expected = a5 + a1 * a4 + a2 * a3 + a1 * a1 * a3 + a2 * a2 * a1 + a1 * a1 * a1 * a2
    assert corollary_sum(f, 5) == expected


@settings(max_examples=60)
@given(int_series(lo=-99, hi=99), st.data())
def test_theorem_corollary_consistency(f, data):
    # n*g(n) differs from n*corollary by exactly the k=n term f(1)^n
    n = data.draw(st.integers(min_value=1, max_value=f.order))
    assert theorem_sum(f, n) == n * corollary_sum(f, n) + f.coeffs.get(1, 0) ** n


# ---------------------------------------------------------------------------
# statement checks


def test_statement21_with_unit_sequence_reduces_to_theorem_sum():
    f = IntSeries.from_values([2, 0, -1, 3, 5])
    values = statement21_check(f, ones(5), 5)
    assert values == [theorem_sum(f, n) for n in range(1, 6)]


def test_statement21_with_f_x_returns_a():
    a = IntSeries(5, {1: 4, 2: -7, 4: 2, 5: 9})
    assert statement21_check(IntSeries(5, {1: 1}), a, 5) == [4, -7, 0, 2, 9]


def test_statement21_fib_gf_frozen_oracle_values():
    # oracle: zdot(n) = sum_k (n/k) F_delta(n,k) a(k) by brute-force enumeration
    f = IntSeries(5, {1: 1, 2: 1})
    a = IntSeries(5, {1: 1, 2: -2, 3: 3, 4: -4, 5: 5})
    values = statement21_check(f, a, 5)
    assert values == [1, 0, -3, 4, 0]
    oracle = [
        sum(
            Fraction(n, k) * compositae_bruteforce(f, n, k) * a.coeff(k)
            for k in range(1, n + 1)
        )
        for n in range(1, 6)
    ]
    assert values == oracle


@settings(max_examples=40)
@given(int_series(max_order=9), st.data())
def test_statement21_always_integral(f, data):
    a_vals = data.draw(
        st.lists(st.integers(-50, 50), min_size=f.order, max_size=f.order)
    )
    values = statement21_check(f, IntSeries(f.order, dict(enumerate(a_vals, start=1))), f.order)
    assert all(v.denominator == 1 for v in values)


@settings(max_examples=60)
@given(series_and_log_weights())
def test_statement21_is_n_times_the_superposed_log_series(fa):
    # oracle: Z = superpose(A, f) with A = sum a(k)/k x^k, through Fraction weights
    f, a = fa
    z = superpose(log_series(a), f, f.order)
    assert statement21_check(f, a, f.order) == [n * z.coeff(n) for n in range(1, f.order + 1)]


@settings(max_examples=60)
@given(series_and_log_weights(), st.data())
def test_statement22_matches_bruteforce_truncated_sum(fa, data):
    f, a = fa
    n = data.draw(st.integers(min_value=1, max_value=f.order))
    oracle = sum(
        (Fraction(a.coeff(k), k) * compositae_bruteforce(f, n, k) for k in range(1, n)),
        Fraction(0),
    )
    assert statement22_check(f, a, n) == oracle


@settings(max_examples=60)
@given(series_and_log_weights(), st.data())
def test_statement22_is_the_superposed_log_series_without_its_k_equals_n_term(fa, data):
    # oracle: z(n) of Z = superpose(A, f), less its k = n term (a(n)/n) F_delta(n, n) = (a(n)/n) f(1)^n
    f, a = fa
    n = data.draw(st.integers(min_value=1, max_value=f.order))
    z = superpose(log_series(a), f, n)
    assert statement22_check(f, a, n) == z.coeff(n) - Fraction(a.coeff(n), n) * f.coeff(1) ** n


def test_statement22_with_unit_sequence_is_corollary_sum():
    f = IntSeries.from_values([3, 1, -2, 0, 4, 1, 2])
    a = ones(7)
    for n in range(1, 8):
        assert statement22_check(f, a, n) == corollary_sum(f, n)


def test_statement22_ones_at_prime_7():
    assert statement22_check(ones(7), ones(7), 7) == 18


def test_statement22_composite_341_is_fermat_pseudoprime_case():
    # 341 = 11 * 31 is composite, yet 2^340 = 1 (mod 341) keeps the sum integral
    assert pow(2, 340, 341) == 1
    value = statement22_check(ones(341), ones(341), 341)
    assert value.denominator == 1
    assert value == Fraction(2**341 - 2, 341)


def test_order_preconditions_raise():
    with pytest.raises(ValueError):
        statement21_check(IntSeries(3, {1: 1}), ones(5), 5)
    with pytest.raises(ValueError):
        statement22_check(IntSeries(3, {1: 1}), ones(5), 4)


# ---------------------------------------------------------------------------
# derivative identity: F'/(1-F) = G'


def test_derivative_identity_named_series():
    for f in (ones(10), IntSeries(10, {1: 1, 2: 1}), catalan_shifted(10)):
        residual = derivative_identity_residual(f)
        assert residual == RatSeries(residual.order, {})


@settings(max_examples=40)
@given(int_series(min_order=2))
def test_derivative_identity_random(f):
    residual = derivative_identity_residual(f)
    assert residual == RatSeries(residual.order, {})


def test_derivative_identity_gives_integer_route_to_ng():
    # coefficient n-1 of F' * H equals n*g(n), all in integer arithmetic
    f = IntSeries.from_values([2, -1, 3, 1, -2, 4, 0, 1])
    product = series_mul(series_derivative(RatSeries(f.order, f.coeffs)), geometric_inverse(f))
    ls = log_superposition(f, 8)
    for n in range(1, 8):
        assert product.coeff(n - 1) == ls.ng[n - 1]


@st.composite
def recurrence_series(draw):
    """Signed f, dense 8-bit of order <= 40 or sparse small of order <= 120, f(1) = 0 half the time.

    Half the sparse draws keep their support below 21, so the stream cuts
    its list of h once the order passes 2d + 64.
    """
    dense = draw(st.booleans())
    order = draw(st.integers(min_value=1, max_value=40 if dense else 120))
    if dense:
        values = draw(st.lists(st.integers(-255, 255), min_size=order, max_size=order))
        coeffs = dict(enumerate(values, start=1))
    else:
        top = draw(st.sampled_from((order, min(order, 20))))
        coeffs = draw(st.dictionaries(st.integers(1, top), st.integers(-2, 2), max_size=4))
    if draw(st.booleans()):
        coeffs[1] = 0
    return IntSeries(order, coeffs)


def streamed(f, order, mod=None):
    """The h and ng lists of one _h_and_ng stream."""
    h, ng = zip(*_h_and_ng(f, order, mod))
    return list(h), list(ng)


@settings(max_examples=60, deadline=None)
@given(recurrence_series())
@example(IntSeries(40, {m: (-1) ** m * m for m in range(2, 41)}))
@example(IntSeries(120, {2: -2, 3: 1, 17: 2}))
def test_h_and_ng_equals_the_dp_route(f):
    h, ng = streamed(f, f.order)
    ls = log_superposition(f, f.order)
    assert (h[0], ng[0]) == (1, 0)
    assert tuple(h[1:]) == ls.h
    assert tuple(ng[1:]) == ls.ng
    for n in range(2, f.order + 1):
        h_mod, ng_mod = streamed(f, n, mod=n)
        assert h_mod == [v % n for v in h[: n + 1]]
        assert ng_mod == [v % n for v in ng[: n + 1]]
        assert ng_mod[n] == theorem_sum(f, n) % n


def test_integrality_error_is_arithmetic_error():
    assert issubclass(IntegralityError, ArithmeticError)


def test_log_superposition_raises_on_a_fractional_ng(monkeypatch):
    # weights 1/2 in place of 1/k: n*g(1) = 1/2 for f = x
    monkeypatch.setattr(superposition, "_reciprocal_weights", lambda n: ([1] * n, 2))
    with pytest.raises(IntegralityError, match=r"n\*g\(n\) came out fractional at n=1: 1/2"):
        log_superposition(IntSeries(3, {1: 1}), 3)


# ---------------------------------------------------------------------------
# argument checks


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: scan_pseudoprimes("fermat2", 2, 10, threads=0), "threads must be >= 1"),
        (
            lambda: theorem_sum(ones(5), 5, table=compositae_dp(ones(5), 4)),
            "supplied table order 4 < required 5",
        ),
        (lambda: witness_generic(ones(5), 1), "witness requires n >= 2"),
        (lambda: compositae_dp(ones(5), 0), "order must be a positive integer"),
        (
            lambda: statement22_check(ones(5), ones(5), 0),
            "n must be a positive integer",
        ),
        (
            lambda: statement21_check(ones(5), ones(4), 5),
            r"order 5 exceeds an input order \(f: 5, a: 4\)",
        ),
        (
            lambda: statement21_check(ones(4), ones(5), 5),
            r"order 5 exceeds an input order \(f: 4, a: 5\)",
        ),
        (
            lambda: statement21_check(ones(5), ones(5), 0),
            "^order must be a positive integer$",
        ),
    ],
)
def test_invalid_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
