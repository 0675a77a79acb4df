"""Unit and property tests for exact truncated series arithmetic."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logseries import IntSeries, RatSeries
from series_oracles import (
    geometric_inverse,
    log_series,
    series_add,
    series_derivative,
    series_mul,
)


def rat(n, d=1):
    return Fraction(n, d)


small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def rat_series(draw, min_order=0, max_order=8):
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    coeffs = draw(
        st.dictionaries(st.integers(0, order), small_fractions, max_size=order + 1)
    )
    return RatSeries(order, coeffs)


@st.composite
def rat_series_pair_equal_order(draw, max_order=8):
    order = draw(st.integers(min_value=1, max_value=max_order))
    def coeffs():
        return st.dictionaries(st.integers(0, order), small_fractions, max_size=order + 1)
    return RatSeries(order, draw(coeffs())), RatSeries(order, draw(coeffs()))


@st.composite
def int_series(draw, min_order=1, max_order=10, lo=-9, hi=9):
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    coeffs = draw(
        st.dictionaries(st.integers(1, order), st.integers(lo, hi), max_size=order)
    )
    return IntSeries(order, coeffs)


# ---------------------------------------------------------------------------
# construction invariants


def test_int_series_rejects_constant_term():
    with pytest.raises(ValueError):
        IntSeries(3, {0: 1})


def test_int_series_rejects_index_beyond_order():
    with pytest.raises(ValueError):
        IntSeries(3, {4: 1})


def test_int_series_rejects_non_integer_coeff():
    with pytest.raises(TypeError):
        IntSeries(3, {1: Fraction(1, 2)})


def test_sparse_zero_dropping_makes_equality_canonical():
    assert IntSeries(5, {2: 0, 3: 7}) == IntSeries(5, {3: 7})
    assert RatSeries(4, {0: Fraction(0), 2: Fraction(1, 3)}) == RatSeries(4, {2: Fraction(1, 3)})


def test_sparse_high_order_is_cheap():
    f = IntSeries(500, {1: 1})
    assert f.coeffs == {1: 1}
    assert f.coeff(500) == 0


def test_coeff_index_bounds():
    f = IntSeries(3, {1: 1})
    with pytest.raises(IndexError):
        f.coeff(0)
    with pytest.raises(IndexError):
        f.coeff(4)
    p = RatSeries(2, {0: 1})
    with pytest.raises(IndexError):
        p.coeff(3)


def test_rat_series_order_zero_allowed_int_series_not():
    assert RatSeries(0, {0: Fraction(5)}).coeff(0) == 5
    with pytest.raises(ValueError):
        IntSeries(0, {})


def test_log_series_materializes_to_a_over_n():
    a = IntSeries(4, {1: 1, 2: -2, 3: 3, 4: -4})
    r = log_series(a)
    assert r.coeff(0) == 0
    assert [r.coeff(n) for n in range(1, 5)] == [rat(1), rat(-1), rat(1), rat(-1)]
    assert log_series(IntSeries(2, {1: 5, 2: 7})).coeff(2) == rat(7, 2)


# ---------------------------------------------------------------------------
# series_add


def test_add_additive_inverse():
    p = RatSeries(2, {1: 1, 2: rat(1, 2)})
    q = RatSeries(2, {1: -1})
    assert series_add(p, q) == RatSeries(2, {2: rat(1, 2)})


def test_add_zero_identity():
    p = RatSeries(2, {0: rat(2, 3), 2: 5})
    assert series_add(p, RatSeries(2, {})) == p


def test_add_exact_rationals():
    p = RatSeries(1, {1: rat(1, 3)})
    q = RatSeries(1, {1: rat(1, 6)})
    assert series_add(p, q) == RatSeries(1, {1: rat(1, 2)})


def test_add_truncates_to_min_order():
    p = RatSeries(5, {5: rat(1)})
    q = RatSeries(2, {1: rat(1)})
    assert series_add(p, q).order == 2


# ---------------------------------------------------------------------------
# series_mul


def test_mul_difference_of_squares():
    p = RatSeries(2, {0: 1, 1: 1})
    q = RatSeries(2, {0: 1, 1: -1})
    assert series_mul(p, q) == RatSeries(2, {0: rat(1), 2: rat(-1)})


def test_mul_one_identity():
    p = RatSeries(3, {0: rat(1, 7), 1: 3, 3: rat(-2, 5)})
    assert series_mul(p, RatSeries(p.order, {0: 1})) == p


def test_mul_hand_expansion():
    p = RatSeries(4, {1: rat(1), 2: rat(1)})
    assert series_mul(p, p) == RatSeries(4, {2: rat(1), 3: rat(2), 4: rat(1)})


# ---------------------------------------------------------------------------
# series_derivative


def test_derivative_of_log_like_series():
    p = RatSeries(5, {n: rat(1, n) for n in range(1, 6)})
    assert series_derivative(p) == RatSeries(4, {i: rat(1) for i in range(5)})


def test_derivative_of_constant_is_zero():
    assert series_derivative(RatSeries(3, {0: 9})) == RatSeries(2, {})


def test_derivative_hand_computation():
    p = RatSeries(2, {1: rat(1), 2: rat(1, 2)})
    assert series_derivative(p) == RatSeries(1, {0: rat(1), 1: rat(1)})


def test_derivative_rejects_order_zero():
    with pytest.raises(ValueError):
        series_derivative(RatSeries(0, {0: 1}))


# ---------------------------------------------------------------------------
# geometric_inverse


def test_geometric_inverse_of_x():
    h = geometric_inverse(IntSeries(5, {1: 1}))
    assert h == RatSeries(5, {n: rat(1) for n in range(6)})


def test_geometric_inverse_fibonacci():
    h = geometric_inverse(IntSeries(5, {1: 1, 2: 1}))
    assert [h.coeff(n) for n in range(6)] == [1, 1, 2, 3, 5, 8]


def test_geometric_inverse_of_zero():
    assert geometric_inverse(IntSeries(4, {})) == RatSeries(4, {0: 1})


@given(int_series())
def test_geometric_inverse_is_integer_valued(f):
    assert all(c.denominator == 1 for c in geometric_inverse(f).coeffs.values())


@given(int_series())
def test_geometric_inverse_times_one_minus_f_is_one(f):
    h = geometric_inverse(f)
    one_minus_f = series_add(
        RatSeries(f.order, {0: 1}),
        RatSeries(f.order, {n: Fraction(-c) for n, c in f.coeffs.items()}),
    )
    assert series_mul(h, one_minus_f) == RatSeries(f.order, {0: 1})


# ---------------------------------------------------------------------------
# properties


@given(rat_series_pair_equal_order())
def test_leibniz_rule(pq):
    p, q = pq
    lhs = series_derivative(series_mul(p, q))
    rhs = series_add(
        series_mul(series_derivative(p), q), series_mul(p, series_derivative(q))
    )
    assert lhs == rhs


@given(rat_series_pair_equal_order())
def test_add_commutes_and_mul_commutes(pq):
    p, q = pq
    assert series_add(p, q) == series_add(q, p)
    assert series_mul(p, q) == series_mul(q, p)


@settings(max_examples=200)
@given(
    st.integers(min_value=-(2**256), max_value=2**256),
    st.integers(min_value=1, max_value=2**256),
)
def test_rational_round_trip_256_bit(a, b):
    stored = RatSeries(1, {1: Fraction(a, b)}).coeff(1)
    assert stored * b == a
    assert stored.denominator > 0
    assert gcd(abs(stored.numerator), stored.denominator) == 1


@given(rat_series_pair_equal_order())
def test_results_stay_reduced_with_positive_denominator(pq):
    p, q = pq
    for result in (series_add(p, q), series_mul(p, q)):
        for c in result.coeffs.values():
            assert c.denominator > 0
            assert gcd(abs(c.numerator), c.denominator) == 1
