"""Sequence registry and the coefficient file format."""

import math

import pytest
import sympy

from logseries import (
    CoefficientFileError,
    IntSeries,
    SequenceSpec,
    make_series,
    parse_coefficient_text,
)
from series_oracles import catalan_shifted_values, primes1_values


def test_ones():
    f = make_series(SequenceSpec("ones", 6))
    assert [f.coeff(i) for i in range(1, 7)] == [1] * 6


def test_primes1_convention():
    # leading 1, then the primes from index 2 on
    f = make_series(SequenceSpec("primes1", 8))
    assert [f.coeff(i) for i in range(1, 9)] == [1, 2, 3, 5, 7, 11, 13, 17]


def test_primes1_is_the_trial_division_oracle_at_every_order_to_3000():
    # The sieve doubles from 16 until it holds order - 1 primes, so every
    # size up to 2^15 is the last one at some order in this range.
    expected = primes1_values(3000)
    for order in range(1, 3001):
        assert make_series(SequenceSpec("primes1", order)).coeffs == dict(
            enumerate(expected[:order], start=1)
        )


def test_primes1_at_order_10000_is_sympys_primes():
    f = make_series(SequenceSpec("primes1", 10**4))
    assert f.coeff(10**4) == sympy.prime(10**4 - 1)
    expected = [1, *sympy.primerange(2, sympy.prime(10**4 - 1) + 1)]
    assert f.coeffs == dict(enumerate(expected, start=1))


def test_fib_gf():
    f = make_series(SequenceSpec("fib-gf", 6))
    assert f.coeffs == {1: 1, 2: 1}
    assert make_series(SequenceSpec("fib-gf", 1)).coeffs == {1: 1}


def test_catalan_shifted():
    f = make_series(SequenceSpec("catalan-shifted", 7))
    assert [f.coeff(i) for i in range(1, 8)] == [1, 1, 2, 5, 14, 42, 132]
    # closed form of the m-th Catalan number
    assert f.coeff(7) == math.comb(12, 6) // 7


@pytest.mark.parametrize("order", [1, 2000])
def test_catalan_shifted_recurrence_matches_the_binomial_closed_form(order):
    # Catalan(m) for every m < order, built by the recurrence, against math.comb.
    f = make_series(SequenceSpec("catalan-shifted", order))
    assert f.coeffs == dict(enumerate(catalan_shifted_values(order), start=1))


def test_inline():
    f = make_series(SequenceSpec("inline:3,-1, 4", 5))
    assert f == IntSeries(5, {1: 3, 2: -1, 3: 4})


def test_inline_truncates_to_order():
    f = make_series(SequenceSpec("inline:1,2,3,4,5", 3))
    assert f == IntSeries(3, {1: 1, 2: 2, 3: 3})


def test_inline_rejects_garbage():
    with pytest.raises(ValueError):
        make_series(SequenceSpec("inline:1,two,3", 3))


@pytest.mark.parametrize("kind", ["inline:1,,2", "inline:1,2,", "inline:,1", "inline:1, ,2", "inline:"])
def test_inline_rejects_empty_fields(kind):
    # Dropping an empty field would shift every later coefficient down one index.
    with pytest.raises(ValueError, match="is empty"):
        make_series(SequenceSpec(kind, 3))


def test_unknown_kind_rejected_at_spec_construction():
    with pytest.raises(ValueError, match="unknown sequence kind"):
        SequenceSpec("fibonacci", 5)


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        SequenceSpec("ones", 0)


def test_parse_coefficient_text_skips_blanks_and_comments():
    text = "# header comment\n\n1\n-2\n\n# mid comment\n 3 \n"
    assert parse_coefficient_text(text) == [1, -2, 3]


def test_parse_coefficient_text_reports_line_number():
    text = "1\n2\nnot-a-number\n4\n"
    with pytest.raises(CoefficientFileError) as err:
        parse_coefficient_text(text, path="coeffs.txt")
    assert "coeffs.txt:3" in str(err.value)
    assert err.value.line_no == 3


def test_file_kind_roundtrip(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("# f(i) per line\n5\n-7\n11\n", encoding="utf-8")
    f = make_series(SequenceSpec(f"file:{path}", 4))
    assert f == IntSeries(4, {1: 5, 2: -7, 3: 11})


def test_file_kind_missing_file():
    with pytest.raises(CoefficientFileError, match="cannot read"):
        make_series(SequenceSpec("file:/no/such/file.txt", 3))
