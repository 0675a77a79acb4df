"""Compositae triangle: DP vs definitional enumeration vs partition counts."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logseries import CompositaeTable, IntSeries, RatSeries, SequenceSpec, compositae_dp, make_series
from logseries import compositae
from logseries.compositae import (
    PACKED_MIN_SUPPORT,
    _entry_rows,
    _h_and_ng,
    _packed_rows,
    _slot_bytes,
)
from compositae_oracles import (
    BRUTE_FORCE_MAX_N,
    PartMultiset,
    compositae_bruteforce,
    compositions,
    enumerate_part_multisets,
    multinomial_count,
)
from series_oracles import geometric_inverse, series_mul


def ones(order):
    return IntSeries(order, {i: 1 for i in range(1, order + 1)})


def catalan_shifted(order):
    return IntSeries(order, {n: math.comb(2 * (n - 1), n - 1) // n for n in range(1, order + 1)})


PRIMES1_6 = IntSeries.from_values([1, 2, 3, 5, 7, 11])
FIB_GF = IntSeries(12, {1: 1, 2: 1})


@st.composite
def int_series(draw, min_order=1, max_order=8, lo=-9, hi=9):
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    coeffs = draw(
        st.dictionaries(st.integers(1, order), st.integers(lo, hi), max_size=order)
    )
    return IntSeries(order, coeffs)


# ---------------------------------------------------------------------------
# compositions helper (itself an enumeration oracle, so test it hard)


@pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (5, 5), (8, 3), (10, 4)])
def test_compositions_count_and_validity(n, k):
    seen = list(compositions(n, k))
    assert len(seen) == math.comb(n - 1, k - 1)
    assert len(set(seen)) == len(seen)
    for parts in seen:
        assert len(parts) == k
        assert sum(parts) == n
        assert all(p >= 1 for p in parts)


# ---------------------------------------------------------------------------
# compositae_dp


def test_dp_ones_gives_pascal():
    table = compositae_dp(ones(8), 8)
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert table.value(n, k) == math.comb(n - 1, k - 1)


def test_dp_fib_gf_gives_choose_k_n_minus_k():
    # math.comb(k, n-k) is 0 when n-k > k, matching the vanished products
    table = compositae_dp(FIB_GF, 12)
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert table.value(n, k) == math.comb(k, n - k)
    assert table.value(4, 3) == 3


def test_dp_shifted_catalan_closed_form():
    # k/n * C(2n-k-1, n-1) is exact for the series f(n) = Catalan(n-1)
    table = compositae_dp(catalan_shifted(10), 10)
    assert table.value(3, 2) == 2
    for n in range(1, 11):
        for k in range(1, n + 1):
            expected = k * math.comb(2 * n - k - 1, n - 1) // n
            assert table.value(n, k) == expected


def test_dp_ones_300_is_pascal():
    # 300 support terms: the packed kernel, with slots of 2^299 and more
    table = compositae_dp(ones(300), 300)
    for n in range(1, 301):
        assert table.row(n) == tuple(math.comb(n - 1, k - 1) for k in range(1, n + 1)), n


def _signed_dense(order):
    """Every coefficient a random nonzero signed 8-bit value, as the bench's dense inline series."""
    rng = random.Random(order)
    return IntSeries.from_values([rng.randint(1, 255) * rng.choice((1, -1)) for _ in range(order)])


def _signed(values, start=1):
    """Consecutive coefficients from index `start`, alternating in sign."""
    return {m: (-1) ** (m - start) * v for m, v in enumerate(values, start=start)}


def _mixed(order):
    """Every m <= order but the multiples of 3, with c cycling through 1, -1 and general values."""
    cs = (1, -1, 7, -1, 1, -200)
    return {m: cs[i % len(cs)] for i, m in enumerate(m for m in range(1, order + 1) if m % 3)}


SHAPES = {
    "signed-8-bit": _signed_dense,
    "alternating": lambda order: IntSeries(order, _signed([1] * order)),
    "mixed": lambda order: IntSeries(order, _mixed(order)),
}


@pytest.mark.parametrize(
    "kind,order",
    [
        ("ones", 150),
        ("primes1", 150),
        ("catalan-shifted", 150),
        ("signed-8-bit", 120),
        # the bench's sizes: slots of about 1000 bits, c = +-1 alone, and gaps
        ("signed-8-bit", 200),
        ("alternating", 200),
        ("mixed", 200),
    ],
)
def test_packed_kernel_matches_entry_kernel(kind, order):
    f = SHAPES[kind](order) if kind in SHAPES else make_series(SequenceSpec(kind, order))
    assert _packed_rows(f, order) == _entry_rows(f, order)


@pytest.mark.parametrize(
    "terms,kernel", [(PACKED_MIN_SUPPORT - 1, "_entry_rows"), (PACKED_MIN_SUPPORT, "_packed_rows")]
)
def test_dp_kernel_follows_support_size(monkeypatch, terms, kernel):
    # Only coefficients up to the order count toward the support.
    f = IntSeries(40, {**{m: 1 for m in range(2, 2 + terms)}, 40: 1})
    ran = []

    def spy(name):
        original = getattr(compositae, name)

        def kernel(f, order):
            ran.append(name)
            return original(f, order)

        return kernel

    for name in ("_entry_rows", "_packed_rows"):
        monkeypatch.setattr(compositae, name, spy(name))
    compositae_dp(f, 39)
    assert ran == [kernel]


@pytest.mark.parametrize(
    "value,width", [(127, 1), (128, 2), (255, 2), (256, 2), (32767, 2), (32768, 3)]
)
def test_slot_width_keeps_a_sign_bit(value, width):
    # Rows below 32 have a single part, so the bound max h(n) is `value`.
    support = [(m, (-1) ** m * value) for m in range(16, 32)]
    assert _slot_bytes(support, 31) == width
    f = IntSeries(31, dict(support))
    assert _packed_rows(f, 31) == _entry_rows(f, 31)


def streamed(kind, order, mod=None):
    """The h and ng lists of one _h_and_ng stream of the series `kind` at `order`."""
    h, ng = zip(*_h_and_ng(make_series(SequenceSpec(kind, order)), order, mod))
    return list(h), list(ng)


@pytest.mark.parametrize(
    "kind, h, ng",
    [
        # F = 0: H = 1 and G = 0; d counts as 1, so the list of h is still cut back
        ("inline:0,0", lambda n: int(n == 0), lambda n: 0),
        # F = 5x: H = 1/(1-5x) and x G' = 5x/(1-5x)
        ("inline:5", lambda n: 5**n, lambda n: 5**n if n else 0),
        # ones: d = order, so no value of h is dropped; H = (1-x)/(1-2x), n*g(n) = 2^n - 1
        ("ones", lambda n: 2 ** (n - 1) if n else 1, lambda n: 2**n - 1),
    ],
)
def test_stream_closed_forms(kind, h, ng):
    assert streamed(kind, 150) == ([h(n) for n in range(151)], [ng(n) for n in range(151)])
    reduced = ([h(n) % 7 for n in range(151)], [ng(n) % 7 for n in range(151)])
    assert streamed(kind, 150, mod=7) == reduced


def test_stream_with_f1_zero_is_padovan_and_perrin():
    # x^2 + x^3: h(n) = h(n-2) + h(n-3) and n*g(n) = P(n) for n >= 1 (P(0) = 3 is not n*g(0))
    h, perrin = [1, 0, 1], [3, 0, 2]
    while len(h) <= 500:
        h.append(h[-2] + h[-3])
        perrin.append(perrin[-2] + perrin[-3])
    assert streamed("inline:0,1,1", 500) == (h, [0] + perrin[1:])


def test_stream_with_signed_coefficients_matches_the_table():
    # d = 7, so the stream cuts its list of h from n = 79 on
    f = IntSeries(150, {1: -1, 3: 2, 7: -3})
    rows = compositae_dp(f, 150).rows
    h, ng = streamed("inline:-1,0,2,0,0,0,-3", 150)
    assert h == [1] + [sum(row) for row in rows]
    # n*g(n) = sum_k (n/k) F_delta(n, k)
    assert ng == [0] + [
        sum(Fraction(n, k) * v for k, v in enumerate(row, 1)) for n, row in enumerate(rows, 1)
    ]
    reduced = streamed("inline:-1,0,2,0,0,0,-3", 150, mod=11)
    assert reduced == ([v % 11 for v in h], [v % 11 for v in ng])


def test_dp_requires_enough_coefficients():
    with pytest.raises(ValueError, match="insufficient"):
        compositae_dp(ones(5), 6)


def test_dp_first_column_and_diagonal():
    f = IntSeries.from_values([3, -1, 4, 1, -5])
    table = compositae_dp(f, 5)
    for n in range(1, 6):
        assert table.value(n, 1) == f.coeff(n)
        assert table.value(n, n) == f.coeff(1) ** n


def test_table_accessor_bounds():
    table = compositae_dp(ones(4), 4)
    with pytest.raises(IndexError):
        table.value(3, 4)
    with pytest.raises(IndexError):
        table.value(5, 1)
    with pytest.raises(IndexError):
        table.row(0)


def test_table_rejects_non_triangular_rows():
    with pytest.raises(ValueError):
        CompositaeTable(2, ((1,), (1,)))


# ---------------------------------------------------------------------------
# compositae_bruteforce (the definitional oracle)


def test_bruteforce_primes1_pair_sum():
    assert compositae_bruteforce(PRIMES1_6, 6, 2) == 43


def test_bruteforce_diagonal_is_f1_power():
    f = IntSeries.from_values([3, 1, 1, 1, 1, 1])
    for n in (1, 3, 6):
        assert compositae_bruteforce(f, n, n) == 3**n


def test_bruteforce_fib_gf_6_4():
    assert compositae_bruteforce(IntSeries(6, {1: 1, 2: 1}), 6, 4) == 6


def test_bruteforce_k_above_n_is_zero():
    assert compositae_bruteforce(ones(5), 3, 4) == 0


def test_bruteforce_guard_rails():
    big = IntSeries(30, {1: 1})
    with pytest.raises(ValueError, match="capped"):
        compositae_bruteforce(big, BRUTE_FORCE_MAX_N + 1, 2)
    with pytest.raises(ValueError, match="exceeds series order"):
        compositae_bruteforce(ones(4), 5, 2)


@settings(max_examples=60)
@given(int_series(), st.data())
def test_dp_matches_bruteforce(f, data):
    n = data.draw(st.integers(min_value=1, max_value=f.order))
    k = data.draw(st.integers(min_value=1, max_value=n))
    table = compositae_dp(f, f.order)
    assert table.value(n, k) == compositae_bruteforce(f, n, k)


@st.composite
def wide_series(draw, max_order=40):
    """Orders past the brute-force cap; unit, small, byte-boundary and huge coefficients.

    Half the draws ask for at least PACKED_MIN_SUPPORT entries, so both
    kernels of compositae_dp are reached (zeros drop out of the support).
    """
    order = draw(st.integers(min_value=12, max_value=max_order))
    value = (
        st.sampled_from((0, 1, -1, 2, -2, 127, -128, 255, -256))
        | st.integers(-10**6, 10**6)
        | st.integers(-10**30, 10**30)
    )
    min_size = draw(st.sampled_from((0, min(order, PACKED_MIN_SUPPORT))))
    keys = st.integers(1, order)
    return IntSeries(order, draw(st.dictionaries(keys, value, min_size=min_size, max_size=order)))


@settings(max_examples=25, deadline=None)
@given(wide_series())
@example(IntSeries(40, {1: 1, 2: -1, 3: 2, 5: -(10**6), 9: 1, 11: -1}))
@example(IntSeries(12, {2: 1, 3: 1}))
@example(IntSeries(20, {1: -1, 2: 1, 4: 3, 7: -1}))
@example(IntSeries(20, {1: 3, 2: -1, 3: 1, 6: -2}))
# supports of exactly PACKED_MIN_SUPPORT - 1 and PACKED_MIN_SUPPORT terms
@example(IntSeries(30, _signed(range(1, 16))))
@example(IntSeries(30, _signed(range(1, 17))))
# f(1) = 0 and gaps, on both sides of the cut-off
@example(IntSeries(36, {m: 1 for m in range(2, 32, 2)}))
@example(IntSeries(40, {m: (-1) ** m * m for m in range(3, 40, 2) if m % 7}))
# signed huge coefficients
@example(IntSeries(24, _signed([10**30] * 16)))
@example(IntSeries(24, {1: 10**30, **_signed([-(10**30)] * 16, start=3)}))
# byte boundaries: no row has two parts, so max h(n) is the coefficient
# itself and the slot width goes from 1 byte (127) to 2 bytes (128)
@example(IntSeries(31, _signed([127] * 16, start=16)))
@example(IntSeries(31, _signed([128] * 16, start=16)))
@example(IntSeries(31, _signed([255] * 16, start=16)))
@example(IntSeries(31, _signed([256] * 16, start=16)))
@example(IntSeries(31, {m: -128 for m in range(16, 32)}))
@example(IntSeries(31, {m: -256 for m in range(16, 32)}))
# and the same values once products appear
@example(IntSeries(40, {m: -127 for m in range(16, 32)}))
@example(IntSeries(40, _signed([128, -255, 256] * 6, start=8)))
# the packed kernel's c = +-1 branches alone, then mixed with general c over gaps
@example(SHAPES["alternating"](40))
@example(SHAPES["mixed"](40))
def test_dp_matches_powers_of_f(f):
    # F_delta(n, k) is the coefficient of x^n in F^k; the examples reach the
    # c = 1, c = -1 and general-c branches of both kernels, the entry
    # kernel's first support term (which assigns its slice) and later ones,
    # f(1) = 0, and the packed kernel on each side of its slot-width steps.
    table = compositae_dp(f, f.order)
    rat = RatSeries(f.order, f.coeffs)
    power = rat
    for k in range(1, f.order + 1):
        for n in range(k, f.order + 1):
            assert table.value(n, k) == power.coeff(n), (n, k)
        power = series_mul(power, rat)


@settings(max_examples=40, deadline=None)
@given(wide_series(max_order=60))
@example(IntSeries(60, {1: -1, 3: 2, 7: -3}))
@example(SHAPES["mixed"](60))
def test_row_moments_match_the_stream(f):
    # sum_k F_delta(n, k) is h(n) of 1/(1 - F), and sum_k (-1)^k F_delta(n, k)
    # is h(n) of 1/(1 + F): _h_and_ng on f and on -f, with no table.
    rows = compositae_dp(f, f.order).rows
    h = [hn for hn, _ in _h_and_ng(f, f.order)]
    negated = IntSeries(f.order, {m: -c for m, c in f.coeffs.items()})
    h_alt = [hn for hn, _ in _h_and_ng(negated, f.order)]
    assert [sum(row) for row in rows] == h[1:]
    assert [sum(row[1::2]) - sum(row[::2]) for row in rows] == h_alt[1:]


# ---------------------------------------------------------------------------
# PartMultiset / multinomial_count / enumerate_part_multisets


def test_part_multiset_normalizes_and_derives():
    L = PartMultiset.of(4, 1)
    assert L.parts == (1, 4)
    assert (L.n, L.k) == (5, 2)
    assert L.multiplicities == (1, 1)
    assert PartMultiset.of(2, 1, 2).multiplicities == (1, 2)


def test_part_multiset_rejects_bad_parts():
    with pytest.raises(ValueError):
        PartMultiset.of()
    with pytest.raises(ValueError):
        PartMultiset.of(0, 2)


def test_multinomial_count_examples():
    assert multinomial_count(PartMultiset.of(1, 4)) == 2
    assert multinomial_count(PartMultiset.of(1, 1, 3)) == 3
    assert multinomial_count(PartMultiset.of(7)) == 1
    assert multinomial_count(PartMultiset.of(1, 2, 2)) == 3
    assert multinomial_count(PartMultiset.of(1, 1, 1, 2)) == 4


def test_enumerate_part_multisets_examples():
    assert enumerate_part_multisets(5, 2) == [PartMultiset.of(1, 4), PartMultiset.of(2, 3)]
    assert enumerate_part_multisets(4, 4) == [PartMultiset.of(1, 1, 1, 1)]
    assert enumerate_part_multisets(6, 3) == [
        PartMultiset.of(1, 1, 4),
        PartMultiset.of(1, 2, 3),
        PartMultiset.of(2, 2, 2),
    ]


def test_enumerate_part_multisets_canonical_and_complete():
    for n in range(1, 13):
        for k in range(1, n + 1):
            partitions = enumerate_part_multisets(n, k)
            tuples = [L.parts for L in partitions]
            assert tuples == sorted(tuples)
            assert len(set(tuples)) == len(tuples)
            for L in partitions:
                assert L.n == n and L.k == k


def test_enumerate_part_multisets_rejects_k_above_n():
    with pytest.raises(ValueError):
        enumerate_part_multisets(3, 4)


def test_composition_count_identity():
    # ordering counts over all partitions recover the composition count
    for n in range(1, 13):
        for k in range(1, n + 1):
            total = sum(multinomial_count(L) for L in enumerate_part_multisets(n, k))
            assert total == math.comb(n - 1, k - 1)


def test_n_times_multinomial_divisible_by_k():
    for n in range(1, 13):
        for k in range(1, n + 1):
            for L in enumerate_part_multisets(n, k):
                assert (n * multinomial_count(L)) % k == 0


@settings(max_examples=40)
@given(int_series(max_order=9))
def test_multiset_decomposition_matches_dp(f):
    table = compositae_dp(f, f.order)
    for n in range(1, f.order + 1):
        for k in range(1, n + 1):
            via_partitions = sum(
                multinomial_count(L) * math.prod(f.coeffs.get(p, 0) for p in L.parts)
                for L in enumerate_part_multisets(n, k)
            )
            assert table.value(n, k) == via_partitions


@settings(max_examples=40)
@given(int_series(max_order=10))
def test_row_sums_match_geometric_inverse(f):
    table = compositae_dp(f, f.order)
    h = geometric_inverse(f)
    for n in range(1, f.order + 1):
        assert sum(table.row(n)) == h.coeff(n)
