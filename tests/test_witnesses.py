"""Compositeness witnesses, ground-truth primality, and the scanner."""

import copy
import itertools
import math
import pickle
import tracemalloc

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from logseries import compositae, superposition, witnesses
from logseries import (
    COMPOSITE_WITNESSED,
    PASSES,
    IntSeries,
    WitnessReport,
    is_prime,
    lucas_number,
    scan_pseudoprimes,
    witness_central_binomial,
    witness_fermat2,
    witness_generic,
    witness_lucas,
)

LUCAS_17 = [1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322, 521, 843, 1364, 2207, 3571]

# frozen from an independent enumeration oracle (trial division + plain
# iteration for L_n + pow for 2^n mod n)
FERMAT2_PSEUDOPRIMES_2000 = [341, 561, 645, 1105, 1387, 1729, 1905]


def trial_division(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# ground truth primality


def test_is_prime_matches_trial_division_below_2000():
    for n in range(0, 2000):
        assert is_prime(n) == trial_division(n)


def test_is_prime_matches_trial_division_where_the_gcd_meets_miller_rabin():
    # below 10^6 the answer is the gcd with the primes below 1000 alone
    for n in range(999_000, 1_001_001):
        assert is_prime(n) == trial_division(n), n


@pytest.mark.parametrize(
    "n,reaches_miller_rabin",
    [
        (997, False),  # the largest prime below 1000: read from the small sieve
        (1000, False),
        (1009, False),  # prime, no factor below 1000, below 10^6
        (997**2, False),  # composite below 10^6, caught by the gcd
        (1009**2, True),  # composites above 10^6 with no factor below 1000
        (1009 * 1013, True),
        (1009 * 1013 * 2, False),  # even: caught by the gcd above 10^6 too
    ],
)
def test_is_prime_at_the_small_prime_boundaries(monkeypatch, n, reaches_miller_rabin):
    calls = []
    real = witnesses._miller_rabin

    def spy(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(witnesses, "_miller_rabin", spy)
    assert is_prime(n) == trial_division(n)
    assert calls == ([n] if reaches_miller_rabin else [])


@pytest.mark.parametrize(
    "n,expected",
    [
        (10**9 + 7, True),  # well-known prime above the trial-division range
        (2**31 - 1, True),  # Mersenne prime
        (10**12 + 39, True),
        (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
        (318665857834031151167461, False),  # 399165290221 * 798330580441, strong to bases 2..37
        ((10**9 + 7) * (10**9 + 9), False),
        (2**35, False),
    ],
)
def test_is_prime_large_values(n, expected):
    assert is_prime(n) is expected


# psi_t, the least strong pseudoprime to the first t prime bases (OEIS A014233),
# t = 4..9 and 12; psi_8 = psi_7, psi_10 = psi_11 = psi_12.  Miller-Rabin runs
# 7 bases below PSI_7, 9 below PSI_9 and 12 below PSI_12.
PSI_4, PSI_5, PSI_6 = 3215031751, 2152302898747, 3474749660383
PSI_7, PSI_9 = 341550071728321, 3825123056546413051
PSI_12 = 318665857834031151167461


@pytest.mark.parametrize("psi", [PSI_4, PSI_5, PSI_6, PSI_7, PSI_9, PSI_12])
@pytest.mark.parametrize("offset", [-2, 0, 2])
def test_is_prime_at_the_miller_rabin_base_bounds(psi, offset):
    assert is_prime(psi + offset) is sympy.isprime(psi + offset)


def test_psi_7_passes_fermat2_and_falls_to_the_ninth_base():
    # 10670053 * 32010157 is a strong pseudoprime to every base 2..17
    assert PSI_7 == 10670053 * 32010157
    report = witness_fermat2(PSI_7)
    assert report.is_pseudoprime and report.note == ""


@settings(max_examples=300)
@given(st.integers(min_value=10**6, max_value=4 * 10**18))
def test_is_prime_matches_sympy_up_to_4e18(n):
    assert is_prime(n) is sympy.isprime(n)
    p = sympy.nextprime(n)
    assert is_prime(p) and not is_prime(p * p)


@pytest.mark.parametrize(
    "n,count",
    [
        (sympy.prevprime(PSI_7), 7),
        (sympy.nextprime(PSI_7), 9),
        (sympy.prevprime(PSI_9), 9),
        (sympy.nextprime(PSI_9), 12),
        (sympy.prevprime(PSI_12), 12),
        (sympy.nextprime(PSI_12), 13),
        (sympy.prevprime(3317044064679887385961981), 13),  # the last n without Baillie-PSW
    ],
)
def test_miller_rabin_runs_the_bases_proven_at_n(monkeypatch, n, count):
    # a prime passes every base it is tested to, so each base calls pow(a, d, n) once
    bases = []

    def spy(a, d, m):
        bases.append(a)
        return pow(a, d, m)

    monkeypatch.setattr(witnesses, "pow", spy, raising=False)
    assert witnesses._miller_rabin(n)
    assert bases == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41][:count]


# ---------------------------------------------------------------------------
# Lucas numbers


def test_lucas_numbers_exact_match_reference_list():
    assert [lucas_number(n) for n in range(1, 18)] == LUCAS_17


def test_lucas_equals_fibonacci_neighbors():
    fib = [0, 1]
    for _ in range(20):
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 18):
        assert lucas_number(n) == fib[n + 1] + fib[n - 1]


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=10**4), st.integers(min_value=2, max_value=10**9))
def test_lucas_modular_agrees_with_plain_iteration(n, mod):
    # independent oracle: run the two-term recurrence mod m directly
    a, b = 1 % mod, 3 % mod
    for _ in range(n - 1):
        a, b = b, (a + b) % mod
    assert lucas_number(n, mod) == a


def lucas_by_fibonacci_doubling(n, mod):
    """L(n) mod `mod` as 2F(n+1) - F(n), with F by fast doubling:
    F(2k) = F(k)(2F(k+1) - F(k)) and F(2k+1) = F(k)^2 + F(k+1)^2."""
    f, g = 0, 1  # F(k), F(k+1) at k = 0
    for bit in bin(n)[2:]:
        f, g = f * (2 * g - f) % mod, (f * f + g * g) % mod
        if bit == "1":
            f, g = g, (f + g) % mod
    return (2 * g - f) % mod


def test_lucas_matches_fibonacci_doubling_around_powers_of_two():
    # both parities of n, and both parities of k = n >> 1, at every bit length to 70
    around = {2**j + d for j in range(2, 70) for d in (-2, -1, 0, 1, 2)}
    for n in sorted(around | {1, 2, 3}):
        for mod in (2, 3, 5, n, n + 1):
            assert lucas_number(n, mod) == lucas_by_fibonacci_doubling(n, mod), (n, mod)
        if n < 2**12:  # L(n) < 2^n, so reduced mod 2^n it is exact
            assert lucas_number(n) == lucas_by_fibonacci_doubling(n, 2**n), n


def test_lucas_matches_fibonacci_doubling_in_a_window_at_1e15():
    for n in range(10**15, 10**15 + 4000):
        assert lucas_number(n, n) == lucas_by_fibonacci_doubling(n, n), n


def test_lucas_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        lucas_number(0)


# ---------------------------------------------------------------------------
# witness reports


def test_witness_report_verdict_is_derived_from_residue():
    passing = WitnessReport(n=9, test="fermat2", residue=0, is_prime_actual=False)
    witnessed = WitnessReport(n=9, test="fermat2", residue=3, is_prime_actual=False)
    assert (passing.verdict, witnessed.verdict) == (PASSES, COMPOSITE_WITNESSED)
    assert "verdict" not in WitnessReport.__slots__
    with pytest.raises(AttributeError):
        witnessed.verdict = PASSES
    for clone in (pickle.loads(pickle.dumps(witnessed)), copy.copy(witnessed)):
        assert clone == witnessed and clone.verdict == COMPOSITE_WITNESSED


def test_fermat2_examples():
    r7 = witness_fermat2(7)
    assert r7.verdict == PASSES and r7.residue == 0 and r7.is_prime_actual
    r4 = witness_fermat2(4)
    assert r4.verdict == COMPOSITE_WITNESSED and r4.residue == 2
    r341 = witness_fermat2(341)
    assert r341.passes and not r341.is_prime_actual and r341.is_pseudoprime
    assert pow(2, 340, 341) == 1


def test_lucas_examples():
    r5 = witness_lucas(5)
    assert r5.passes and lucas_number(5) == 11
    r4 = witness_lucas(4)
    assert r4.residue == 2 and lucas_number(4) == 7
    r705 = witness_lucas(705)
    assert r705.passes and not r705.is_prime_actual


def test_central_binomial_examples():
    r5 = witness_central_binomial(5)
    assert r5.passes and math.comb(9, 4) == 126
    r4 = witness_central_binomial(4)
    assert r4.verdict == COMPOSITE_WITNESSED and r4.residue == 2
    r2 = witness_central_binomial(2)
    assert r2.passes


def test_central_binomial_matches_exact_binomial():
    for n in range(2, 3001):
        assert witness_central_binomial(n).residue == (math.comb(2 * n - 1, n - 1) - 1) % n, n


def _central_binomial_oracle(n):
    return (math.comb(2 * n - 1, n - 1) - 1) % n


# The oracle builds the whole binomial: at 7^4 * 300 that takes about 20 s,
# so n stays below 2 * 10^4 by bounding m for the larger prime powers.
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=300),
)
def test_central_binomial_factor_route_matches_exact_binomial(q, a, m):
    n = q**a * min(m, 20_000 // q**a)
    assert witness_central_binomial(n).residue == _central_binomial_oracle(n)


def test_central_binomial_powers_of_2_and_3_take_the_prime_power_route(monkeypatch):
    calls = []
    real = witnesses._central_binomial_mod_prime_power

    def spy(m, q, a):
        calls.append((m, q, a))
        return real(m, q, a)

    monkeypatch.setattr(witnesses, "_central_binomial_mod_prime_power", spy)
    # m = q^a / q^j, with j = min(a, floor((2a - loss_q)/3) + 1) steps of
    # Jacobsthal's congruence: loss_q is 2 for q = 2 and 1 for q = 3.
    reduced = {
        2: {2: 2, 3: 2, 4: 2, 5: 4, 6: 4, 7: 4, 8: 8, 9: 8, 10: 8, 11: 16, 12: 16, 13: 16, 14: 32},
        3: {2: 1, 3: 3, 4: 3, 5: 3, 6: 9, 7: 9, 8: 9, 9: 27},
    }
    for q, ms in reduced.items():
        for a, m in ms.items():
            n = q**a
            calls.clear()
            assert witness_central_binomial(n).residue == _central_binomial_oracle(n), n
            assert calls == [(m, q, a)]


def test_jacobsthal_step_congruence_matches_exact_binomial():
    # CB(N) = CB(N/q) mod q^(3 v_q(N) - loss_q), the step the witness chains:
    # a loss below Granville's (2 for q = 2, 1 for q = 3) fails here.
    cb = [None] + [math.comb(2 * n - 1, n - 1) for n in range(1, 3000)]
    for q in (2, 3, 5, 7):
        for n in range(q, 3000, q):
            v = next(i for i in itertools.count(1) if n % q ** (i + 1))
            exponent = 3 * v - witnesses._JACOBSTHAL_LOSS.get(q, 0)
            assert (cb[n] - cb[n // q]) % q**exponent == 0, (n, q)


@pytest.mark.parametrize("q, max_a", [(2, 18), (3, 11)])
def test_central_binomial_reduced_route_matches_the_unreduced_pass(q, max_a):
    # The q-free pass at m = n itself, over all of [1, q^a), against the
    # witness, which reduces n by Jacobsthal's congruence first.
    for a in range(2, max_a + 1):
        for c in (1, 5, 7, 143):
            n = q**a * c
            unreduced = witnesses._central_binomial_mod_prime_power(n, q, a)
            assert (witness_central_binomial(n).residue + 1) % q**a == unreduced, (q, a, c)


def test_central_binomial_at_2_3_16_and_2_26():
    # The two slowest n below the cap for the unreduced pass; both residues
    # are its output.  The CI console-script step greps for them.
    assert witness_central_binomial(86093442).residue == 1344737
    assert witness_central_binomial(67108864).residue == 56238370


def _legendre_central_binomial(m, mod):
    """C(2m-1, m-1) mod `mod` as the product of p^e_p over the primes p <= 2m-1,
    e_p by Legendre's formula: an exact factorization, so valid for any modulus."""
    top, product = 2 * m - 1, 1
    flags = bytearray(b"\0\0") + bytearray(b"\1") * (top - 1)
    for p in range(2, math.isqrt(top) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
    for p in itertools.compress(range(top + 1), flags):
        e, pi = 0, p
        while pi <= top:
            e += top // pi - (m - 1) // pi - m // pi
            pi *= p
        product = product * pow(p, e, mod) % mod
    return product % mod


def test_central_binomial_large_powers_of_2_and_3_match_the_legendre_product():
    # math.comb is too slow here: C(2^21 - 1, 2^20 - 1) has about 10^6 bits
    for n in [2**a for a in range(15, 21)] + [3**a for a in range(10, 13)]:
        assert witness_central_binomial(n).residue == (_legendre_central_binomial(n, n) - 1) % n, n


def test_legendre_product_oracle_matches_exact_binomial():
    for mod in (4, 27, 2**10 * 3**5, 10**9 + 7):
        for m in range(1, 200):
            assert _legendre_central_binomial(m, mod) == math.comb(2 * m - 1, m - 1) % mod


@pytest.mark.parametrize("n", [2**17, 3**11])
def test_central_binomial_holds_o_log_n_values(n):
    # A sieve of [0, 2n-1] peaked at 342 KiB (2^17) and 462 KiB (3^11).
    assert traced_peak(lambda: witness_central_binomial(n)) < 32 * 1024


@pytest.mark.parametrize("p", [5, 7, 11, 13, 29, 37, 101, 463])
def test_central_binomial_prime_squares_and_cubes_pass(p):
    # C(2n-1, n-1) = 1 mod p^3 at n = p for p >= 5 (Wolstenholme), and
    # Jacobsthal's congruence carries it to n = p^2 and p^3
    for n in (p**2, p**3):
        assert witness_central_binomial(n).is_pseudoprime, n
        if n < 10**5:
            assert _central_binomial_oracle(n) == 0, n


def test_central_binomial_27173_is_the_square_free_passer():
    assert 27173 == 29 * 937
    report = witness_central_binomial(27173)
    assert report.is_pseudoprime
    assert _central_binomial_oracle(27173) == 0


def test_central_binomial_mod_prime_power_matches_exact_binomial():
    for q, a in ((2, 2), (2, 3), (2, 10), (3, 2), (3, 5), (5, 2), (7, 3)):
        for m in range(1, 300):
            expected = math.comb(2 * m - 1, m - 1) % q**a
            assert witnesses._central_binomial_mod_prime_power(m, q, a) == expected, (m, q, a)


@settings(max_examples=60)
@given(
    st.sampled_from((2, 3, 5, 7, 11, 13, 97, 997)),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=3000),
)
def test_binomial_mod_prime_matches_exact_binomial(q, top, k):
    assert witnesses._binomial_mod_prime(top, k, q) == math.comb(top, k) % q


@pytest.mark.parametrize(
    "lo,hi,passer", [(27_100, 27_200, 27_173), (50_600, 50_700, 50_653)]  # 29 * 937, 37^3
)
def test_central_binomial_scan_windows_around_the_census_passers(lo, hi, passer):
    result = scan_pseudoprimes("central-binomial", lo, hi)
    assert result.pseudoprimes == (passer,)
    assert result.primes_checked == sum(map(trial_division, range(lo, hi + 1)))


def test_central_binomial_scan_around_100003():
    reports = [witness_central_binomial(n) for n in range(99_990, 100_011)]
    primes = [r for r in reports if r.is_prime_actual]
    assert [r.n for r in primes] == [99_991, 100_003]
    assert all(r.passes for r in primes)
    result = scan_pseudoprimes("central-binomial", 99_990, 100_010)
    assert result.pseudoprimes == tuple(r.n for r in reports if r.is_pseudoprime)
    assert (result.primes_checked, result.composites_checked) == (2, 19)


def test_central_binomial_rejects_n_above_its_limit(monkeypatch):
    limit = witnesses.CENTRAL_BINOMIAL_MAX_N
    message = f"needs n <= {limit} \\(got {limit + 1}\\)"
    with pytest.raises(ValueError, match=message):
        witness_central_binomial(limit + 1)

    def must_not_run(n):
        pytest.fail("the scan ran a witness before rejecting hi")

    monkeypatch.setattr(witnesses, "witness_central_binomial", must_not_run)
    with pytest.raises(ValueError, match=message):
        scan_pseudoprimes("central-binomial", limit - 3, limit + 1)


# 1287836182261 * 2575672364521: a strong pseudoprime to every base 2..41,
# the smallest, and so the bound of deterministic Miller-Rabin with them.
MR_BOUND = 3317044064679887385961981


def test_reports_flag_probable_ground_truth_from_the_miller_rabin_bound():
    caveat = f"is_prime_actual is only probable: n >= {MR_BOUND}"
    above = witness_fermat2(MR_BOUND)
    assert not above.is_prime_actual and MR_BOUND == 1287836182261 * 2575672364521
    assert above.note.startswith(caveat)
    assert witness_lucas(MR_BOUND - 2).note == ""
    joined = witnesses._report(MR_BOUND, "generic(x)", 0, "degenerate")
    assert joined.note.startswith("degenerate; " + caveat)


def test_a_prime_with_a_nonzero_residue_is_a_defect_not_a_verdict():
    # Every prime passes every test, so such a report can only come from a defect.
    with pytest.raises(ArithmeticError) as err:
        witnesses._report(7, "fermat2", 1)
    assert not isinstance(err.value, ValueError)  # the CLI maps ValueError to a usage error
    assert str(err.value) == "fermat2 residue 1 at n=7, which is prime: a defect, since every prime passes"
    # From the bound on, primality is only probable, and the message says so.
    prime = sympy.nextprime(MR_BOUND)
    with pytest.raises(ArithmeticError, match=rf"n={prime}, .*; n >= {MR_BOUND}, .*only probable"):
        witnesses._report(prime, "lucas", 2)


def test_is_prime_from_the_miller_rabin_bound_adds_a_strong_lucas_test():
    # the factorization is the oracle; the bases 2..41 alone call MR_BOUND prime
    assert MR_BOUND == 1287836182261 * 2575672364521
    assert witnesses._miller_rabin(MR_BOUND)
    assert not is_prime(MR_BOUND)
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1)  # Mersenne primes
    assert not is_prime((2**89 - 1) * (2**127 - 1))
    assert not is_prime((2**61 - 1) ** 2)


def test_strong_lucas_pseudoprimes_below_60000():
    # Strong Lucas pseudoprimes with Selfridge's parameters (OEIS A217255):
    # every odd prime passes, and these are the only composites that do.
    passers = [n for n in range(3, 60000, 2) if witnesses._strong_lucas(n)]
    composites = [n for n in passers if not trial_division(n)]
    assert composites == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]
    assert len(passers) - len(composites) == sum(map(trial_division, range(3, 60000, 2)))


@pytest.mark.parametrize("witness", [witness_fermat2, witness_lucas, witness_central_binomial])
def test_witnesses_reject_n_below_2(witness):
    with pytest.raises(ValueError):
        witness(1)


# ---------------------------------------------------------------------------
# generic witness


def test_generic_on_ones_matches_fermat2():
    f = IntSeries(30, {i: 1 for i in range(1, 31)})
    for n in range(2, 31):
        assert witness_generic(f, n).residue == witness_fermat2(n).residue


def test_generic_on_fib_gf_matches_lucas():
    f = IntSeries(30, {1: 1, 2: 1})
    for n in range(2, 31):
        assert witness_generic(f, n).residue == witness_lucas(n).residue


def test_generic_on_x_always_passes():
    f = IntSeries(25, {1: 1})
    for n in range(2, 26):
        assert witness_generic(f, n).passes


def test_generic_flags_degenerate_leading_zero():
    f = IntSeries(6, {2: 1})
    report = witness_generic(f, 6)
    assert "degenerate" in report.note
    assert witness_generic(IntSeries(6, {1: 1}), 6).note == ""


def test_generic_records_series_id():
    f = IntSeries(5, {1: 1})
    assert witness_generic(f, 5, series_id="x-only").test == "generic(x-only)"


def test_generic_requires_enough_order():
    with pytest.raises(ValueError):
        witness_generic(IntSeries(3, {1: 1}), 5)


# ---------------------------------------------------------------------------
# scanner


def test_scan_fermat2_600():
    result = scan_pseudoprimes("fermat2", 2, 600)
    assert list(result.pseudoprimes) == [341, 561]


def test_scan_lucas_700_has_none_and_705_appears_at_1000():
    assert scan_pseudoprimes("lucas", 2, 700).pseudoprimes == ()
    assert scan_pseudoprimes("lucas", 2, 1000).pseudoprimes == (705,)


def test_scan_trivial_range():
    result = scan_pseudoprimes("fermat2", 2, 2)
    assert result.pseudoprimes == ()
    assert result.primes_checked == 1
    assert result.composites_checked == 0


def test_scan_small_range_all_composites_fail():
    assert scan_pseudoprimes("fermat2", 2, 10).pseudoprimes == ()


def test_scan_counts_cover_whole_range():
    result = scan_pseudoprimes("fermat2", 2, 500, threads=3)
    assert result.primes_checked + result.composites_checked == 499


@pytest.mark.parametrize("threads", [1, 2, 4, 7])
def test_scan_thread_count_invariance(threads):
    result = scan_pseudoprimes("fermat2", 2, 700, threads=threads)
    assert list(result.pseudoprimes) == [341, 561, 645]
    assert result.primes_checked == 125


def test_scan_generic_needs_series():
    with pytest.raises(ValueError):
        scan_pseudoprimes("generic", 2, 50)
    f = IntSeries(50, {i: 1 for i in range(1, 51)})
    generic = scan_pseudoprimes("generic", 2, 50, series=f)
    named = scan_pseudoprimes("fermat2", 2, 50)
    assert generic.pseudoprimes == named.pseudoprimes


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=40, max_size=40),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=2, max_value=40),
)
def test_generic_scan_matches_per_n_public_witness(values, a, b):
    # values[0] = f(1) may be 0, the degenerate case
    f = IntSeries.from_values(values)
    lo, hi = min(a, b), max(a, b)
    reports = [witness_generic(f, n) for n in range(lo, hi + 1)]
    result = scan_pseudoprimes("generic", lo, hi, series=f)
    assert result.pseudoprimes == tuple(r.n for r in reports if r.is_pseudoprime)
    assert result.primes_checked == sum(r.is_prime_actual for r in reports)
    assert result.primes_checked + result.composites_checked == len(reports)


def test_generic_scan_rejects_short_series_before_any_witness(monkeypatch):
    def must_not_run(*args, **kwargs):
        pytest.fail("the scan ran a witness before rejecting the series order")

    monkeypatch.setattr(witnesses, "_h_and_ng", must_not_run)
    f = IntSeries(40, {i: 1 for i in range(1, 41)})
    with pytest.raises(ValueError, match="below hi=60"):
        scan_pseudoprimes("generic", 2, 60, series=f)


def spy_on_generic_route(monkeypatch):
    """Fail on any compositae_dp call; return [order, mod, values taken] per recurrence call."""
    def no_table(*args, **kwargs):
        pytest.fail("the generic witness built a compositae table")

    for module in (compositae, superposition):
        monkeypatch.setattr(module, "compositae_dp", no_table)
    calls = []
    real = witnesses._h_and_ng

    def counting(f, order, mod=None):
        call = [order, mod, 0]
        calls.append(call)
        for values in real(f, order, mod):
            call[2] += 1
            yield values

    monkeypatch.setattr(witnesses, "_h_and_ng", counting)
    return calls


def test_generic_scan_runs_one_recurrence_and_no_table(monkeypatch):
    lucas = scan_pseudoprimes("lucas", 10, 60)
    calls = spy_on_generic_route(monkeypatch)
    result = scan_pseudoprimes("generic", 10, 60, series=IntSeries(60, {1: 1, 2: 1}))
    # one exact stream, read once from n = 0 to 60
    assert calls == [[60, None, 61]]
    assert (result.pseudoprimes, result.primes_checked, result.composites_checked) == (
        lucas.pseudoprimes,
        lucas.primes_checked,
        lucas.composites_checked,
    )


def test_generic_witness_runs_the_recurrence_mod_n(monkeypatch):
    calls = spy_on_generic_route(monkeypatch)
    report = witness_generic(IntSeries(50, {1: 1, 2: 1}), 45)
    assert calls == [[45, 45, 46]]
    assert report.residue == witness_lucas(45).residue


def test_generic_witness_checks_n_before_the_recurrence(monkeypatch):
    calls = spy_on_generic_route(monkeypatch)
    f = IntSeries(40, {1: 1})
    with pytest.raises(ValueError, match="witness requires n >= 2"):
        witness_generic(f, 1)
    with pytest.raises(ValueError, match="n=41 exceeds series order 40"):
        witness_generic(f, 41)
    assert calls == []


def perrin_numbers(count):
    """P(0), ..., P(count - 1) by P(n) = P(n-2) + P(n-3), independent of the package."""
    p = [3, 0, 2]
    while len(p) < count:
        p.append(p[-2] + p[-3])
    return p[:count]


def test_generic_witness_on_x2_plus_x3_is_the_perrin_test():
    # n*g(n) for x^2 + x^3 is P(n), and f(1) = 0, so the residue is P(n) mod n;
    # no composite passes below 271441 (Adams and Shanks, 1982).
    f = IntSeries(500, {2: 1, 3: 1})
    perrin = perrin_numbers(501)
    reports = [witness_generic(f, n) for n in range(2, 501)]
    assert [r.residue for r in reports] == [perrin[n] % n for n in range(2, 501)]
    assert not any(r.is_pseudoprime for r in reports)


def test_generic_witness_flags_the_second_perrin_pseudoprime():
    # 904631 = 7 * 13 * 9941, the second composite that passes the Perrin test (OEIS A013998)
    report = witness_generic(IntSeries(904631, {2: 1, 3: 1}), 904631)
    assert report.passes
    assert not report.is_prime_actual


def traced_peak(call):
    """Peak bytes tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generic_witness_holds_o_d_values():
    # A list of all n + 1 values mod n took about 4 MB here.
    f = IntSeries(50000, {2: 1, 3: 1})
    assert traced_peak(lambda: witness_generic(f, 50000)) < 1_000_000


def test_generic_scan_holds_o_d_values():
    # Exact lists of h and n*g(n) to hi took about 23 MB here.
    f = IntSeries(20000, {2: 1, 3: 1})
    assert traced_peak(lambda: scan_pseudoprimes("generic", 2, 20000, series=f)) < 1_000_000


def test_generic_scan_of_fib_gf_to_5000_is_the_lucas_scan():
    f = IntSeries(5000, {1: 1, 2: 1})
    generic = scan_pseudoprimes("generic", 2, 5000, series=f)
    lucas = scan_pseudoprimes("lucas", 2, 5000)
    assert generic.pseudoprimes == lucas.pseudoprimes
    assert generic.primes_checked == lucas.primes_checked
    assert generic.composites_checked == lucas.composites_checked


def test_scan_validates_range_and_test_name():
    with pytest.raises(ValueError):
        scan_pseudoprimes("fermat2", 5, 4)
    with pytest.raises(ValueError):
        scan_pseudoprimes("fermat2", 1, 10)
    with pytest.raises(ValueError):
        scan_pseudoprimes("no-such-test", 2, 10)


def test_scan_fermat2_2000_matches_frozen_oracle_list():
    result = scan_pseudoprimes("fermat2", 2, 2000, threads=2)
    assert list(result.pseudoprimes) == FERMAT2_PSEUDOPRIMES_2000
    assert result.primes_checked == 303
    assert result.composites_checked == 1696
