"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Timed criteria measure a warm call with time.perf_counter (best
of a few repeats for the sub-millisecond one); random suites use fixed
seeds so failures are reproducible.
"""

import math
import random
import time
from fractions import Fraction

from logseries import (
    IntSeries,
    SequenceSpec,
    compositae_dp,
    corollary_sum,
    log_superposition,
    make_series,
    scan_pseudoprimes,
    theorem_sum,
    witness_central_binomial,
    witness_fermat2,
    witness_generic,
    witness_lucas,
)
from compositae_oracles import compositae_bruteforce, enumerate_part_multisets, multinomial_count

LUCAS_17 = [1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322, 521, 843, 1364, 2207, 3571]
CATALAN_NG_10 = [1, 3, 10, 35, 126, 462, 1716, 6435, 24310, 92378]
FERMAT2_PS_2000 = [341, 561, 645, 1105, 1387, 1729, 1905]
LUCAS_PS_1000 = [705]


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {desc}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def sieve_primes(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
    return [n for n in range(2, limit + 1) if flags[n]]


def random_series(rng, order, lo=-99, hi=99):
    # force a sprinkling of exact zeros alongside negatives and positives
    coeffs = {
        i: (0 if rng.random() < 0.1 else rng.randint(lo, hi))
        for i in range(1, order + 1)
    }
    return IntSeries(order, coeffs)


def trial_factor(n):
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return d
    return None


def test_criterion_1_example_values_and_per_k_groups():
    f = make_series(SequenceSpec("primes1", 6))
    expected_groups = [11, 43, 59, 36, 10, 1]  # 11; 14+20+9; 15+36+8; 12+24; 10; 1

    def compute():
        table = compositae_dp(f, 6)
        return table, theorem_sum(f, 6, table=table)

    compute()  # warm
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        table, value = compute()
        best = min(best, time.perf_counter() - t0)

    groups = [table.value(6, k) for k in range(1, 7)]
    ok = value == 380 and groups == expected_groups and best < 1e-3
    report(
        1,
        "six-term example: value 380, per-k groups, <1ms",
        ok,
        f"value={value}, groups={groups}, best={best * 1e6:.0f}us",
    )


def test_criterion_2_all_ones_gives_mersenne_numbers():
    f = make_series(SequenceSpec("ones", 64))
    t0 = time.perf_counter()
    ok = all(theorem_sum(f, n) == 2**n - 1 for n in range(1, 65))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, "ones sequence: sum equals 2^n - 1 for n<=64, <1s", ok, f"{elapsed:.3f}s")


def test_criterion_3_fib_gf_ng_is_lucas_sequence():
    ls = log_superposition(make_series(SequenceSpec("fib-gf", 17)), 17)
    fib = [0, 1]
    for _ in range(20):
        fib.append(fib[-1] + fib[-2])
    ok = list(ls.ng) == LUCAS_17 and all(
        ls.ng[n - 1] == fib[n + 1] + fib[n - 1] for n in range(1, 18)
    )
    report(3, "x+x^2: ng matches the 17 Lucas numbers and Fib identity", ok, f"ng={list(ls.ng)}")


def test_criterion_4_shifted_catalan_ng_is_central_binomial():
    ls = log_superposition(make_series(SequenceSpec("catalan-shifted", 10)), 10)
    ok = list(ls.ng) == CATALAN_NG_10 and all(
        ls.ng[n - 1] == math.comb(2 * n - 1, n - 1) for n in range(1, 11)
    )
    report(4, "shifted Catalan: ng matches C(2n-1, n-1) list", ok, f"ng={list(ls.ng)}")


def test_criterion_5_integrality_and_oracle_suite_200_sequences():
    rng = random.Random(0x5EED5)
    partitions = {
        (n, k): enumerate_part_multisets(n, k)
        for n in range(1, 13)
        for k in range(1, n + 1)
    }
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for i in range(200):
        f = random_series(rng, 40)
        table = compositae_dp(f, 40)
        for n in range(1, 41):
            if theorem_sum(f, n, table=table).denominator != 1:
                ok, detail = False, f"non-integral sum: seq {i}, n={n}"
                break
        if not ok:
            break
        for n in range(1, 13):
            for k in range(1, n + 1):
                dp = table.value(n, k)
                if dp != compositae_bruteforce(f, n, k):
                    ok, detail = False, f"DP!=bruteforce: seq {i}, n={n}, k={k}"
                    break
                via_partitions = sum(
                    multinomial_count(L)
                    * math.prod(f.coeffs.get(p, 0) for p in L.parts)
                    for L in partitions[(n, k)]
                )
                if dp != via_partitions:
                    ok, detail = False, f"multiset mismatch: seq {i}, n={n}, k={k}"
                    break
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(
        5,
        "200 random sequences: integral sums, DP=enumeration=partition route, <30s",
        ok,
        detail or f"{elapsed:.1f}s",
    )


def test_criterion_6_prime_truncated_sums_and_exact_identity():
    rng = random.Random(0xC070)
    primes = sieve_primes(97)
    ok = True
    detail = ""
    for i in range(50):
        f = random_series(rng, 97)
        table = compositae_dp(f, 97)
        f1 = f.coeffs.get(1, 0)
        for n in range(1, 98):
            cor = corollary_sum(f, n, table=table)
            if theorem_sum(f, n, table=table) != n * cor + Fraction(f1) ** n:
                ok, detail = False, f"identity broke: seq {i}, n={n}"
                break
            if n in primes and cor.denominator != 1:
                ok, detail = False, f"non-integral at prime: seq {i}, p={n}"
                break
        if not ok:
            break
    report(
        6,
        "50 random sequences x primes<=97: integral truncated sums, exact identity",
        ok,
        detail or "all primes x sequences",
    )


def test_criterion_7_witness_soundness_on_primes():
    t0 = time.perf_counter()
    primes = sieve_primes(10**4)
    bad = []
    for p in primes:
        if not witness_fermat2(p).passes:
            bad.append(("fermat2", p))
        if not witness_lucas(p).passes:
            bad.append(("lucas", p))
    for p in primes:
        if p > 10**3:
            break
        if not witness_central_binomial(p).passes:
            bad.append(("central-binomial", p))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    report(
        7,
        "every prime passes: fermat2/lucas<=10^4, central-binomial<=10^3, <10s",
        ok,
        f"failures={bad[:3]}" if bad else f"{elapsed:.2f}s",
    )


def test_criterion_8_pseudoprime_scans_verified_and_thread_stable():
    t0 = time.perf_counter()
    fermat_scans = [scan_pseudoprimes("fermat2", 2, 2000, threads=t) for t in (1, 4)]
    lucas_scans = [scan_pseudoprimes("lucas", 2, 1000, threads=t) for t in (1, 4)]
    ok = (
        all(list(s.pseudoprimes) == FERMAT2_PS_2000 for s in fermat_scans)
        and all(list(s.pseudoprimes) == LUCAS_PS_1000 for s in lucas_scans)
        and fermat_scans[0] == fermat_scans[1]
        and lucas_scans[0] == lucas_scans[1]
    )
    detail = ""
    # independent re-verification: recheck the modular quantity and factor each
    for n in FERMAT2_PS_2000:
        if pow(2, n, n) != 2 or trial_factor(n) is None:
            ok, detail = False, f"fermat2 entry {n} failed re-verification"
    for n in LUCAS_PS_1000:
        a, b = 1, 3
        for _ in range(n - 1):
            a, b = b % n, (a + b) % n
        if a % n != 1 or trial_factor(n) is None:
            ok, detail = False, f"lucas entry {n} failed re-verification"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(
        8,
        "scans yield exactly the known pseudoprimes, re-verified, thread-stable, <10s",
        ok,
        detail or f"{elapsed:.2f}s",
    )


def test_criterion_9_generic_witness_specializations_agree():
    order = 60
    pairs = [
        (make_series(SequenceSpec("ones", order)), witness_fermat2, "ones"),
        (make_series(SequenceSpec("fib-gf", order)), witness_lucas, "fib-gf"),
        (
            make_series(SequenceSpec("catalan-shifted", order)),
            witness_central_binomial,
            "catalan-shifted",
        ),
    ]
    mismatches = []
    for f, specialized, name in pairs:
        for n in range(2, 61):
            if witness_generic(f, n).residue != specialized(n).residue:
                mismatches.append((name, n))
    report(
        9,
        "generic witness residues equal fermat2/lucas/central-binomial for n<=60",
        not mismatches,
        f"mismatches={mismatches[:3]}" if mismatches else "3 series x 59 values",
    )
