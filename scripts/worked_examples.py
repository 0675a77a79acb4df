#!/usr/bin/env python3
"""Walk through the package's headline exact computations.

Prints the six-coefficient example with its per-k composition groups,
the 2^n - 1 collapse for the all-ones series, the Lucas and central
binomial sequences recovered from log-superpositions, and a live
pseudoprime hunt for all three specialized witnesses.
"""

import argparse
from fractions import Fraction

from logseries import (
    SequenceSpec,
    compositae_dp,
    corollary_sum,
    log_superposition,
    make_series,
    scan_pseudoprimes,
    theorem_sum,
)


def show_six_term_example():
    f = make_series(SequenceSpec("primes1", 6))
    table = compositae_dp(f, 6)
    print("f = 1, 2, 3, 5, 7, 11 (leading 1, then primes)")
    print("per-k composition sums at n=6:", [table.value(6, k) for k in range(1, 7)])
    terms = [Fraction(6, k) * table.value(6, k) for k in range(1, 7)]
    print("  (6/k)-weighted terms:", [str(t) for t in terms])
    print("  total:", theorem_sum(f, 6))
    print()


def show_mersenne_collapse(order):
    f = make_series(SequenceSpec("ones", order))
    values = [theorem_sum(f, n) for n in range(1, order + 1)]
    ok = all(v == 2**n - 1 for n, v in enumerate(values, start=1))
    print(f"ones series, n <= {order}: sum == 2^n - 1 everywhere: {ok}")
    print("  first values:", [int(v) for v in values[:10]], "...")
    print()


def show_named_log_superpositions():
    fib = log_superposition(make_series(SequenceSpec("fib-gf", 17)), 17)
    print("n*g(n) for x + x^2      :", list(fib.ng), "(Lucas numbers)")
    cat = log_superposition(make_series(SequenceSpec("catalan-shifted", 10)), 10)
    print("n*g(n) for shifted Catalan:", list(cat.ng), "(central binomials)")
    ones5 = make_series(SequenceSpec("ones", 5))
    print("truncated sum at prime 5 for ones:", corollary_sum(ones5, 5), "(= (2^5-2)/5)")
    print()


def show_pseudoprime_hunt(hi):
    print(f"exhaustive pseudoprime scan on [2, {hi}]:")
    for test in ("fermat2", "lucas", "central-binomial"):
        result = scan_pseudoprimes(test, 2, hi)
        listing = ", ".join(map(str, result.pseudoprimes)) or "(none)"
        print(
            f"  {test:17s} primes={result.primes_checked:4d} "
            f"composites={result.composites_checked:4d} pseudoprimes: {listing}"
        )
    print()
    print("note: central-binomial is fooled by prime powers; the other two")
    print("first fail at 341 (fermat2) and 705 (lucas).")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=64, help="order for the 2^n-1 sweep")
    parser.add_argument("--scan-hi", type=int, default=1000, help="upper end of the scan")
    args = parser.parse_args()

    show_six_term_example()
    show_mersenne_collapse(args.order)
    show_named_log_superpositions()
    show_pseudoprime_hunt(args.scan_hi)


if __name__ == "__main__":
    main()
