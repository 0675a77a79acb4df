#!/usr/bin/env python3
"""Census of pseudoprimes for the compositeness witnesses.

Scans ranges of increasing size and tabulates how many composites slip
through each witness, writing a JSON report if asked.  Useful for
eyeballing how sparse the false passes are; no density claims beyond
the raw counts.
"""

import argparse
import json
import time

from logseries import scan_pseudoprimes
from logseries.witnesses import NAMED_TESTS


def run_census(hi, tests):
    rows = []
    for test in tests:
        t0 = time.perf_counter()
        result = scan_pseudoprimes(test, 2, hi)
        elapsed = time.perf_counter() - t0
        rows.append(
            {
                "test": test,
                "hi": hi,
                "primes": result.primes_checked,
                "composites": result.composites_checked,
                "pseudoprimes": list(result.pseudoprimes),
                "seconds": round(elapsed, 3),
            }
        )
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hi", type=int, default=5000, help="scan [2, hi]")
    parser.add_argument(
        "--tests",
        nargs="+",
        default=list(NAMED_TESTS),
        choices=list(NAMED_TESTS),
    )
    parser.add_argument("--json-out", type=str, default=None, help="write rows as JSON")
    args = parser.parse_args()

    rows = run_census(args.hi, args.tests)

    print(f"{'test':18s} {'range':>12s} {'#pseudo':>8s} {'seconds':>8s}  pseudoprimes")
    for row in rows:
        listing = ", ".join(map(str, row["pseudoprimes"][:12]))
        if len(row["pseudoprimes"]) > 12:
            listing += ", ..."
        print(
            f"{row['test']:18s} [2, {row['hi']:7d}] {len(row['pseudoprimes']):8d} "
            f"{row['seconds']:8.2f}  {listing or '(none)'}"
        )

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2)
        print(f"wrote {args.json_out}")


if __name__ == "__main__":
    main()
