"""Seeded job lists: the CLI argument vectors each workload runs per pass.

Every job is a plain dict with an `id`, the `argv` handed to the
`logseries` CLI, and the fields the checker and the metrics need.  The
same (workload, seed) always yields a byte-identical list.

Cost stability between seeds matters as much as variety: the benchmark
compares medians of runs made with different seeds, so every size is a
fixed centre jittered by a few percent, windows are drawn from fixed
strata, and seeded series keep a fixed shape (support pattern, value
magnitudes) while the seed picks positions, signs and values within it.

Limits kept so that planned changes to the program leave every job
valid: central-binomial n <= 10**5, Miller-Rabin n < 10**18, orders
<= 1000.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("scan-named", "loggf", "triangle-sparse")

CB_MAX_N = 10**5
MR_MAX_N = 10**18 - 1
MAX_ORDER = 1000

# Sizes per pass.  Centres; the seed jitters each by JITTER.
JITTER = 0.02
SMALL_WINDOW = 10_000  # integers per window below 10**6 (trial-division ground truth)
BIG_WINDOW = 4_000  # integers per window in [10**12, 10**17] (Miller-Rabin ground truth)
CB_WINDOW = 100  # integers per central-binomial window at n in [2000, 5000]
WINDOW_STRATA = 2  # seeded windows per (test, range), one per stratum


def _jitter(rng: random.Random, centre: int) -> int:
    return round(centre * (1 + rng.uniform(-JITTER, JITTER)))


def _strata(rng: random.Random, lo: int, hi: int, k: int, *, log: bool = False) -> list[int]:
    """One draw from each of k equal slices of [lo, hi] (of log2 range if `log`).

    Draws are antithetic in pairs: a slice at offset u is followed by one at
    1 - u, so a pair's cost stays about the same from seed to seed.
    """
    a, b = (math.log2(lo), math.log2(hi)) if log else (lo, hi)
    out = []
    for i in range(k):
        u = rng.random() if i % 2 == 0 else 1 - u
        x = a + (b - a) * (i + u) / k
        out.append(max(lo, min(hi, int(2**x if log else x))))
    return out


def _dense_inline(rng: random.Random, order: int) -> str:
    """Every coefficient a random nonzero integer of at most 8 bits, signed."""
    return "inline:" + ",".join(
        str(rng.randint(1, 255) * rng.choice((1, -1))) for _ in range(order)
    )


def _sparse_inline(rng: random.Random, slot: int) -> str:
    """2 to 4 nonzero terms at indices <= 10 with values in {+-1, +-2}.

    The slot alone fixes the indices and the value magnitudes, which set
    the table's density and bit growth and so the job's cost; the seed
    picks every sign.  f(1) is always +-1.
    """
    shape = random.Random(f"sparse-slot:{slot}")
    nterms = 2 + slot % 3
    indices = [1] + sorted(shape.sample(range(2, 11), nterms - 1))
    mags = [1] * nterms
    if slot % 2:
        mags[shape.randrange(1, nterms)] = 2
    coeffs = [0] * indices[-1]
    for idx, mag in zip(indices, mags):
        coeffs[idx - 1] = mag * rng.choice((1, -1))
    return "inline:" + ",".join(str(c) for c in coeffs)


def _job(jobs: list, kind: str, argv: list[str], **fields) -> None:
    jobs.append({"id": f"{len(jobs):02d}-{kind}", "argv": argv, **fields})


def _scan(jobs: list, test: str, lo: int, hi: int, threads: int, *, seq: str | None = None, tag: str = "") -> None:
    argv = ["scan", "--test", test, "--lo", str(lo), "--hi", str(hi), "--threads", str(threads), "--format", "json"]
    if seq is not None:
        argv[1:1] = ["--seq", seq]
    _job(jobs, f"scan.{test}{tag}", argv, test=test, lo=lo, hi=hi, threads=threads, seq=seq)


def _witness(jobs: list, test: str, n: int, *, seq: str | None = None) -> None:
    argv = ["witness", "--test", test, "--n", str(n), "--format", "json"]
    if seq is not None:
        argv += ["--seq", seq]
    _job(jobs, f"witness.{test}", argv, test=test, n=n, seq=seq)


def _scan_named(rng: random.Random, threads: int) -> list[dict]:
    jobs: list[dict] = []
    thread_counts = sorted({1, threads})

    def windows(test: str, lo: int, hi: int, width: int, *, log: bool = False) -> None:
        widths = [_jitter(rng, width) for _ in range(WINDOW_STRATA)]
        for start, w in zip(_strata(rng, lo, hi - max(widths), WINDOW_STRATA, log=log), widths):
            for t in thread_counts:
                _scan(jobs, test, start, start + w - 1, t)

    for test in ("fermat2", "lucas"):
        for t in thread_counts:
            _scan(jobs, test, 2, 2000, t, tag=".fixed")
    for test in ("fermat2", "lucas"):
        windows(test, 10**5, 9 * 10**5, SMALL_WINDOW)
        windows(test, 10**12, 10**17, BIG_WINDOW, log=True)
    windows("central-binomial", 2000, 5000, CB_WINDOW)
    for n in _strata(rng, 5 * 10**4, CB_MAX_N, 2):
        _witness(jobs, "central-binomial", n)
    for test in ("fermat2", "lucas"):
        for n in _strata(rng, 10**6, 10**17, 3, log=True):
            _witness(jobs, test, n)
    return jobs


def _loggf(rng: random.Random) -> list[dict]:
    jobs: list[dict] = []

    def loggf(seq: str | None, order: int) -> None:
        order = _jitter(rng, order)
        seq = seq or _dense_inline(rng, order)
        argv = ["loggf", "--seq", seq, "--order", str(order), "--format", "json"]
        _job(jobs, "loggf", argv, seq=seq, order=order)

    def theorem(seq: str | None, n: int) -> None:
        n = _jitter(rng, n)
        seq = seq or _dense_inline(rng, n)
        argv = ["theorem", "--seq", seq, "--n", str(n), "--format", "json"]
        _job(jobs, "theorem", argv, seq=seq, n=n)

    def witness(seq: str | None, n: int) -> None:
        n = _jitter(rng, n)
        _witness(jobs, "generic", n, seq=seq or _dense_inline(rng, n))

    # Dense series: the cubic DP and the per-row Fraction sums both matter.
    for seq, order in (("ones", 160), ("primes1", 180), ("catalan-shifted", 200), (None, 150), (None, 170), (None, 200)):
        loggf(seq, order)
    # Sparse series at high order: the Fraction sums, not the DP, dominate.
    # fib-gf is the largest job, at a fixed order, so peak RSS does not depend on the seed.
    _job(jobs, "loggf", ["loggf", "--seq", "fib-gf", "--order", "800", "--format", "json"], seq="fib-gf", order=800)
    for slot in (0, 1):
        loggf(_sparse_inline(rng, slot), 550)
    for seq, n in (("ones", 200), ("primes1", 180), ("catalan-shifted", 150), (None, 150), (None, 180), (None, 120)):
        theorem(seq, n)
    for seq, n in (("ones", 200), ("primes1", 180), ("catalan-shifted", 160), (None, 150), (None, 180), (None, 120)):
        witness(seq, n)
    # The generic scan rebuilds the table for every n.
    for seq, hi in (("ones", 90), (None, 80)):
        hi = _jitter(rng, hi)
        _scan(jobs, "generic", 2, hi, 1, seq=seq or _dense_inline(rng, hi))
    return jobs


def _triangle_sparse(rng: random.Random) -> list[dict]:
    jobs: list[dict] = []

    def compositae(seq: str, order: int) -> None:
        argv = ["compositae", "--seq", seq, "--order", str(order), "--format", "json"]
        _job(jobs, "compositae", argv, seq=seq, order=order, columns=sorted(rng.sample(range(2, order + 1), 3)))

    # The largest job, at a fixed order, so that peak RSS does not depend on the seed.
    compositae("fib-gf", 650)
    for slot in range(20):
        compositae(_sparse_inline(rng, slot), _jitter(rng, 500))
    for kind in ("ones", "primes1", None, None):
        order = _jitter(rng, 150)
        compositae(kind or _dense_inline(rng, order), order)
    return jobs


def make_jobs(workload: str, seed: int, threads: int) -> list[dict]:
    """The job list one pass of `workload` runs, for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan-named":
        jobs = _scan_named(rng, threads)
    elif workload == "loggf":
        jobs = _loggf(rng)
    elif workload == "triangle-sparse":
        jobs = _triangle_sparse(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    for job in jobs:
        _check_limits(job)
    return jobs


def _check_limits(job: dict) -> None:
    test = job.get("test")
    hi = job.get("hi", job.get("n", 0))
    if test == "central-binomial" and hi > CB_MAX_N:
        raise ValueError(f"{job['id']}: central-binomial n above {CB_MAX_N}")
    if hi > MR_MAX_N:
        raise ValueError(f"{job['id']}: n above {MR_MAX_N}")
    order = max(job.get("order") or 0, hi if test == "generic" else 0)
    if order > MAX_ORDER:
        raise ValueError(f"{job['id']}: order above {MAX_ORDER}")
