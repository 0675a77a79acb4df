"""Random CLI jobs, run in process, checked by the benchmark's first-principles oracles.

bench/oracles.py checks a job's JSON output against ground truths it
builds without importing logseries: sympy primality, residues by plain
modular arithmetic, g, ng and h from linear recurrences, and triangle
columns as powers of F.  The jobs here have the shape of bench/jobs.py
but are drawn by hypothesis over every command, the built-in series and
signed inline ones (f(1) = 0 included), at sizes small enough for a
unit test: orders <= 60, scan windows <= 500 wide, some of them at
10**12, and central-binomial n <= 5000.  Each compositae and loggf job
runs a second time with --format text, which must give the same exit
code and, row for row, the decimal strings of the checked JSON.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logseries import NAMED_TESTS, cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

BUILTIN = ("ones", "primes1", "fib-gf", "catalan-shifted")
TESTS = NAMED_TESTS + ("generic",)
MAX_ORDER = 60
MAX_WIDTH = 500
CB_MAX_N = 5000


@pytest.fixture(scope="module")
def oracles():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("oracles")


@st.composite
def seqs(draw, max_len):
    """A built-in series, or an inline one of signed 8-bit values, f(1) = 0 half the time."""
    if draw(st.booleans()):
        return draw(st.sampled_from(BUILTIN))
    values = draw(st.lists(st.integers(-255, 255), min_size=1, max_size=max_len))
    if draw(st.booleans()):
        values[0] = 0
    return "inline:" + ",".join(map(str, values))


@st.composite
def windows(draw, test):
    """(lo, hi) of a scan: a generic one up to its order, a named one at most MAX_WIDTH wide."""
    if test == "generic":
        hi = draw(st.integers(2, MAX_ORDER))
        return draw(st.integers(2, hi)), hi
    width = draw(st.integers(1, MAX_WIDTH))
    if test == "central-binomial":
        lo = draw(st.integers(2, CB_MAX_N - width + 1))
    else:
        lo = draw(st.integers(2, 10**5) | st.integers(10**12, 10**12 + 10**6))
    return lo, lo + width - 1


def witness_n(test):
    if test == "generic":
        return st.integers(2, MAX_ORDER)
    if test == "central-binomial":
        return st.integers(2, CB_MAX_N)
    return st.integers(2, 10**4) | st.integers(10**12, 10**17)


@st.composite
def jobs(draw):
    """One job in the shape bench/jobs.py writes: an `argv` plus the fields the checker reads."""
    command = draw(st.sampled_from(("compositae", "loggf", "theorem", "witness", "scan")))
    job = {"id": command}
    if command in ("compositae", "loggf"):
        order = draw(st.integers(1, MAX_ORDER))
        job.update(seq=draw(seqs(order)), order=order)
        argv = [command, "--seq", job["seq"], "--order", str(order)]
        if command == "compositae":
            columns = draw(st.sets(st.integers(1, order), min_size=1, max_size=3))
            job["columns"] = sorted(columns)
    elif command == "theorem":
        n = draw(st.integers(1, MAX_ORDER))
        job.update(seq=draw(seqs(n)), n=n)
        argv = ["theorem", "--seq", job["seq"], "--n", str(n)]
    elif command == "witness":
        test = draw(st.sampled_from(TESTS))
        n = draw(witness_n(test))
        job.update(test=test, n=n)
        argv = ["witness", "--test", test, "--n", str(n)]
    else:
        test = draw(st.sampled_from(TESTS))
        lo, n = draw(windows(test))  # n is hi, the largest n the scan checks
        threads = draw(st.integers(1, 2))
        job.update(test=test, lo=lo, hi=n, threads=threads)
        argv = ["scan", "--test", test, "--lo", str(lo), "--hi", str(n), "--threads", str(threads)]
    if job.get("test") == "generic":
        job["seq"] = draw(seqs(n))
        argv += ["--seq", job["seq"]]
    job["argv"] = argv + ["--format", "json"]
    return job


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def rows_as_text(command, result):
    """The row lines --format text writes for a checked JSON result."""
    if command == "compositae":
        return [f"n={n}: " + " ".join(row) for n, row in enumerate(result["rows"], 1)]
    columns = zip(result["ng"], result["g"], result["h"])
    return ["\t".join((str(n), *values)) for n, values in enumerate(columns, 1)]


@settings(max_examples=150, deadline=None)
@given(jobs())
def test_cli_output_passes_the_benchmark_oracles(oracles, job):
    code, out = run(job["argv"])
    reason = oracles.Checker().check(job, code, out.encode())
    assert reason is None, f"{job['argv']}: {reason}"
    if job["id"] in ("compositae", "loggf"):
        # The text format carries the same numbers, one row per line after its header.
        text_code, text = run(job["argv"][:-1] + ["text"])
        assert text_code == code
        if code == 0:
            head = 1 if job["id"] == "compositae" else 2
            result = json.loads(out)["result"]
            assert text.splitlines()[head:] == rows_as_text(job["id"], result)
