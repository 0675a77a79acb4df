"""CLI surface: commands, exit codes, JSON output against the library values."""

import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logseries import compositae_dp, log_superposition, make_series, scan_pseudoprimes
from logseries import SequenceSpec, cli, witness_fermat2, witness_lucas, witnesses
from logseries.cli import Decimals, main, render_json, table_to_payload


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compositae


def test_compositae_ones_prints_pascal_rows(capsys):
    code, out, _ = run(capsys, "compositae", "--seq", "ones", "--order", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1:] == ["n=1: 1", "n=2: 1 1", "n=3: 1 2 1", "n=4: 1 3 3 1"]


def test_compositae_inline_single_is_diagonal(capsys):
    code, out, _ = run(capsys, "compositae", "--seq", "inline:1", "--order", "3")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["n=1: 1", "n=2: 0 1", "n=3: 0 0 1"]


def test_compositae_fib_gf_row4_includes_zero(capsys):
    code, out, _ = run(capsys, "compositae", "--seq", "fib-gf", "--order", "5")
    assert code == 0
    assert "n=4: 0 1 3 1" in out


def test_compositae_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "compositae", "--seq", "primes1", "--order", "6", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "compositae"
    assert doc["input"] == {"seq": "primes1", "order": 6}
    table = compositae_dp(make_series(SequenceSpec("primes1", 6)), 6)
    assert doc["result"]["order"] == table.order
    assert [[int(v) for v in row] for row in doc["result"]["rows"]] == list(map(list, table.rows))


@pytest.mark.parametrize(
    "seq",
    [
        "fib-gf",
        "inline:0,3,0,0,-2,0,0,0,0,0,1",  # signed and sparse
        "inline:" + ",".join(str((-1) ** k * (k % 7 + 1)) for k in range(40)),  # dense
    ],
    ids=["fib-gf", "sparse", "dense"],
)
def test_compositae_json_text_is_json_dumps_of_the_string_rows(capsys, seq):
    code, out, err = run(capsys, "compositae", "--seq", seq, "--order", "40", "--format", "json")
    table = compositae_dp(make_series(SequenceSpec(seq, 40)), 40)
    rows = [[str(v) for v in row] for row in table.rows]
    doc = {"command": "compositae", "input": {"seq": seq, "order": 40}}
    doc["result"] = {"order": 40, "rows": rows}
    assert (code, out, err) == (0, json.dumps(doc, indent=2) + "\n", "")


def test_table_payload_holds_the_tables_own_ints():
    table = compositae_dp(make_series(SequenceSpec("fib-gf", 30)), 30)
    rows = table_to_payload(table)["rows"]
    assert all(rows[i][k] is table.rows[i][k] for i in range(30) for k in range(i + 1))


# ---------------------------------------------------------------------------
# loggf


def test_loggf_fib_gf_prints_lucas_tail(capsys):
    code, out, _ = run(capsys, "loggf", "--seq", "fib-gf", "--order", "17")
    assert code == 0
    assert out.strip().splitlines()[-1].split("\t")[1] == "3571"


def test_loggf_inline_x_ng_all_ones(capsys):
    code, out, _ = run(capsys, "loggf", "--seq", "inline:1", "--order", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["ng"] == ["1", "1", "1", "1", "1"]


def test_loggf_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "loggf", "--seq", "catalan-shifted", "--order", "10", "--format", "json"
    )
    doc = json.loads(out)
    ls = log_superposition(make_series(SequenceSpec("catalan-shifted", 10)), 10)
    result = doc["result"]
    assert result["order"] == ls.order
    assert [int(v) for v in result["ng"]] == list(ls.ng)
    assert [Fraction(v) for v in result["g"]] == [ls.g.coeff(n) for n in range(1, 11)]
    assert [int(v) for v in result["h"]] == list(ls.h)
    assert result["ng"][-1] == "92378"


# ---------------------------------------------------------------------------
# theorem


def test_theorem_primes1_380(capsys):
    code, out, _ = run(capsys, "theorem", "--seq", "primes1", "--n", "6")
    assert code == 0
    assert "380" in out and "(integral)" in out


def test_theorem_ones_n10(capsys):
    code, out, _ = run(capsys, "theorem", "--seq", "ones", "--n", "10", "--format", "json")
    doc = json.loads(out)
    result = doc["result"]
    assert (int(result["n"]), Fraction(result["value"]), result["integral"]) == (10, 1023, True)
    assert doc["input"]["n"] == doc["result"]["n"] == "10"


def test_theorem_zero_series(capsys):
    code, out, _ = run(capsys, "theorem", "--seq", "inline:0", "--n", "5")
    assert code == 0
    assert ": 0 (integral)" in out


def test_theorem_explicit_order_below_n_is_usage_error(capsys):
    code, _, err = run(capsys, "theorem", "--seq", "ones", "--order", "4", "--n", "6")
    assert code == 2
    assert "below the largest requested n" in err


@pytest.mark.parametrize(
    "argv,at_least",
    [
        (["witness", "--test", "generic", "--seq", "ones", "--n", "10"], 10),
        (["scan", "--test", "generic", "--seq", "ones", "--hi", "20"], 20),
    ],
    ids=["witness", "scan"],
)
def test_explicit_order_below_requested_n_is_usage_error_for_every_command(capsys, argv, at_least):
    code, out, err = run(capsys, *argv, "--order", "5")
    assert (code, out) == (2, "")
    assert f"--order 5 is below the largest requested n ({at_least})" in err


@pytest.mark.parametrize("order", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["compositae", "--seq", "ones"],
        ["loggf", "--seq", "ones"],
        ["theorem", "--seq", "ones", "--n", "6"],
        ["witness", "--test", "generic", "--seq", "ones", "--n", "10"],
        ["scan", "--test", "generic", "--seq", "ones", "--hi", "20"],
    ],
    ids=["compositae", "loggf", "theorem", "witness", "scan"],
)
def test_order_below_one_is_usage_error_for_every_command(capsys, argv, order):
    code, out, err = run(capsys, *argv, "--order", order)
    assert (code, out) == (2, "")
    assert err == f"logseries {argv[0]}: error: sequence order must be a positive integer\n"


@pytest.mark.parametrize(
    "bounds,message",
    [
        (["--lo", "3000000", "--hi", "2000000"], "need 2 <= lo <= hi, got lo=3000000, hi=2000000"),
        (["--lo", "1", "--hi", "100000"], "need 2 <= lo <= hi, got lo=1, hi=100000"),
        (["--hi", "100000", "--threads", "0"], "threads must be >= 1"),
    ],
    ids=["lo-above-hi", "lo-below-2", "no-threads"],
)
def test_invalid_generic_scan_exits_2_before_building_its_series(capsys, monkeypatch, bounds, message):
    calls = []
    monkeypatch.setattr(cli._module, "make_series", lambda spec: calls.append(spec))
    code, out, err = run(capsys, "scan", "--test", "generic", "--seq", "primes1", *bounds)
    assert (code, out, calls) == (2, "", [])
    assert err == f"logseries scan: error: {message}\n"


def test_theorem_auto_raises_order_beyond_default(capsys):
    code, out, _ = run(capsys, "theorem", "--seq", "ones", "--n", "70", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["value"] == str(2**70 - 1)


# ---------------------------------------------------------------------------
# witness


def test_witness_lucas_705_passes_flagged_pseudoprime(capsys):
    code, out, _ = run(capsys, "witness", "--test", "lucas", "--n", "705")
    assert code == 0
    assert "passes" in out and "PSEUDOPRIME" in out


def test_witness_flags_the_miller_rabin_bound_as_pseudoprime(capsys):
    # 1287836182261 * 2575672364521, a strong pseudoprime to every base 2..41
    n = "3317044064679887385961981"
    code, out, _ = run(capsys, "witness", "--test", "fermat2", "--n", n)
    assert code == 0
    assert "passes" in out and "prime=False" in out and "PSEUDOPRIME" in out
    code, out, _ = run(capsys, "witness", "--test", "fermat2", "--n", n, "--format", "json")
    doc = json.loads(out)
    assert doc["input"] == {"test": "fermat2", "n": n}
    assert doc["result"]["n"] == n  # a string: a double would round it
    assert int(doc["result"]["n"]) == int(n)


def test_witness_central_binomial_4_witnessed(capsys):
    code, out, _ = run(capsys, "witness", "--test", "central-binomial", "--n", "4")
    assert code == 1
    assert "composite-witnessed" in out


def test_witness_fermat2_2_passes(capsys):
    code, out, _ = run(capsys, "witness", "--test", "fermat2", "--n", "2")
    assert code == 0
    assert "passes" in out


def test_witness_generic_needs_seq(capsys):
    code, _, err = run(capsys, "witness", "--test", "generic", "--n", "10")
    assert code == 2
    assert "--seq" in err


def test_witness_generic_fib_gf(capsys):
    code, out, _ = run(
        capsys, "witness", "--test", "generic", "--seq", "fib-gf", "--n", "705",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert int(doc["result"]["residue"]) == witness_lucas(705).residue


def test_witness_generic_perrin_flags_271441(capsys):
    # x^2 + x^3 makes n*g(n) the Perrin number P(n); 271441 = 521^2 is the
    # first composite n with P(n) = 0 mod n (Adams and Shanks, 1982).
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "witness", "--test", "generic", "--seq", "inline:0,1,1", "--n", "271441",
        "--format", "json",
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    result = json.loads(out)["result"]
    assert result["residue"] == "0"
    assert result["pseudoprime"] is True
    assert result["is_prime_actual"] is False
    assert result["note"] == "degenerate: f(1) = 0, so the k = n term vanishes"
    assert elapsed < 1.0


def test_witness_json_round_trips(capsys):
    code, out, _ = run(capsys, "witness", "--test", "fermat2", "--n", "341", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    report = witness_fermat2(341)
    assert doc["result"] == {
        "n": str(report.n),
        "test": report.test,
        "residue": str(report.residue),
        "verdict": report.verdict,
        "is_prime_actual": report.is_prime_actual,
        "pseudoprime": report.is_pseudoprime,
        "note": report.note,
    }
    assert doc["result"]["pseudoprime"] is True


# ---------------------------------------------------------------------------
# scan


def test_scan_fermat2_hi_2000(capsys):
    code, out, _ = run(capsys, "scan", "--test", "fermat2", "--hi", "2000")
    assert code == 0
    assert "341 561 645 1105 1387 1729 1905" in out


def test_scan_lucas_hi_705(capsys):
    code, out, _ = run(capsys, "scan", "--test", "lucas", "--hi", "705")
    assert code == 0
    assert "pseudoprimes (1): 705" in out


def test_scan_empty_result(capsys):
    code, out, _ = run(capsys, "scan", "--test", "fermat2", "--lo", "2", "--hi", "10")
    assert code == 0
    assert "(none)" in out


def test_scan_thread_flag_does_not_change_output(capsys):
    outputs = set()
    for threads in ("1", "3", "8"):
        code, out, _ = run(
            capsys, "scan", "--test", "lucas", "--hi", "1000", "--threads", threads
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def scan_json(scan):
    """The JSON result a scan prints, built from its ScanResult: exact numbers as str()."""
    return {
        "lo": str(scan.lo),
        "hi": str(scan.hi),
        "test": scan.test,
        "pseudoprimes": [str(n) for n in scan.pseudoprimes],
        "primes_checked": scan.primes_checked,
        "composites_checked": scan.composites_checked,
    }


def test_scan_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "scan", "--test", "fermat2", "--hi", "700", "--threads", "2",
        "--format", "json",
    )
    doc = json.loads(out)
    scan = scan_pseudoprimes("fermat2", 2, 700, threads=2)
    assert doc["result"] == scan_json(scan)
    assert doc["input"] == {"test": "fermat2", "lo": "2", "hi": "700", "threads": 2}
    assert doc["result"]["pseudoprimes"] == ["341", "561", "645"]
    assert (doc["result"]["primes_checked"], doc["result"]["composites_checked"]) == (125, 574)


def test_scan_generic_json_names_its_series_and_matches_fermat2(capsys):
    code, out, _ = run(
        capsys, "scan", "--test", "generic", "--seq", "ones", "--hi", "50", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == {"test": "generic", "lo": "2", "hi": "50", "threads": 1, "seq": "ones"}
    fermat2 = scan_pseudoprimes("fermat2", 2, 50)
    result = doc["result"]
    assert tuple(map(int, result["pseudoprimes"])) == fermat2.pseudoprimes
    assert (result["primes_checked"], result["composites_checked"]) == (
        fermat2.primes_checked,
        fermat2.composites_checked,
    )


def test_scan_json_writes_large_bounds_exactly(capsys):
    lo, hi = 10**17 + 1, 10**17 + 40  # past 2**53
    code, out, _ = run(
        capsys, "scan", "--test", "fermat2", "--lo", str(lo), "--hi", str(hi), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == {"test": "fermat2", "lo": str(lo), "hi": str(hi), "threads": 1}
    assert (doc["result"]["lo"], doc["result"]["hi"]) == (str(lo), str(hi))
    assert doc["result"] == scan_json(scan_pseudoprimes("fermat2", lo, hi))


# ---------------------------------------------------------------------------
# diagnostics and exit codes


def test_malformed_file_diagnostic_has_line_number(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1\noops\n3\n", encoding="utf-8")
    code, out, err = run(capsys, "compositae", "--seq", f"file:{path}", "--order", "3")
    assert code == 2
    assert out == ""
    assert f"{path}:2" in err


def test_inline_empty_field_is_input_error(capsys):
    code, out, err = run(capsys, "compositae", "--seq", "inline:1,,2", "--order", "5")
    assert code == 2
    assert out == ""
    assert err == "logseries compositae: error: inline coefficient 2 is empty: '1,,2'\n"


def test_exact_values_beyond_the_int_str_digit_limit(capsys):
    # CPython (3.10.7+) refuses int <-> str conversions past 4300 digits by
    # default; main() lifts that for its own call only.
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    big = "1" + "0" * 450  # 10**450, whose 10th power has 4501 digits
    code, out, err = run(
        capsys, "compositae", "--seq", f"inline:{big}", "--order", "10", "--format", "json"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["rows"][-1][-1] == "1" + "0" * 4500
    long_coefficient = "7" * 4400
    code, out, err = run(capsys, "theorem", "--seq", f"inline:{long_coefficient}", "--n", "1")
    assert (code, err) == (0, "")
    assert f": {long_coefficient} (integral)" in out
    assert get_limit() == limit


@pytest.mark.parametrize(
    "argv, first_line",
    [
        ("witness --test fermat2 --n 3", "witness fermat2  n=3: passes (residue 0, prime=True)"),
        ("compositae --seq ones --order 3", "compositae triangle  seq=ones  order=3"),
    ],
)
def test_a_profiler_still_reports_after_the_exit_freeze(argv, first_line):
    # `-m cProfile -m` runs cli's code in a bare dict, not a module, and
    # script() freezes the heap once main() returns; the command must still
    # run and exit normally, so the profiler's report follows its output.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "logseries.cli", *argv.split()],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(first_line + "\n")
    stats = proc.stdout.partition(" function calls ")[2]
    assert "Ordered by:" in stats and "(script)" in stats and "(main)" in stats


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--test", "fermat2", "--n", "341"],  # held in stdout's buffer
        ["compositae", "--seq", "ones", "--order", "300"],  # megabytes, past it
    ],
    ids=["short", "long"],
)
def test_closed_stdout_exits_3_with_one_stderr_line(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # A buffered stdout still holds the failed write at exit; the
    # interpreter's flush of it must not fail too.
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "logseries.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 3
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"logseries {argv[0]}: internal error: BrokenPipeError")


def test_unwritable_stdout_in_process_exits_3_and_keeps_fd_1(capsys, monkeypatch):
    class Unwritable(io.TextIOBase):  # write fails; fileno() is unsupported
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    fd_1 = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", Unwritable())
    code = main(["compositae", "--seq", "ones", "--order", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "logseries compositae: internal error: BrokenPipeError: [Errno 32] Broken pipe\n"
    assert os.path.samestat(os.fstat(1), fd_1)


def test_closed_stdout_stream_in_process_exits_3_not_2(capsys, monkeypatch):
    closed = io.StringIO()
    closed.close()
    monkeypatch.setattr(sys, "stdout", closed)
    code = main(["witness", "--test", "fermat2", "--n", "341"])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("logseries witness: internal error: ValueError: I/O operation on closed")


class Recording(io.TextIOBase):
    """A stdout that keeps each write as it comes; write number `fail_at` raises."""

    def __init__(self, fail_at=None):
        self.writes = []
        self.fail_at = fail_at

    def write(self, text):
        if len(self.writes) + 1 == self.fail_at:
            raise BrokenPipeError(32, "Broken pipe")
        self.writes.append(text)
        return len(text)


STREAMED = ["compositae", "--seq", "fib-gf", "--order", "200"]


def streamed_output(fmt):
    """The full output of STREAMED, built from the table, and its longest row's text.

    A JSON row is written with the indentation of its items and its
    brackets; a text row as its line and newline.
    """
    table = compositae_dp(make_series(SequenceSpec("fib-gf", 200)), 200)
    rows = [[str(v) for v in row] for row in table.rows]
    if fmt == "json":
        doc = {"command": "compositae", "input": {"seq": "fib-gf", "order": 200}}
        doc["result"] = {"order": 200, "rows": rows}
        longest = max(len(json.dumps(row, indent=2)) + 6 * (len(row) + 1) for row in rows)
        return json.dumps(doc, indent=2) + "\n", longest
    lines = ["compositae triangle  seq=fib-gf  order=200"]
    lines += [f"n={n}: " + " ".join(row) for n, row in enumerate(rows, 1)]
    return "".join(line + "\n" for line in lines), max(len(line) + 1 for line in lines)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_compositae_output_is_written_row_by_row(capsys, monkeypatch, fmt):
    expected, longest = streamed_output(fmt)
    stdout = Recording()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(STREAMED + ["--format", fmt])
    assert (code, capsys.readouterr().err) == (0, "")
    assert len(stdout.writes) > 200
    assert max(map(len, stdout.writes)) <= longest
    assert "".join(stdout.writes) == expected


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_write_failing_midway_exits_3_with_a_prefix_on_stdout(capsys, monkeypatch, fmt):
    expected, _ = streamed_output(fmt)
    stdout = Recording(fail_at=57)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(STREAMED + ["--format", fmt])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "logseries compositae: internal error: BrokenPipeError: [Errno 32] Broken pipe\n"
    out = "".join(stdout.writes)
    assert len(stdout.writes) == 56
    assert 0 < len(out) < len(expected) and expected.startswith(out)


def test_unknown_seq_kind_is_input_error(capsys):
    code, _, err = run(capsys, "loggf", "--seq", "nope", "--order", "4")
    assert code == 2
    assert "unknown sequence kind" in err


def test_internal_error_exits_3_not_witness_status(capsys, monkeypatch):
    # A fault inside the generic witness's recurrence is an internal error,
    # not a verdict: exit 3, nothing on stdout, one stderr line.
    def broken(f, order, mod=None):
        yield 1, 0
        raise ZeroDivisionError("injected fault in the recurrence")

    monkeypatch.setattr(witnesses, "_h_and_ng", broken)
    code, out, err = run(capsys, "witness", "--test", "generic", "--seq", "ones", "--n", "7")
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "logseries witness: internal error: ZeroDivisionError: injected fault in the recurrence"
    ]


def test_unexpected_exception_exits_3_with_one_stderr_line(capsys, monkeypatch):
    def broken(n):
        raise RuntimeError("boom")

    monkeypatch.setattr(witnesses, "is_prime", broken)
    code, out, err = run(capsys, "witness", "--test", "fermat2", "--n", "341")
    assert code == 3
    assert out == ""
    assert err == "logseries witness: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--test", "central-binomial", "--n", "100000001"],
        ["scan", "--test", "central-binomial", "--lo", "99999999", "--hi", "100000001"],
    ],
)
def test_central_binomial_above_its_limit_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "central-binomial witness needs n <= 100000000" in err


def test_argparse_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--test", "bogus", "--n", "5"])
    assert exc.value.code == 2


JSON_TEXT = st.text(st.sampled_from('a9 "\\/\n\t\x00\x1f\x7fé€\U0001d11e')) | st.text()
# A triangle row as table_to_payload writes it, and the same row with one
# item that json.dumps must escape, so render_json cannot join it verbatim.
DECIMALS = (["-12", "0", "7/3"] * 334)[:1000]


def with_middle(item: str) -> list[str]:
    return DECIMALS[:500] + [item] + DECIMALS[501:]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda inner: st.lists(inner) | st.dictionaries(JSON_TEXT, inner),
    max_leaves=20,
)


@settings(max_examples=100)
@given(JSON_TEXT, st.dictionaries(JSON_TEXT, JSON_VALUES), JSON_VALUES)
@example("c", {}, {"rows": [[], ["1", "-2"], ["x", 3, None], [True, {"k": []}]], "e": {}})
@example('q"\\', {"é": ["\x00", "\n"]}, [["\u2028", 2**200, -(2**70)]])
@example("compositae", {}, {"rows": [DECIMALS]})
@example("c", {}, {"rows": [with_middle('"')]})
@example("c", {}, {"rows": [with_middle("\\")]})
@example("c", {}, {"rows": [with_middle("\x7f")]})
@example("c", {}, {"rows": [with_middle("é")]})
@example("c", {}, {"rows": [["1", 2, "3"], ("4", -5)]})
@example("c", {}, {"rows": [["1", "", "2"], [""]]})
# Decimals, written by one %-format call each: empty, a 1-tuple, negative
# ints and Fractions, compared as the lists of their strings.
@example("c", {}, {"rows": [Decimals(), Decimals([7]), Decimals([-7]), [Decimals()]]})
@example("c", {}, {"rows": [Decimals([-12, 0, -(2**70)]), Decimals([Fraction(-7, 3), 5])]})
@example("loggf", {}, {"g": Decimals([Fraction(1, 2)]), "h": Decimals(range(-3, 3))})
def test_render_json_matches_json_dumps(command, inputs, result):
    expected = json.dumps(
        {"command": command, "input": inputs, "result": as_strings(result)}, indent=2
    )
    out = io.StringIO()
    render_json(out.write, command, inputs, result)
    assert out.getvalue() == expected


@pytest.mark.parametrize(
    "seq, order",
    [
        ("inline:" + "7" * 4400, 1),  # one row of one entry past 4300 digits
        ("inline:-1,0,-2", 5),  # negative entries
        ("inline:-" + "9" * 4301 + ",1", 3),
    ],
)
def test_main_renders_each_row_as_json_dumps(capsys, seq, order):
    # The digit limit is lifted by main() alone, around the %-format of each row.
    code, out, err = run(capsys, "compositae", "--seq", seq, "--order", str(order), "--format", "json")
    assert (code, err) == (0, "")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        table = compositae_dp(make_series(SequenceSpec(seq, order)), order)
        rows = [[str(v) for v in row] for row in table.rows]
        expected = {
            "command": "compositae",
            "input": {"seq": seq, "order": order},
            "result": {"order": order, "rows": rows},
        }
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert out == json.dumps(expected, indent=2) + "\n"


EXACT = (
    st.integers()
    | st.fractions()
    | st.builds(lambda m, e: m * 10**e, st.integers(), st.integers(4300, 4400))
)


def as_strings(value):
    """value with each Decimals list replaced by the list of its str()."""
    if isinstance(value, Decimals):
        return [str(v) for v in value]
    if isinstance(value, dict):
        return {key: as_strings(item) for key, item in value.items()}
    if isinstance(value, list):
        return [as_strings(item) for item in value]
    return value


MARKED = st.recursive(
    st.lists(EXACT, max_size=12).map(Decimals) | JSON_VALUES,
    lambda inner: st.lists(inner) | st.dictionaries(JSON_TEXT, inner),
    max_leaves=10,
)


@settings(max_examples=100)
@given(MARKED)
@example(Decimals())
@example(Decimals([-(10**4400), 0, 7, Fraction(-7, 3)]))
@example([Decimals([1]), {"k": Decimals([Fraction(1, 2)])}])
def test_render_json_writes_decimals_as_their_strings(marked):
    # str() of ints past CPython's 4300-digit limit (3.10.7+), as main() allows
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        expected = json.dumps(
            {"command": "c", "input": {}, "result": {"v": as_strings(marked)}}, indent=2
        )
        out = io.StringIO()
        render_json(out.write, "c", {}, {"v": marked})
        assert out.getvalue() == expected
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
