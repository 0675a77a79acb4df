"""CLI surface: commands, exit codes, JSON schema round-trips."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logseries import compositae_dp, log_superposition, make_series, scan_pseudoprimes
from logseries import SequenceSpec, witness_fermat2, witness_lucas, witnesses
from logseries.cli import (
    loggf_from_payload,
    loggf_to_payload,
    main,
    render_json,
    scan_from_payload,
    scan_to_payload,
    table_from_payload,
    table_to_payload,
    theorem_from_payload,
    theorem_to_payload,
    witness_from_payload,
    witness_to_payload,
)


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
    f = make_series(SequenceSpec("primes1", 6))
    assert table_from_payload(doc["result"]) == compositae_dp(f, 6)


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
    f = make_series(SequenceSpec("catalan-shifted", 10))
    assert loggf_from_payload(doc["result"]) == log_superposition(f, 10)
    assert doc["result"]["ng"][-1] == "92378"


# ---------------------------------------------------------------------------
# theorem


def test_theorem_primes1_380(capsys):
    code, out, _ = run(capsys, "theorem", "--seq", "primes1", "--n", "6")
    assert code == 0
    assert "380" in out and "(integral)" in out


def test_theorem_ones_n10(capsys):
    code, out, _ = run(capsys, "theorem", "--seq", "ones", "--n", "10", "--format", "json")
    doc = json.loads(out)
    n, value, integral = theorem_from_payload(doc["result"])
    assert (n, value, integral) == (10, 1023, True)


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
    assert witness_from_payload(doc["result"]).residue == witness_lucas(705).residue


def test_witness_json_round_trips(capsys):
    code, out, _ = run(capsys, "witness", "--test", "fermat2", "--n", "341", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert witness_from_payload(doc["result"]) == witness_fermat2(341)
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


def test_scan_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "scan", "--test", "fermat2", "--hi", "700", "--threads", "2",
        "--format", "json",
    )
    doc = json.loads(out)
    assert scan_from_payload(doc["result"]) == scan_pseudoprimes("fermat2", 2, 700, threads=2)


# ---------------------------------------------------------------------------
# diagnostics and exit codes


def test_malformed_file_diagnostic_has_line_number(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1\noops\n3\n", encoding="utf-8")
    code, out, err = run(capsys, "compositae", "--seq", f"file:{path}", "--order", "3")
    assert code == 2
    assert out == ""
    assert f"{path}:2" in err


def test_unknown_seq_kind_is_input_error(capsys):
    code, _, err = run(capsys, "loggf", "--seq", "nope", "--order", "4")
    assert code == 2
    assert "unknown sequence kind" in err


def test_internal_error_exits_3_not_witness_status(capsys, monkeypatch):
    monkeypatch.setattr(witnesses, "theorem_sum", lambda f, n, table=None: Fraction(1, 2))
    code, out, err = run(capsys, "witness", "--test", "generic", "--seq", "ones", "--n", "7")
    assert code == 3
    assert out == ""
    assert err.startswith("logseries witness: internal error: n*g(n) came out fractional")


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
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda inner: st.lists(inner) | st.dictionaries(JSON_TEXT, inner),
    max_leaves=20,
)


@settings(max_examples=100)
@given(JSON_TEXT, st.dictionaries(JSON_TEXT, JSON_VALUES), JSON_VALUES)
@example("c", {}, {"rows": [[], ["1", "-2"], ["x", 3, None], [True, {"k": []}]], "e": {}})
@example('q"\\', {"é": ["\x00", "\n"]}, [["\u2028", 2**200, -(2**70)]])
def test_render_json_matches_json_dumps(command, inputs, result):
    expected = json.dumps({"command": command, "input": inputs, "result": result}, indent=2)
    assert render_json(command, inputs, result) == expected


def test_json_codecs_preserve_exact_values():
    # direct codec checks, independent of the process surface
    f = make_series(SequenceSpec("fib-gf", 9))
    table = compositae_dp(f, 9)
    assert table_from_payload(table_to_payload(table)) == table
    ls = log_superposition(f, 9)
    assert loggf_from_payload(loggf_to_payload(ls)) == ls
    report = witness_fermat2(561)
    assert witness_from_payload(witness_to_payload(report)) == report
    scan = scan_pseudoprimes("lucas", 2, 30)
    assert scan_from_payload(scan_to_payload(scan)) == scan
    n, value, integral = theorem_from_payload(theorem_to_payload(7, Fraction(126, 7)))
    assert (n, value, integral) == (7, 18, True)
