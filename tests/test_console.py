"""The "Installed console script" checks of .github/workflows/tests.yml, in Tier-1.

Each check below runs the CLI as `python -m logseries.cli` in a child
process and asserts the text the CI step greps for and the exit code it
accepts.  A CI line whose check a Tier-1 test already makes is not run
twice; its twin is cited instead:

- `scan --test lucas --hi 705`: tests/test_cli.py::test_scan_lucas_hi_705.
- `witness --test fermat2 --n 341550071728321` is a pseudoprime:
  tests/test_witnesses.py::test_psi_7_passes_fermat2_and_falls_to_the_ninth_base,
  with its JSON field by tests/test_cli.py::test_witness_json_round_trips.
- `witness --test fermat2 --n 341` passes:
  tests/test_cli.py::test_witness_json_round_trips.
- `witness --test central-binomial --n 27173` is a pseudoprime:
  tests/test_witnesses.py::test_central_binomial_27173_is_the_square_free_passer.
- `witness --test generic --seq inline:0,1,1 --n 271441` is a pseudoprime:
  tests/test_cli.py::test_witness_generic_perrin_flags_271441.
- the two `-X importtime` checks: `LOADS` in tests/test_lazy_imports.py
  lists every module each command loads, `json` among those watched.
- `witness --test fermat2 --n 4` exits 1: the exit codes of a witnessed
  composite, tests/test_cli.py::test_witness_central_binomial_4_witnessed.
- `loggf --seq catalan-shifted --order 10` JSON values:
  tests/test_cli.py::test_loggf_json_round_trips.
- an invalid scan range exits 2 before the series is built:
  tests/test_cli.py::test_invalid_generic_scan_exits_2_before_building_its_series.
- `witness --test fermat2 --n 7 --seq ones` exits 2, since a named test
  takes no series: tests/test_cli.py::test_named_test_rejects_seq_and_order[witness-seq].
- `theorem --seq ones --n 200` is 2^200 - 1 through the packed kernel:
  tests/test_acceptance.py::test_criterion_2_all_ones_gives_mersenne_numbers
  (n to 64, 64 support terms, so the packed kernel too).
- `theorem --seq inline:1,-1,... --n 200` is -1 and `theorem --seq
  inline:2,2,... --n 200` is 3^200 - 1, through the packed kernel's
  c = +-1 and general-c terms:
  tests/test_cli.py::test_theorem_200_through_the_packed_kernel.
- `compositae --seq ones --order 300 --format json` parses whole:
  tests/test_cli.py::test_compositae_json_text_is_json_dumps_of_the_string_rows
  and tests/test_cli.py::test_main_renders_each_row_as_json_dumps.
- `loggf --seq fib-gf --order 300 --format json` parses whole, with
  n*g(n) = ng(n) at every n: tests/test_cli.py::test_loggf_json_n_times_g_is_ng_at_every_n.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# `ulimit -v 200000` in the CI step: 200000 KiB of address space.
ADDRESS_SPACE_LIMIT = 200000 * 1024


def limit_address_space():
    # Runs in the child between fork and exec, so only the child is limited.
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def logseries(*argv, preexec_fn=None):
    proc = subprocess.run(
        [sys.executable, "-m", "logseries.cli", *argv],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=120,
        preexec_fn=preexec_fn,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv, line",
    [
        # The sign-free Lucas ladder: the Lucas pseudoprimes below 10^4.
        ("scan --test lucas --hi 10000", "pseudoprimes (7): 705 2465 2737 3745 4181 5777 6721"),
        # The generic scan streams exact values to hi, holding O(d) of them.
        ("scan --test generic --seq inline:0,1,1 --lo 271430 --hi 271450", "pseudoprimes (1): 271441"),
    ],
    ids=["lucas-below-10^4", "perrin-window"],
)
def test_scan_prints_the_pseudoprimes_the_ci_step_greps_for(argv, line):
    code, out, err = logseries(*argv.split())
    assert (code, err) == (0, "")
    assert line in out.splitlines(), out


def test_central_binomial_at_99999744_runs_below_200_mb_of_address_space():
    # 99999744 = 2^13 * 12207: no route allocates O(n).  It is composite and
    # witnessed, so the CI step accepts exit 1.
    code, out, err = logseries(
        "witness", "--test", "central-binomial", "--n", "99999744", "--format", "json",
        preexec_fn=limit_address_space,
    )
    assert (code, err) == (1, "")
    assert '    "residue": "37499903",' in out.splitlines()


def test_an_order_above_the_table_cap_exits_2_below_200_mb_of_address_space():
    # The cap is checked before the series is built, so the 10^8 coefficients
    # of ones are never allocated.
    code, out, err = logseries(
        "compositae", "--seq", "ones", "--order", "100000000", preexec_fn=limit_address_space,
    )
    assert (code, out) == (2, "")
    assert err == (
        "logseries compositae: error: order 100000000 is above 1000, "
        "the largest order of compositae, loggf and theorem\n"
    )

