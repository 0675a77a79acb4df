"""Smoke runs of the experiment scripts as subprocesses."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scripts_run_and_report_the_pseudoprime_lists(tmp_path):
    examples = run_script("worked_examples.py", "--order", "16", "--scan-hi", "800")
    assert "pseudoprimes: 341, 561, 645\n" in examples
    assert "pseudoprimes: 705\n" in examples
    assert "n*g(n) for x^2 + x^3    : [0, 2, 3, 2, 5, 5, 7, 10, 12, 17, 22, 29] (Perrin numbers)\n" in examples
    assert (
        "Perrin test (generic witness on x^2 + x^3) at n = 271441 = 521^2: "
        "residue 0, prime=False, pseudoprime=True\n"
    ) in examples

    out = tmp_path / "census.json"
    census = run_script("pseudoprime_census.py", "--hi", "2000", "--json-out", str(out))
    rows = {line.split()[0]: line for line in census.splitlines()[1:]}
    assert rows["fermat2"].endswith("  341, 561, 645, 1105, 1387, 1729, 1905")
    assert rows["lucas"].endswith("  705")

    # the exact binomial and trial division, independent of the package
    composites = (n for n in range(4, 2001) if any(n % d == 0 for d in range(2, math.isqrt(n) + 1)))
    expected = [n for n in composites if (math.comb(2 * n - 1, n - 1) - 1) % n == 0]
    by_test = {row["test"]: row for row in json.loads(out.read_text(encoding="utf-8"))}
    assert by_test["central-binomial"]["hi"] == 2000
    assert by_test["central-binomial"]["pseudoprimes"] == expected
