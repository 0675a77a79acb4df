"""Smoke runs of the experiment scripts as subprocesses."""

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


def test_scripts_run_and_report_the_pseudoprime_lists():
    examples = run_script("worked_examples.py", "--order", "16", "--scan-hi", "800")
    assert "pseudoprimes: 341, 561, 645\n" in examples
    assert "pseudoprimes: 705\n" in examples

    census = run_script("pseudoprime_census.py", "--hi", "2000")
    rows = {line.split()[0]: line for line in census.splitlines()[1:]}
    assert rows["fermat2"].endswith("  341, 561, 645, 1105, 1387, 1729, 1905")
    assert rows["lucas"].endswith("  705")
