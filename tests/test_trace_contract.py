"""The benchmark's tracer still fits the program: its hooks resolve and a traced run works.

bench/tracing.py rebinds named functions in named modules and counts
from the compositae table each theorem_sum or log_superposition call
used.  A rename or a route that builds no table would otherwise show
only as a failed benchmark run.
"""

import contextlib
import importlib
import io
from pathlib import Path

import pytest

from logseries import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

# theorem runs first: its counter reads the table its own call built, not
# one left behind by an earlier job.
JOBS = [
    ("theorem", ["theorem", "--seq", "primes1", "--n", "24"]),
    ("loggf", ["loggf", "--seq", "fib-gf", "--order", "20", "--format", "json"]),
    ("witness", ["witness", "--test", "generic", "--seq", "ones", "--n", "15"]),
    ("scan-generic", ["scan", "--test", "generic", "--seq", "ones", "--hi", "20"]),
    ("scan-fermat2", ["scan", "--test", "fermat2", "--hi", "50", "--format", "json"]),
    ("witness-cb", ["witness", "--test", "central-binomial", "--n", "2003"]),
    ("scan-lucas", ["scan", "--test", "lucas", "--hi", "50"]),
    ("compositae", ["compositae", "--seq", "ones", "--order", "10", "--format", "json"]),
]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def plain_run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


def test_every_traced_hook_resolves(tracing):
    for name, sites in tracing.TRACED.items():
        for module_name, attr in sites:
            module = importlib.import_module(f"logseries.{module_name}")
            assert callable(getattr(module, attr, None)), f"{name}: logseries.{module_name}.{attr}"


def test_traced_jobs_match_plain_runs(tracing):
    expected = {job_id: plain_run(argv) for job_id, argv in JOBS}
    originals = {
        (module, attr): getattr(importlib.import_module(f"logseries.{module}"), attr)
        for sites in tracing.TRACED.values()
        for module, attr in sites
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for job_id, argv in JOBS:
            code, out, _wall = tracer.run_job(job_id, lambda argv=argv: cli.main(argv))
            assert (code, out) == expected[job_id], job_id
    finally:
        tracer.uninstall()

    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(f"logseries.{module}"), attr) is fn
    names = {job_id: {span[0] for span in tracer.spans if span[4] == job_id} for job_id, _ in JOBS}
    assert "compositae.compositae_dp" in names["theorem"]
    assert "witnesses.witness_generic" in names["witness"]
    assert "witnesses.scan_pseudoprimes" in names["scan-generic"]
    assert "witnesses.witness_central_binomial" in names["witness-cb"]
    for job_id in ("theorem", "loggf", "witness", "scan-generic"):
        assert tracer.counts[job_id]["superposition.fraction_terms"] > 0, job_id
    assert tracer.counts["scan-fermat2"]["witnesses.n_checked"] == 49
    assert tracer.counts["scan-lucas"]["witnesses.n_checked"] == 49
    assert {"compositae.compositae_dp", "cli.table_to_payload", "cli.render_json"} <= names["compositae"]
    assert tracer.counts["compositae"]["compositae.cells"] == 55
