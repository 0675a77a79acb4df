"""What each command imports, and the contract of the names resolved on first use.

The package, cli and witnesses import their series names on first
access (PEP 562), so a named witness or scan loads no series code.  The
names bench/tracing.py rebinds, or tests spy on, stay module attributes
that the code calls at call time.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logseries
from logseries import cli, superposition, witnesses

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

NAMED = {"logseries", "logseries._value", "logseries.cli", "logseries.witnesses"}
SERIES = NAMED | {"logseries.compositae", "logseries.sequences", "logseries.series"}
EVERYTHING = SERIES | {"logseries.superposition", "fractions", "decimal"}

LOADED_AFTER_MAIN = """
import contextlib, io, sys
from logseries import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
watched = ("fractions", "decimal", "json")
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "logseries" or m in watched)))
"""


def python(*args):
    # -S keeps site and its .pth files, which may import modules themselves, out of the result
    proc = subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, text=True, env=ENV, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# argv -> the modules loaded after cli.main(argv) returns
LOADS = {
    "witness --test fermat2 --n 3 --format json": NAMED,
    "witness --test lucas --n 705": NAMED,
    "witness --test central-binomial --n 27173": NAMED,
    "scan --test fermat2 --hi 400 --format json": NAMED,
    "scan --test central-binomial --hi 100": NAMED,
    "compositae --seq ones --order 6": SERIES - {"logseries.witnesses"},
    "compositae --seq fib-gf --order 6 --format json": SERIES - {"logseries.witnesses"},
    "witness --test generic --seq inline:0,1,1 --n 30": SERIES,
    "scan --test generic --seq ones --hi 30": SERIES,
    "loggf --seq primes1 --order 8": EVERYTHING - {"logseries.witnesses"},
    "theorem --seq ones --n 9 --format json": EVERYTHING - {"logseries.witnesses"},
}


@pytest.mark.parametrize("argv", LOADS)
def test_each_command_loads_only_the_modules_it_runs(argv):
    assert set(python("-c", LOADED_AFTER_MAIN, *argv.split()).split()) == LOADS[argv]


@pytest.mark.parametrize(
    "argv",
    [
        "witness --test fermat2 --n 341",
        "scan --test lucas --hi 50",
        "compositae --seq ones --order 4",
        "loggf --seq fib-gf --order 4",
        "theorem --seq primes1 --n 6",
    ],
)
def test_module_run_writes_nothing_to_stderr(argv):
    # runpy warns on stderr if the package imported logseries.cli before running it as __main__.
    proc = subprocess.run(
        [sys.executable, "-m", "logseries.cli", *argv.split()],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


def test_importing_the_package_loads_no_submodule_and_submodules_still_import():
    code = (
        "import sys, logseries\n"
        "print(sorted(m for m in sys.modules if m.startswith('logseries.')))\n"
        "from logseries import cli, witnesses\n"
        "print(cli.__name__, witnesses.__name__)\n"
    )
    assert python("-c", code).splitlines() == ["[]", "logseries.cli logseries.witnesses"]


def test_every_public_name_is_its_defining_modules_object():
    assert logseries.__all__ == sorted(name for names in logseries._EXPORTS.values() for name in names)
    assert len(set(logseries.__all__)) == len(logseries.__all__) == 30
    for module_name, names in logseries._EXPORTS.items():
        module = importlib.import_module(f"logseries.{module_name}")
        for name in names:
            value = getattr(logseries, name)
            assert value is module.__dict__[name], name
            assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert set(logseries.__all__) <= set(dir(logseries))
    namespace = {}
    exec("from logseries import *", namespace)
    assert set(logseries.__all__) <= set(namespace)


def test_the_package_ships_no_compositae_oracle_and_no_index_accessor():
    # The definitional routes are test oracles (tests/compositae_oracles.py).
    from logseries import compositae, sequences

    oracles = (
        "BRUTE_FORCE_MAX_N", "PartMultiset", "compositae_bruteforce", "compositions",
        "enumerate_part_multisets", "multinomial_count",
    )
    for module in (logseries, compositae, sequences):
        for name in oracles:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(superposition.LogSuperposition, "ng_at")
    assert not hasattr(superposition.LogSuperposition, "h_at")


def test_the_package_has_one_integer_sequence_type():
    # The a of statements 2.1 and 2.2 is an IntSeries; tests/series_oracles.py::log_series
    # makes its series sum a(k)/k x^k.
    from logseries import series

    for module in (logseries, series):
        assert not hasattr(module, "LogSeries"), module.__name__
    assert "LogSeries" not in logseries.__all__
    classes = [
        name for name, value in vars(series).items()
        if isinstance(value, type) and value.__module__ == series.__name__
    ]
    assert classes == ["IntSeries", "RatSeries"]


@pytest.mark.parametrize("module", [logseries, cli, witnesses], ids=lambda m: m.__name__)
def test_an_unknown_name_raises_attribute_error_naming_it(module):
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        module.no_such_name  # noqa: B018


def test_traced_theorem_sum_is_one_object_in_every_module():
    assert cli.theorem_sum is witnesses.theorem_sum is superposition.theorem_sum


def test_a_spy_set_before_the_first_call_is_what_runs():
    # In a fresh process the lazy names are still unbound when the spies are set.
    code = """
import contextlib, io
from logseries import cli, witnesses
from logseries.compositae import _h_and_ng, compositae_dp
calls = []
def spying(name, real):
    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return spy
cli.compositae_dp = spying("compositae_dp", compositae_dp)
witnesses._h_and_ng = spying("_h_and_ng", _h_and_ng)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["compositae", "--seq", "ones", "--order", "5"])
    cli.main(["witness", "--test", "generic", "--seq", "ones", "--n", "7"])
    cli.main(["scan", "--test", "generic", "--seq", "ones", "--hi", "9"])
print(*calls)
"""
    assert python("-c", code).split() == ["compositae_dp", "_h_and_ng", "_h_and_ng"]


def test_a_lazy_name_is_the_object_its_module_bound_when_imported():
    # compositae and witnesses are imported and their names replaced before
    # any lazy lookup: cli and the package still get the functions defined.
    code = """
import logseries
from logseries import cli, compositae, witnesses
real = compositae.compositae_dp, witnesses.witness_fermat2
compositae.compositae_dp = witnesses.witness_fermat2 = None
print(cli.compositae_dp is real[0], cli.witness_fermat2 is real[1])
print(logseries.compositae_dp is real[0], logseries.witness_fermat2 is real[1])
"""
    assert python("-c", code).split() == ["True"] * 4


def test_a_tracer_installed_before_any_lookup_wraps_each_name_once():
    # bench/run.py installs its tracer before any job has looked theorem_sum up,
    # and the tracer wraps superposition's before it reads cli's.
    code = f"""
import importlib, sys
sys.path.insert(0, {str(ROOT / "bench")!r})
from logseries import cli, superposition
from tracing import TRACED, Tracer
for _ in range(2):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_job("theorem", lambda: cli.main(["theorem", "--seq", "primes1", "--n", "12"]))
    finally:
        tracer.uninstall()
    print(sum(span[0] == "superposition.theorem_sum" for span in tracer.spans))
sites = [(importlib.import_module("logseries." + m), a) for s in TRACED.values() for m, a in s]
print(not any(hasattr(getattr(module, attr), "__wrapped__") for module, attr in sites))
print(cli.theorem_sum is superposition.theorem_sum)
"""
    assert python("-c", code).split() == ["1", "1", "True", "True"]
