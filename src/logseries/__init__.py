"""Exact arithmetic for logarithmic generating functions.

Truncated integer/rational power series, the compositae triangle
F_delta(n, k), superposition of series through it, the integrality sums
n*g(n) and their prime-only truncation, and the compositeness witnesses
those sums induce (Fermat base 2, Lucas, central binomial), plus an
exhaustive pseudoprime scanner.

Each name in __all__ is imported from its defining module on first
access (PEP 562), so `import logseries` loads no submodule and a CLI
command loads only the modules it runs: a named witness or scan never
imports the series code, `fractions` or `decimal`, and compositae, loggf
and theorem never import the witnesses.  _lazy is that resolver; cli and
witnesses use it too, for the names they call or that bench/tracing.py
rebinds in them.  The witness test names are defined here, not in
witnesses, so that cli builds its --test choices without importing it.
"""

import sys

__version__ = "0.1.0"

# The witness tests by name; witnesses re-exports all but GENERIC.
FERMAT2, LUCAS, CENTRAL_BINOMIAL, GENERIC = "fermat2", "lucas", "central-binomial", "generic"
NAMED_TESTS = (FERMAT2, LUCAS, CENTRAL_BINOMIAL)

_EXPORTS = {
    "compositae": ("CompositaeTable", "compositae_dp"),
    "sequences": ("CoefficientFileError", "SequenceSpec", "make_series"),
    "series": ("IntSeries", "RatSeries"),
    "superposition": (
        "IntegralityError", "LogSuperposition", "corollary_sum", "log_superposition",
        "statement21_check", "statement22_check", "superpose", "theorem_sum",
    ),
    "witnesses": (
        "CENTRAL_BINOMIAL", "COMPOSITE_WITNESSED", "FERMAT2", "LUCAS", "NAMED_TESTS", "PASSES",
        "ScanResult", "WitnessReport", "is_prime", "lucas_number", "scan_pseudoprimes",
        "witness_central_binomial", "witness_fermat2", "witness_generic", "witness_lucas",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


# submodule -> a copy of its globals as its import finished
_bound: dict = {}


class _Package(type(sys)):
    def __setattr__(self, name: str, value) -> None:
        # The import system binds each submodule here once its import has finished.
        if name in _EXPORTS:
            _bound[name] = dict(vars(value))
        super().__setattr__(name, value)


def _lazy(namespace: dict, sources: dict):
    """A module __getattr__ for the module whose globals are `namespace`.

    A name in `sources` is imported on first access from the submodule of
    this package that sources[name] names, and bound in `namespace`
    unless something bound it first.  Code in that module calls such a
    name through its module object, so a wrapper or spy set there before
    the call is what runs.  The name resolves to the object its submodule
    bound when its import finished, not to what that submodule holds at
    the lookup: bench/tracing.py may import witnesses and wrap its
    witness_* before cli first looks them up, and must not wrap its own
    wrapper.
    """

    def __getattr__(name: str):
        if name not in sources:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        __import__(f"{__name__}.{sources[name]}")  # not importlib.import_module, which -X importtime does not log
        return namespace.setdefault(name, _bound[sources[name]][name])

    return __getattr__


__getattr__ = _lazy(globals(), {name: mod for mod, names in _EXPORTS.items() for name in names})


def __dir__() -> list:
    return sorted({*globals(), *__all__})


sys.modules[__name__].__class__ = _Package
