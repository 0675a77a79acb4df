"""Exact arithmetic for logarithmic generating functions.

Truncated integer/rational power series, the compositae triangle
F_delta(n, k), superposition of series through it, the integrality sums
n*g(n) and their prime-only truncation, and the compositeness witnesses
those sums induce (Fermat base 2, Lucas, central binomial), plus an
exhaustive pseudoprime scanner.

Each name in __all__ is imported from its defining module on first
access (PEP 562), so `import logseries` loads no submodule and a CLI
command loads only the modules it runs: a named witness or scan never
imports the series code, `fractions` or `decimal`.  _lazy is that
resolver; cli and witnesses use it too, for the series names they call
or that bench/tracing.py rebinds in them.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "compositae": (
        "BRUTE_FORCE_MAX_N", "CompositaeTable", "PartMultiset", "compositae_bruteforce",
        "compositae_dp", "compositions", "enumerate_part_multisets", "multinomial_count",
    ),
    "sequences": (
        "BUILTIN_KINDS", "CoefficientFileError", "SequenceSpec", "load_coefficient_file",
        "make_series", "parse_coefficient_text",
    ),
    "series": ("IntSeries", "LogSeries", "RatSeries"),
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


# (submodule, name) -> the object the first lazy lookup of that name found there
_resolved: dict = {}


def _lazy(namespace: dict, sources: dict):
    """A module __getattr__ for the module whose globals are `namespace`.

    A name in `sources` is imported on first access from the submodule of
    this package that sources[name] names, and bound in `namespace`
    unless something bound it first.  Code in that module calls such a
    name through its module object, so a wrapper or spy set there before
    the call is what runs.  Every module gets the object the name's first
    lookup found, as eager imports did: bench/tracing.py wraps
    superposition.theorem_sum between looking it up in witnesses and in
    cli, and must not wrap its own wrapper.
    """

    def __getattr__(name: str):
        if name not in sources:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        key = (sources[name], name)
        if key not in _resolved:
            module = f"{__name__}.{sources[name]}"
            __import__(module)  # not importlib.import_module, which -X importtime does not log
            _resolved[key] = getattr(sys.modules[module], name)
        return namespace.setdefault(name, _resolved[key])

    return __getattr__


__getattr__ = _lazy(globals(), {name: mod for mod, names in _EXPORTS.items() for name in names})


def __dir__() -> list:
    return sorted({*globals(), *__all__})
