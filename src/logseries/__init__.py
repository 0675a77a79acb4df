"""Exact arithmetic for logarithmic generating functions.

Truncated integer/rational power series, the compositae triangle
F_delta(n, k), superposition of series through it, the integrality sums
n*g(n) and their prime-only truncation, and the compositeness witnesses
those sums induce (Fermat base 2, Lucas, central binomial), plus an
exhaustive pseudoprime scanner.
"""

from .compositae import (
    BRUTE_FORCE_MAX_N,
    CompositaeTable,
    PartMultiset,
    compositae_bruteforce,
    compositae_dp,
    compositions,
    enumerate_part_multisets,
    multinomial_count,
)
from .sequences import (
    BUILTIN_KINDS,
    CoefficientFileError,
    SequenceSpec,
    load_coefficient_file,
    make_series,
    parse_coefficient_text,
)
from .series import IntSeries, LogSeries, RatSeries
from .superposition import (
    IntegralityError,
    LogSuperposition,
    corollary_sum,
    log_superposition,
    statement21_check,
    statement22_check,
    superpose,
    theorem_sum,
)
from .witnesses import (
    CENTRAL_BINOMIAL,
    COMPOSITE_WITNESSED,
    FERMAT2,
    LUCAS,
    NAMED_TESTS,
    PASSES,
    ScanResult,
    WitnessReport,
    is_prime,
    lucas_number,
    scan_pseudoprimes,
    witness_central_binomial,
    witness_fermat2,
    witness_generic,
    witness_lucas,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_MAX_N",
    "BUILTIN_KINDS",
    "CENTRAL_BINOMIAL",
    "COMPOSITE_WITNESSED",
    "CoefficientFileError",
    "CompositaeTable",
    "FERMAT2",
    "IntSeries",
    "IntegralityError",
    "LUCAS",
    "LogSeries",
    "LogSuperposition",
    "NAMED_TESTS",
    "PASSES",
    "PartMultiset",
    "RatSeries",
    "ScanResult",
    "SequenceSpec",
    "WitnessReport",
    "compositae_bruteforce",
    "compositae_dp",
    "compositions",
    "corollary_sum",
    "enumerate_part_multisets",
    "is_prime",
    "load_coefficient_file",
    "log_superposition",
    "lucas_number",
    "make_series",
    "multinomial_count",
    "parse_coefficient_text",
    "scan_pseudoprimes",
    "statement21_check",
    "statement22_check",
    "superpose",
    "theorem_sum",
    "witness_central_binomial",
    "witness_fermat2",
    "witness_generic",
    "witness_lucas",
]
