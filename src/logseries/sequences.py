"""Named integer-series registry and the coefficient file format.

Built-in kinds:
    ones             f(i) = 1
    primes1          f(1) = 1, then f(2), f(3), ... = 2, 3, 5, 7, 11, ...,
                     read off the package's one prime sieve
    fib-gf           f(1) = f(2) = 1, all other coefficients 0
    catalan-shifted  f(n) = Catalan(n-1) = 1, 1, 2, 5, 14, 42, ...
    file:<path>      coefficients read from a text file
    inline:<ints>    comma-separated coefficients, e.g. inline:1,-2,3;
                     an empty field (inline:1,,2, a trailing comma, or
                     nothing after the colon) is an error

Coefficient files are UTF-8 text with one integer per line; blank lines
and lines starting with '#' are skipped, and the i-th surviving line
(1-based) is f(i).  Coefficients beyond the requested order are dropped;
missing trailing coefficients are 0.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from ._value import Value, _prime_flags, set_field
from .series import IntSeries

BUILTIN_KINDS = ("ones", "primes1", "fib-gf", "catalan-shifted")


class CoefficientFileError(ValueError):
    """Malformed coefficient file; carries the offending line number."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class SequenceSpec(Value):
    """A named or literal coefficient source plus a truncation order."""

    __slots__ = ("kind", "order")
    kind: str
    order: int

    def __init__(self, kind: str, order: int) -> None:
        if order < 1:
            raise ValueError("sequence order must be a positive integer")
        if kind not in BUILTIN_KINDS and not kind.startswith(("file:", "inline:")):
            raise ValueError(
                f"unknown sequence kind {kind!r}; expected one of "
                f"{', '.join(BUILTIN_KINDS)}, file:<path>, or inline:<ints>"
            )
        set_field(self, "kind", kind)
        set_field(self, "order", order)


def _primes1_values(order: int) -> list[int]:
    """1, then the first order - 1 primes, from a sieve doubled from 16 until it holds them."""
    size = 16
    while (flags := _prime_flags(size)).count(1) < order - 1:
        size *= 2
    return [1, *itertools.islice(itertools.compress(range(size), flags), order - 1)]


def _catalan_shifted_values(order: int) -> list[int]:
    """Catalan(m) for m < order, by Catalan(m+1) = Catalan(m) * 2(2m+1) / (m+2),
    whose division is exact."""
    values = [c := 1]
    for m in range(order - 1):
        values.append(c := c * (4 * m + 2) // (m + 2))
    return values


def parse_coefficient_text(text: str, *, path: str = "<inline>") -> list[int]:
    """Coefficient list from file-format text, with line-accurate errors."""
    values: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise CoefficientFileError(path, line_no, f"not an integer: {line!r}") from None
    return values


def load_coefficient_file(path: str | Path) -> list[int]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise CoefficientFileError(str(p), 0, f"cannot read file: {exc}") from None
    return parse_coefficient_text(text, path=str(p))


def make_series(spec: SequenceSpec) -> IntSeries:
    """Materialize a SequenceSpec: its kind's values, cut to its order.

    Every value is an int made here (file and inline text through int()),
    so the series is built without IntSeries' per-coefficient checks."""
    order = spec.order
    kind = spec.kind
    if kind == "ones":
        values = [1] * order
    elif kind == "primes1":
        values = _primes1_values(order)
    elif kind == "fib-gf":
        values = [1, 1]
    elif kind == "catalan-shifted":
        values = _catalan_shifted_values(order)
    elif kind.startswith("file:"):
        values = load_coefficient_file(kind[len("file:"):])
    else:  # inline:, the one kind left that SequenceSpec accepts
        body = kind[len("inline:"):]
        fields = [part.strip() for part in body.split(",")]
        if "" in fields:
            raise ValueError(f"inline coefficient {fields.index('') + 1} is empty: {body!r}")
        try:
            values = [int(part) for part in fields]
        except ValueError:
            raise ValueError(f"inline coefficients must be integers: {body!r}") from None
    return IntSeries._of_ints(order, values)
