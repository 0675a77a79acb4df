"""Named integer-series registry and the coefficient file format.

Built-in kinds:
    ones             f(i) = 1
    primes1          f(1) = 1, then f(2), f(3), ... = 2, 3, 5, 7, 11, ...
    fib-gf           f(1) = f(2) = 1, all other coefficients 0
    catalan-shifted  f(n) = Catalan(n-1) = 1, 1, 2, 5, 14, 42, ...
    file:<path>      coefficients read from a text file
    inline:<ints>    comma-separated coefficients, e.g. inline:1,-2,3

Coefficient files are UTF-8 text with one integer per line; blank lines
and lines starting with '#' are skipped, and the i-th surviving line
(1-based) is f(i).  Coefficients beyond the requested order are dropped;
missing trailing coefficients are 0.
"""

from __future__ import annotations

import math
from pathlib import Path

from ._value import Value, set_field
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
    values = [1]
    candidate = 2
    while len(values) < order:
        for d in range(2, math.isqrt(candidate) + 1):
            if candidate % d == 0:
                break
        else:
            values.append(candidate)
        candidate += 1
    return values[:order]


def _catalan_shifted_values(order: int) -> list[int]:
    return [math.comb(2 * m, m) // (m + 1) for m in range(order)]


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
    """Materialize a SequenceSpec into an IntSeries at its order."""
    order = spec.order
    kind = spec.kind
    if kind == "ones":
        return IntSeries(order, {i: 1 for i in range(1, order + 1)})
    if kind == "primes1":
        return IntSeries.from_values(_primes1_values(order), order)
    if kind == "fib-gf":
        coeffs = {1: 1}
        if order >= 2:
            coeffs[2] = 1
        return IntSeries(order, coeffs)
    if kind == "catalan-shifted":
        return IntSeries.from_values(_catalan_shifted_values(order), order)
    if kind.startswith("file:"):
        return IntSeries.from_values(load_coefficient_file(kind[len("file:"):]), order)
    if kind.startswith("inline:"):
        body = kind[len("inline:"):]
        try:
            values = [int(part.strip()) for part in body.split(",") if part.strip() != ""]
        except ValueError:
            raise ValueError(f"inline coefficients must be integers: {body!r}") from None
        return IntSeries.from_values(values, order)
    raise ValueError(f"unknown sequence kind {kind!r}")
