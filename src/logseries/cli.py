"""Command-line surface: compositae, loggf, theorem, witness, scan.

Output contract:
  - text (default) or JSON via --format; JSON is a single object
    {"command", "input", "result"} written to stdout.
  - Output is written as it is rendered, in pieces (a line, a JSON key,
    a triangle row), never held whole; a row is formatted ITEMS_PER_PIECE
    items at a time and written once.  A command first validates its input
    and computes its result, so every usage error is raised before the
    first byte is written; a failure after the first write leaves a
    truncated stdout and exits 3.
  - Mathematical values (triangle entries, g/ng/h, sums, residues) and
    the integers n, lo, hi and the pseudoprimes are rendered as decimal
    strings in JSON, never floats, so exactness survives any JSON parser
    (doubles lose integers above 2**53).  Orders, counts and threads stay
    JSON numbers.
  - Exit codes: 0 success (witness: passes), 1 composite-witnessed,
    2 usage or input error, 3 internal error (any other exception, such
    as an exact value that must be an integer coming out fractional, a
    prime with a nonzero witness residue, a MemoryError, or a stdout that cannot be written, e.g. a closed
    pipe or a closed stream).  Diagnostics go to stderr, one line each.
  - Exact values have no digit limit: main() lifts CPython's int/str
    conversion limit (4300 digits) for the length of the call.

Start-up: the four series routes (compositae_dp, make_series,
log_superposition, theorem_sum) and the witness entry points are
imported on first use, and this module imports `fractions` nowhere, so
witness and scan with a named test load no series code, and compositae,
loggf and theorem load no witness code (the --test choices come from the
package).  render_json writes JSON scalars itself, with the C string
encoder from `_json`, so no command imports `json`.  These names stay
attributes of this module and are called through it, _module, at call
time, because bench/tracing.py rebinds them here and tests spy on them.
The witness_* names are there only for that tracer, and go once it
hooks public entry points alone.  At exit, script() freezes the heap it
leaves, so the interpreter's exit-time collections do not walk objects
the OS is about to reclaim.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Callable, Iterable
from itertools import chain

from _json import encode_basestring_ascii  # json.dumps's encoder, without json's decoder

from . import GENERIC, NAMED_TESTS, _lazy

TYPE_CHECKING = False
if TYPE_CHECKING:  # names for annotations only
    from fractions import Fraction

    from .compositae import CompositaeTable
    from .series import IntSeries
    from .superposition import LogSuperposition
    from .witnesses import ScanResult, WitnessReport

# Imported on first use and called through _module; see the module docstring.
__getattr__ = _lazy(globals(), {
    "compositae_dp": "compositae", "make_series": "sequences",
    "log_superposition": "superposition", "theorem_sum": "superposition",
    "_check_scan_range": "witnesses", "_witness_for": "witnesses",
    "scan_pseudoprimes": "witnesses",
    # Not called here; bench/tracing.py wraps these names in this module too.
    "witness_central_binomial": "witnesses", "witness_fermat2": "witnesses",
    "witness_generic": "witnesses", "witness_lucas": "witnesses",
})
_module = sys.modules[__name__]

DEFAULT_ORDER = 64
# The largest order of the table commands (compositae, loggf, theorem),
# which build a triangle of about order^2/2 big ints.  For ones, the
# densest built-in kind, `compositae --order 1000 --format json` took
# 6.4 s and 188 MB and --order 1500 took 29 s and 581 MB on 2 vCPUs: time
# grows about as order^3.7 and memory as order^2.8.  witness and scan stay
# uncapped: they stream O(order) values, and sparse series need large
# orders there.
MAX_TABLE_ORDER = 1000
# Items per %-format call when render_json writes a tuple.  The peak RSS
# of a render rises with the length of each call's result: rendering the
# fib-gf order-650 triangle raised VmHWM by 0.97 MB with one call per row,
# and by 0.57, 0.16 and 0.08 MB with 128, 64 and 32 items per call
# (CPython 3.11, 2 vCPUs).  Each call costs about 1 us more, so smaller
# pieces cost render time: at 64 items the renders of a triangle-sparse
# pass took about 15 % longer than with one call per row.
ITEMS_PER_PIECE = 64

EXIT_OK = 0
EXIT_WITNESSED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# JSON encoders.  Exact values are decimal strings in the JSON: an encoder
# gives one value as its str() and a list of them as the result's own tuple,
# which render_json writes as the list of its items' str(), formatted
# ITEMS_PER_PIECE items at a time.


def table_to_payload(table: CompositaeTable) -> dict:
    return {"order": table.order, "rows": list(table.rows)}


def loggf_to_payload(ls: LogSuperposition) -> dict:
    return {"order": ls.order, "ng": ls.ng, "g": ls.g, "h": ls.h}


def witness_to_payload(report: WitnessReport) -> dict:
    return {
        "n": str(report.n),
        "test": report.test,
        "residue": str(report.residue),
        "verdict": report.verdict,
        "is_prime_actual": report.is_prime_actual,
        "pseudoprime": report.is_pseudoprime,
        "note": report.note,
    }


def scan_to_payload(result: ScanResult) -> dict:
    return {
        "lo": str(result.lo),
        "hi": str(result.hi),
        "test": result.test,
        "pseudoprimes": result.pseudoprimes,
        "primes_checked": result.primes_checked,
        "composites_checked": result.composites_checked,
    }


def theorem_to_payload(n: int, value: Fraction) -> dict:
    return {"n": str(n), "value": str(value), "integral": value.denominator == 1}


Write = Callable[[str], object]


def render_json(write: Write, command: str, inputs: dict, result: dict) -> None:
    """Write json.dumps({"command", "input", "result"}, indent=2), byte for
    byte, with each tuple written as the list of its items' decimal strings.

    A tuple in a payload holds exact numbers (ints, Fractions) only: a
    triangle row, g, ng, h or the pseudoprimes, passed as the result's own
    tuple.  Lists, dicts and scalars are written as json.dumps writes them.
    The text goes to `write` in pieces as it is rendered and is never held
    whole: one piece per key, separator and scalar, and one per tuple.  A
    tuple is formatted by one %-format call, with one '%s' per item, for
    every ITEMS_PER_PIECE items, and the results are joined and written
    once; digits, '-' and '/' need no JSON escape.
    """
    _render(write, {"command": command, "input": inputs, "result": result}, "\n")


def _render(write: Write, value, newline: str) -> None:
    """Write value as json.dumps(indent=2) writes it at the depth of `newline`.

    `newline` is "\n" followed by the indent of the line holding value.
    Dict keys must be str, as they are in every payload.
    """
    inner = newline + "  "
    if isinstance(value, dict) and value:
        sep = "{" + inner
        for key, item in value.items():
            write(sep + encode_basestring_ascii(key) + ": ")
            _render(write, item, inner)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(value, tuple) and value:
        item = "," + inner + '"%s"'
        full = item * ITEMS_PER_PIECE
        parts = ["["]
        for start in range(0, len(value), ITEMS_PER_PIECE):
            piece = value[start : start + ITEMS_PER_PIECE]
            parts.append((full if len(piece) == ITEMS_PER_PIECE else item * len(piece)) % piece)
        parts[1] = parts[1][1:]  # the first item takes no comma
        parts.append(newline + "]")
        write("".join(parts))
    elif isinstance(value, list) and value:
        sep = "[" + inner
        for item in value:
            write(sep)
            _render(write, item, inner)
            sep = "," + inner
        write(newline + "]")
    elif isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        write("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, (dict, list, tuple)):  # empty
        write("{}" if isinstance(value, dict) else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Commands.  Each validates its input and computes its result, then returns
# (exit_code, emit); emit(write) writes the output, ending in a newline.

Emit = Callable[[Write], None]


def _json(command: str, inputs: dict, result: dict) -> Emit:
    def emit(write: Write) -> None:
        render_json(write, command, inputs, result)
        write("\n")

    return emit


def _lines(lines: Iterable[str]) -> Emit:
    """Write each line, with its newline, as `lines` yields it."""

    def emit(write: Write) -> None:
        for line in lines:
            write(line + "\n")

    return emit


def _build_series(
    args: argparse.Namespace, at_least: int = 1, max_order: int | None = None
) -> IntSeries:
    """The --seq series at --order (default max(64, at_least)), which must
    reach at_least and, if max_order is given, not pass it."""
    if args.seq is None:
        raise UsageError("--seq is required for this command")
    order = args.order if args.order is not None else max(DEFAULT_ORDER, at_least)
    from .sequences import SequenceSpec

    spec = SequenceSpec(kind=args.seq, order=order)  # checks order >= 1 and the kind
    if order < at_least:
        raise UsageError(f"--order {order} is below the largest requested n ({at_least})")
    if max_order is not None and order > max_order:
        raise UsageError(
            f"order {order} is above {max_order}, the largest order of compositae, loggf and theorem"
        )
    return _module.make_series(spec)


def cmd_compositae(args: argparse.Namespace) -> tuple[int, Emit]:
    f = _build_series(args, max_order=MAX_TABLE_ORDER)
    table = _module.compositae_dp(f, f.order)
    if args.format == "json":
        return EXIT_OK, _json(
            "compositae", {"seq": args.seq, "order": f.order}, table_to_payload(table)
        )
    head = [f"compositae triangle  seq={args.seq}  order={f.order}"]
    rows = (f"n={n}: " + " ".join(map(str, table.row(n))) for n in range(1, f.order + 1))
    return EXIT_OK, _lines(chain(head, rows))


def cmd_loggf(args: argparse.Namespace) -> tuple[int, Emit]:
    f = _build_series(args, max_order=MAX_TABLE_ORDER)
    ls = _module.log_superposition(f, f.order)
    if args.format == "json":
        return EXIT_OK, _json(
            "loggf", {"seq": args.seq, "order": f.order}, loggf_to_payload(ls)
        )
    head = [f"log-superposition  seq={args.seq}  order={f.order}", "n\tng(n)\tg(n)\th(n)"]
    rows = (
        f"{n}\t{ngn}\t{gn}\t{hn}"
        for n, (ngn, gn, hn) in enumerate(zip(ls.ng, ls.g, ls.h), start=1)
    )
    return EXIT_OK, _lines(chain(head, rows))


def cmd_theorem(args: argparse.Namespace) -> tuple[int, Emit]:
    f = _build_series(args, at_least=args.n, max_order=MAX_TABLE_ORDER)
    value = _module.theorem_sum(f, args.n)
    if args.format == "json":
        return EXIT_OK, _json(
            "theorem",
            {"seq": args.seq, "order": f.order, "n": str(args.n)},
            theorem_to_payload(args.n, value),
        )
    verdict = "integral" if value.denominator == 1 else "NOT integral"
    return EXIT_OK, _lines([f"theorem sum  seq={args.seq}  n={args.n}: {value} ({verdict})"])


def _check_named_test(args: argparse.Namespace) -> None:
    """A named test reads no series: --seq and --order are usage errors."""
    if args.test != GENERIC and (args.seq is not None or args.order is not None):
        raise UsageError(
            f"--seq and --order apply only to --test {GENERIC}, not --test {args.test}"
        )


def cmd_witness(args: argparse.Namespace) -> tuple[int, Emit]:
    _check_named_test(args)
    series = None
    if args.test == GENERIC:
        series = _build_series(args, at_least=args.n)
    report = _module._witness_for(args.test, series, series_id=args.seq)(args.n)
    code = EXIT_OK if report.passes else EXIT_WITNESSED
    if args.format == "json":
        inputs = {"test": args.test, "n": str(args.n)}
        if args.test == GENERIC:
            inputs["seq"] = args.seq
        return code, _json("witness", inputs, witness_to_payload(report))
    flags = []
    if report.is_pseudoprime:
        flags.append("PSEUDOPRIME")
    if report.note:
        flags.append(report.note)
    suffix = ("  [" + "; ".join(flags) + "]") if flags else ""
    text = (
        f"witness {report.test}  n={report.n}: {report.verdict} "
        f"(residue {report.residue}, prime={report.is_prime_actual}){suffix}"
    )
    return code, _lines([text])


def cmd_scan(args: argparse.Namespace) -> tuple[int, Emit]:
    _check_named_test(args)
    _module._check_scan_range(args.lo, args.hi, args.threads)  # before a generic series is built
    series = None
    if args.test == GENERIC:
        series = _build_series(args, at_least=args.hi)
    result = _module.scan_pseudoprimes(
        args.test, args.lo, args.hi, threads=args.threads, series=series
    )
    if args.format == "json":
        inputs = {"test": args.test, "lo": str(args.lo), "hi": str(args.hi)}
        inputs["threads"] = args.threads
        if args.test == GENERIC:
            inputs["seq"] = args.seq
        return EXIT_OK, _json("scan", inputs, scan_to_payload(result))
    lines = [
        f"scan {result.test}  range=[{result.lo}, {result.hi}]  "
        f"primes={result.primes_checked}  composites={result.composites_checked}",
        f"pseudoprimes ({len(result.pseudoprimes)}): "
        + (" ".join(str(n) for n in result.pseudoprimes) or "(none)"),
    ]
    return EXIT_OK, _lines(lines)


_COMMANDS = {
    "compositae": cmd_compositae,
    "loggf": cmd_loggf,
    "theorem": cmd_theorem,
    "witness": cmd_witness,
    "scan": cmd_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logseries",
        description="Exact compositae, log-superposition sums, and compositeness witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--seq",
            help="sequence kind: ones | primes1 | fib-gf | catalan-shifted | "
            "file:<path> | inline:<ints>",
        )
        p.add_argument(
            "--order", type=int, default=None, help="truncation order (default max(64, --n or --hi))"
        )

    p = sub.add_parser("compositae", help="print the compositae triangle of a series")
    common(p)

    p = sub.add_parser("loggf", help="print ng, exact g, and h for ln(1/(1-F))")
    common(p)

    p = sub.add_parser("theorem", help="exact sum of (n/k)*F_delta(n,k) with integrality verdict")
    common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("witness", help="run one compositeness witness at one n")
    common(p)
    p.add_argument("--test", choices=NAMED_TESTS + (GENERIC,), required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("scan", help="exhaustively hunt pseudoprimes in [lo, hi]")
    common(p)
    p.add_argument("--test", choices=NAMED_TESTS + (GENERIC,), required=True)
    p.add_argument("--lo", type=int, default=2)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument(
        "--threads", type=int, default=1, help="must be >= 1; the scan runs on one thread"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    # Exact values and inline coefficients may pass CPython's int/str digit
    # limit (3.10.7 and later); lift it for this call and put it back after.
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def _run(args: argparse.Namespace) -> int:
    # Phase 1: validate and compute.  Nothing has been written yet.
    try:
        code, emit = _COMMANDS[args.command](args)
    except ValueError as exc:  # UsageError and CoefficientFileError among them
        print(f"logseries {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        return _internal_error(args.command, exc)
    # Phase 2: write.  A failure here (the reader has gone, the stream is
    # closed) leaves what was written and is never a usage error.
    try:
        emit(sys.stdout.write)
        sys.stdout.flush()
    except Exception as exc:
        return _internal_error(args.command, exc)
    return code


def _internal_error(command: str, exc: Exception) -> int:
    print(f"logseries {command}: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_INTERNAL


def script() -> int:
    """Process entry point (`logseries`, `python -m logseries.cli`): main() on sys.argv.

    If stdout's reader has gone, main has reported it and returned 3, but
    the failed write is still buffered.  fd 1 is then pointed at devnull, so
    the interpreter's flush at exit cannot fail and print "Exception ignored".
    In-process callers of main() keep their fd 1.

    Once main() has returned, gc.freeze() moves every tracked object to
    the permanent generation, which the collections at interpreter exit
    skip: the process is ending and the OS reclaims its memory whole.
    Exit itself is unchanged, so atexit hooks, profilers and the flush of
    stdout still run.
    """
    code = main()
    gc.freeze()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    if _module.__dict__ is not globals():
        # `python -m cProfile -m logseries.cli` runs this file in a bare dict, and
        # _module is the profiler's __main__: run the imported module instead.
        from logseries.cli import script
    sys.exit(script())
