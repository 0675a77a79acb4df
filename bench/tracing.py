"""Outside-in tracing of an in-process CLI run.

`Tracer.install()` rebinds each traced function, in every module that
looks it up, to a wrapper that records a span; `uninstall()` puts the
originals back.  The program's own files are not changed: spans sit at
the calls into each module's public functions.

A span is (name, start, end, parent id, job id, span id).  Spans are kept in
memory and written out when the run ends.  A span opened on a worker
thread with nothing open on that thread takes as parent the innermost
span open on the thread that started the job (the scan that spawned
the worker).  Self time is a span's duration minus the union of its
children's intervals, so worker spans that overlap in time are not
subtracted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute) pairs to rebind, grouped by the span name they record.
TRACED = {
    "witnesses.is_prime": [("witnesses", "is_prime")],
    "witnesses.witness_fermat2": [("witnesses", "witness_fermat2"), ("cli", "witness_fermat2")],
    "witnesses.witness_lucas": [("witnesses", "witness_lucas"), ("cli", "witness_lucas")],
    "witnesses.witness_central_binomial": [
        ("witnesses", "witness_central_binomial"),
        ("cli", "witness_central_binomial"),
    ],
    "witnesses.witness_generic": [("witnesses", "witness_generic"), ("cli", "witness_generic")],
    "witnesses.scan_pseudoprimes": [("cli", "scan_pseudoprimes")],
    "superposition.theorem_sum": [("witnesses", "theorem_sum"), ("superposition", "theorem_sum"), ("cli", "theorem_sum")],
    "superposition.log_superposition": [("cli", "log_superposition")],
    "compositae.compositae_dp": [("superposition", "compositae_dp"), ("cli", "compositae_dp")],
    "sequences.make_series": [("cli", "make_series")],
    "cli.table_to_payload": [("cli", "table_to_payload")],
    "cli.loggf_to_payload": [("cli", "loggf_to_payload")],
    "cli.witness_to_payload": [("cli", "witness_to_payload")],
    "cli.scan_to_payload": [("cli", "scan_to_payload")],
    "cli.theorem_to_payload": [("cli", "theorem_to_payload")],
    "cli.render_json": [("cli", "render_json")],
}
RENDER_SPANS = tuple(name for name in TRACED if name.startswith("cli.") and name.endswith(("_payload", "render_json")))
WITNESS_SPANS = tuple(name for name in TRACED if name.startswith("witnesses.witness_"))


class Tracer:
    """Span store plus the counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str, int]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._job = ""
        self._ids = itertools.count()
        self._pending: list[tuple] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list[int]:
        """This thread's open spans; run_job gives the job's thread _main_stack."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int]:
        span_id = next(self._ids)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int, name: str, start: float, end: float) -> None:
        self._stack().pop()
        self.spans.append((name, start, end, parent, self._job, span_id))

    def run_job(self, job_id: str, call) -> tuple[int, bytes, float]:
        """Run call() as one traced job under a cli.main span; returns (code, stdout, wall)."""
        self._job = job_id
        self._local.stack = self._main_stack
        buf = io.StringIO()
        span_id, parent = self._open()
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = call()
        end = perf_counter()
        self._close(span_id, parent, "cli.main", start, end)
        out = buf.getvalue().encode()
        counts = self.counts[job_id]
        counts["cli.output_bytes"] += len(out)
        for counter, args, kwargs, result, table in self._pending:
            counter(counts, args, kwargs, result, table)
        self._pending.clear()
        return code, out, end - start

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span_id, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._close(span_id, parent, name, start, end)
            if counter is not None:
                # Counting waits until the job ends, so it adds to no span.
                if counter is _count_table:
                    tracer._local.last_table = result
                tracer._pending.append((counter, args, kwargs, result, getattr(tracer._local, "last_table", None)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for name, sites in TRACED.items():
            for module_name, attr in sites:
                module = importlib.import_module(f"logseries.{module_name}")
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


# ---------------------------------------------------------------------------
# Counters, run per job after cli.main returns.  Each gets the job's count
# dict, the call's arguments and result, and the last table built on the
# calling thread when the call returned.

def _count_table(counts, args, kwargs, table, _last) -> None:
    order = table.order
    counts["compositae.cells"] += order * (order + 1) // 2
    bits = max((abs(v).bit_length() for row in table.rows for v in row), default=0)
    counts["compositae.max_coeff_bits"] = max(counts["compositae.max_coeff_bits"], bits)


def _count_witness(counts, args, kwargs, report, _last) -> None:
    counts["witnesses.n_checked"] += 1
    if report.is_prime_actual:
        counts["witnesses.primes"] += 1
    else:
        counts["witnesses.composites"] += 1
        if report.passes:
            counts["witnesses.pseudoprimes"] += 1


def _count_log_superposition(counts, args, kwargs, result, last) -> None:
    table = kwargs.get("table") or last
    counts["superposition.fraction_terms"] += sum(1 for row in table.rows[: result.order] for v in row if v)


def _count_theorem_sum(counts, args, kwargs, result, last) -> None:
    n = args[1] if len(args) > 1 else kwargs["n"]
    table = kwargs.get("table") or last
    counts["superposition.fraction_terms"] += sum(1 for v in table.rows[n - 1] if v)


_COUNTERS = {
    "compositae.compositae_dp": _count_table,
    "superposition.log_superposition": _count_log_superposition,
    "superposition.theorem_sum": _count_theorem_sum,
    **{name: _count_witness for name in WITNESS_SPANS},
}


# ---------------------------------------------------------------------------
# Self time.

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """{span id: duration minus the union of its children's intervals}."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, _job, _sid in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - _union_length(children.get(sid, []))
        for _name, start, end, _parent, _job, sid in spans
    }
