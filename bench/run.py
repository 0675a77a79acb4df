"""Benchmark for the logseries CLI: seeded job lists, checked outputs, medians.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload scan-named --seed 1 --seconds 30 --trace 0

One client runs the workload's job list in a closed loop, one `logseries`
CLI subprocess at a time, and repeats the list (a pass) while the next
pass still fits in --seconds.  Every output is checked against the
oracles in bench/oracles.py.

--trace 0 reports the end-to-end metrics (medians over passes).
--trace 1 also replays each pass in-process through logseries.cli.main,
once plain and once with the timing wrappers of bench/tracing.py, and
reports the per-layer metrics.

Human-readable metric lines come first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A run record
with the job list, per-job rows and load averages is written to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS, make_jobs  # noqa: E402
from tracing import RENDER_SPANS, Tracer, self_times  # noqa: E402

SETUP_ARGV = ["witness", "--test", "fermat2", "--n", "3", "--format", "json"]
SETUP_JOB = {"id": "setup", "argv": SETUP_ARGV, "test": "fermat2", "n": 3}
SETUP_PER_PASS = 3
JOB_TIMEOUT_S = 120
TAIL_BEYOND = 10  # job_s.tail: the highest percentile with this many jobs above it
# The launcher's reference kernel takes about this long when the machine runs
# at full speed.  Job times are reported in these units: wall time scaled by
# REF_NOMINAL_S over the kernel time measured around the job.  The machine
# this was tuned on (a 2-vCPU VM) swung between two speeds about 1.5x apart,
# for seconds to minutes at a time, which raw wall times cannot average out.
REF_NOMINAL_S = 0.015
SPEED_WINDOW = 4

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Running jobs.

class Launcher:
    """Runs CLI subprocesses through bench/launcher.py; see there for why."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        self._stdout = OUT / "job_stdout"
        self._stderr = OUT / "job_stderr"

    def run(self, argv: list[str]) -> dict:
        """One CLI subprocess: exit code, stdout, wall time and max RSS."""
        request = {"argv": argv, "stdout": str(self._stdout), "stderr": str(self._stderr), "timeout": JOB_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the job launcher exited")
        reply = json.loads(line)
        reply["out"] = self._stdout.read_bytes()
        return reply

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=JOB_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def call_main(main, argv: list[str]) -> int:
    """main(argv) as the CLI would exit; an escaping exception becomes -1."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the run goes on; the job counts as failed
        traceback.print_exc()
        return -1


def run_in_process(main, argv: list[str]) -> dict:
    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = call_main(main, argv)
    wall = perf_counter() - start
    return {"code": code, "out": buf.getvalue().encode(), "wall": wall}


def check_pass(checker, jobs: list[dict], results: list[dict], label: str, rows: list[dict]) -> int:
    failed = 0
    for job, res in zip(jobs, results):
        reason = checker.check(job, res["code"], res.pop("out"))
        if reason is not None:
            failed += 1
            print(f"FAILED {label} {job['id']}: {reason}  argv={' '.join(job['argv'])[:200]}", file=sys.stderr)
        res.update({"pass": label, "job": job["id"], "ok": reason is None, "reason": reason})
        rows.append(res)
    return failed


def set_times(sequence: list[dict]) -> None:
    """Give each launcher result its `time`: wall scaled to full machine speed.

    The speed comes from the reference kernel timings of the neighbouring
    SPEED_WINDOW jobs on each side, in execution order.
    """
    refs = [r["ref"] for r in sequence]
    for i, r in enumerate(sequence):
        ref = statistics.median(refs[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1])
        r["time"] = r["wall"] * REF_NOMINAL_S / ref


# ---------------------------------------------------------------------------
# Statistics.

def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(0, n - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / n, n


def job_units(job: dict) -> int:
    """Result values the job's output carries: n scanned, rows, or cells."""
    if job["argv"][0] == "scan":
        return job["hi"] - job["lo"] + 1
    if job["argv"][0] == "loggf":
        return job["order"]
    if job["argv"][0] == "compositae":
        return job["order"] * (job["order"] + 1) // 2
    return 1


def kind_metrics(jobs: list[dict], passes: list[list[dict]], threads: int) -> dict[str, tuple[float, str]]:
    """Per-job-kind throughputs over all subprocess passes; only kinds present."""
    units: dict[str, float] = defaultdict(float)
    secs: dict[str, float] = defaultdict(float)
    witness_times = []
    by_threads = {1: [0, 0.0], threads: [0, 0.0]}
    for results in passes:
        for job, res in zip(jobs, results):
            cmd = job["argv"][0]
            if cmd == "scan":
                key = f"scan.{job['test']}.n_per_s"
                if job["test"] != "generic" and threads > 1:
                    by_threads[job["threads"]][0] += job_units(job)
                    by_threads[job["threads"]][1] += res["time"]
            elif cmd == "loggf":
                key = "loggf.coeffs_per_s"
            elif cmd == "compositae":
                key = "compositae.cells_per_s"
            else:
                if cmd == "witness":
                    witness_times.append(res["time"])
                continue
            units[key] += job_units(job)
            secs[key] += res["time"]
    out = {key: (units[key] / secs[key], "1/s") for key in sorted(units)}
    if witness_times:
        out["witness_s.p50"] = (statistics.median(witness_times), "s")
    if threads > 1 and by_threads[1][1] and by_threads[threads][1]:
        rate = {t: n / s for t, (n, s) in by_threads.items()}
        out["witnesses.threads_speedup"] = (rate[threads] / rate[1], "ratio")
    return out


# ---------------------------------------------------------------------------
# Run record.

def loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# The two kinds of run.

def measure(launcher, jobs: list[dict], seconds: float, checker, rows: list[dict]) -> tuple[dict, list, int, int, dict]:
    """Subprocess passes until the next one would overrun `seconds`.

    The machine's speed drifts over seconds, so set-up jobs are spread
    over the run (a few before every pass and after the last), and each
    job's time is its median over the passes.
    """
    walls: list[float] = []
    passes: list[list[dict]] = []
    setup: list[dict] = []
    failed = 0
    elapsed = 0.0

    sequence: list[dict] = []

    def setup_batch() -> int:
        batch = [launcher.run(SETUP_ARGV) for _ in range(SETUP_PER_PASS)]
        setup.extend(batch)
        sequence.extend(batch)
        return check_pass(checker, [SETUP_JOB] * SETUP_PER_PASS, batch, "setup", rows)

    while not passes or elapsed + walls[-1] <= seconds:
        failed += setup_batch()
        start = perf_counter()
        results = [launcher.run(job["argv"]) for job in jobs]
        wall = perf_counter() - start
        elapsed += wall
        walls.append(wall)
        passes.append(results)
        sequence.extend(results)
        failed += check_pass(checker, jobs, results, f"p{len(passes)}", rows)
    failed += setup_batch()
    set_times(sequence)
    per_job = [statistics.median(results[i]["time"] for results in passes) for i in range(len(jobs))]
    tail_value, tail_pct, tail_n = tail(per_job)
    metrics = {
        "setup_s": statistics.median(r["time"] for r in setup),
        "wall_s": sum(per_job),
        "job_s.p50": statistics.median(r["time"] for results in passes for r in results),
        "job_s.tail": tail_value,
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in results) for results in passes),
    }
    raw_per_job = [statistics.median(results[i]["wall"] for results in passes) for i in range(len(jobs))]
    info = {
        "pass_walls_s": walls, "tail_percentile": tail_pct, "tail_samples": tail_n,
        "raw_wall_s": sum(raw_per_job),
        "machine_slowdown": statistics.median(r["ref"] for results in passes for r in results) / REF_NOMINAL_S,
    }
    return metrics, passes, failed, len(jobs) * len(passes) + len(setup), info


def traced(launcher, jobs: list[dict], seconds: float, checker, rows: list[dict], threads: int):
    """Iterations over the job list, repeated while the next one fits in `seconds`.

    Each job runs three times back to back, so that the machine's speed is
    about the same for all three: as a subprocess, then in-process through
    cli.main without and with the timing wrappers, in alternating order.
    """
    from logseries import cli

    iterations = []
    failed = attempted = 0
    elapsed = 0.0
    problems: list[str] = []
    while not iterations or elapsed + iterations[-1]["elapsed"] <= seconds:
        start = perf_counter()
        label = f"i{len(iterations) + 1}"
        tracer = Tracer()
        sub, plain, tr = [], [], []
        for i, job in enumerate(jobs):
            sub.append(launcher.run(job["argv"]))

            def plain_run(job=job):
                plain.append(run_in_process(cli.main, job["argv"]))

            def traced_run(job=job):
                tracer.install()
                try:
                    tr.append(_traced_job(tracer, cli.main, job))
                finally:
                    tracer.uninstall()

            # The second in-process run of a job tends to be the faster one
            # (warm allocator and caches), so the order alternates.
            for run_once in (plain_run, traced_run) if i % 2 == 0 else (traced_run, plain_run):
                gc.collect()
                run_once()
        set_times(sub)
        overhead = sum(t["wall"] - p["wall"] for t, p in zip(tr, plain))
        for tag, results in (("sub", sub), ("plain", plain), ("traced", tr)):
            failed += check_pass(checker, jobs, results, f"{label}-{tag}", rows)
            attempted += len(jobs)
        iterations.append({
            "sub": sub, "plain": plain, "overhead": overhead, "tracer": tracer,
            "elapsed": perf_counter() - start,
        })
        elapsed += iterations[-1]["elapsed"]

    per_iter = [_layer_metrics(it, jobs, problems) for it in iterations]
    metrics = {}
    for name in per_iter[0]:
        values = [m[name] for m in per_iter]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    kinds = kind_metrics(jobs, [it["sub"] for it in iterations], threads)
    metrics["witnesses.threads_speedup"] = kinds.pop("witnesses.threads_speedup", (0.0, ""))[0]
    startup = [
        statistics.median(it["sub"][i]["wall"] - it["plain"][i]["wall"] for it in iterations)
        for i in range(len(jobs))
    ]
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.overhead_s"] = statistics.median(it["overhead"] for it in iterations)
    spans_file = _write_spans(iterations)
    return metrics, failed, attempted, problems, spans_file, kinds


def _traced_job(tracer: Tracer, main, job: dict) -> dict:
    code, out, wall = tracer.run_job(job["id"], lambda: call_main(main, job["argv"]))
    return {"code": code, "out": out, "wall": wall}


COUNT_METRICS = {
    "witnesses.is_prime.calls", "witnesses.scan_pseudoprimes.calls",
    "witnesses.witness_fermat2.calls", "witnesses.witness_lucas.calls",
    "witnesses.witness_central_binomial.calls", "witnesses.witness_generic.calls",
    "witnesses.n_checked", "witnesses.primes", "witnesses.composites", "witnesses.pseudoprimes",
    "compositae.compositae_dp.calls", "compositae.cells", "compositae.cells_per_output",
    "compositae.max_coeff_bits", "superposition.log_superposition.calls",
    "superposition.theorem_sum.calls", "superposition.fraction_terms",
    "cli.output_bytes", "sequences.make_series.calls",
}


def _layer_metrics(it: dict, jobs: list[dict], problems: list[str]) -> dict:
    tracer = it["tracer"]
    selfs = self_times(tracer.spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    job_self = defaultdict(float)
    job_wall = {}
    for name, start, end, _parent, job_id, sid in tracer.spans:
        total[name] += end - start
        own[name] += selfs[sid]
        calls[name] += 1
        job_self[job_id] += selfs[sid]
        if name == "cli.main":
            job_wall[job_id] = end - start
    # Self-test: the self times of a job's spans partition its cli.main wall
    # time, except that spans on concurrent worker threads may overlap.
    for job in jobs:
        diff = job_self[job["id"]] - job_wall[job["id"]]
        concurrent = job.get("threads", 1) > 1
        if diff < -1e-6 or (not concurrent and diff > 1e-6):
            problems.append(f"{job['id']}: self times sum to {job_self[job['id']]:.6f} s, cli.main took {job_wall[job['id']]:.6f} s")

    counts = defaultdict(int)
    for job_counts in tracer.counts.values():
        for key, value in job_counts.items():
            counts[key] = max(counts[key], value) if key == "compositae.max_coeff_bits" else counts[key] + value
    cells_jobs = [job for job in jobs if tracer.counts[job["id"]].get("compositae.cells")]
    outputs = sum(job_units(job) for job in cells_jobs)
    scan_s = total["witnesses.scan_pseudoprimes"]
    m = {
        "witnesses.is_prime.s": total["witnesses.is_prime"],
        "witnesses.is_prime.calls": calls["witnesses.is_prime"],
        "witnesses.is_prime_share": total["witnesses.is_prime"] / scan_s if scan_s else 0.0,
        "witnesses.scan_pseudoprimes.self_s": own["witnesses.scan_pseudoprimes"],
        "witnesses.scan_pseudoprimes.calls": calls["witnesses.scan_pseudoprimes"],
    }
    for test in ("fermat2", "lucas", "central_binomial", "generic"):
        m[f"witnesses.witness_{test}.self_s"] = own[f"witnesses.witness_{test}"]
        m[f"witnesses.witness_{test}.calls"] = calls[f"witnesses.witness_{test}"]
    for key in ("n_checked", "primes", "composites", "pseudoprimes"):
        m[f"witnesses.{key}"] = counts[f"witnesses.{key}"]
    m.update({
        "compositae.compositae_dp.s": total["compositae.compositae_dp"],
        "compositae.compositae_dp.calls": calls["compositae.compositae_dp"],
        "compositae.cells": counts["compositae.cells"],
        "compositae.cells_per_output": counts["compositae.cells"] / outputs if outputs else 0.0,
        "compositae.max_coeff_bits": counts["compositae.max_coeff_bits"],
        "superposition.log_superposition.self_s": own["superposition.log_superposition"],
        "superposition.log_superposition.calls": calls["superposition.log_superposition"],
        "superposition.theorem_sum.self_s": own["superposition.theorem_sum"],
        "superposition.theorem_sum.calls": calls["superposition.theorem_sum"],
        "superposition.fraction_terms": counts["superposition.fraction_terms"],
        "cli.render.s": sum(total[name] for name in RENDER_SPANS),
        "cli.output_bytes": counts["cli.output_bytes"],
        "cli.main.self_s": own["cli.main"],
        "sequences.make_series.s": total["sequences.make_series"],
        "sequences.make_series.calls": calls["sequences.make_series"],
    })
    return m


def _write_spans(iterations: list[dict]) -> str:
    path = OUT / "spans.csv.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("iteration,job,span,parent,name,start,end\n")
        for i, it in enumerate(iterations, start=1):
            for name, start, end, parent, job_id, sid in it["tracer"].spans:
                fh.write(f"{i},{job_id},{sid},{parent},{name},{start:.9f},{end:.9f}\n")
    return str(path.relative_to(ROOT))


# ---------------------------------------------------------------------------

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Benchmark the logseries CLI on a seeded workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "logseries" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'logseries' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Start the launcher while this process is still small.
    launcher = Launcher()
    try:
        return run(args, launcher)
    finally:
        launcher.close()


def run(args: argparse.Namespace, launcher: Launcher) -> int:
    try:
        import oracles
    except ImportError as exc:
        print(f"bench: the output checker needs {exc.name}: {exc}", file=sys.stderr)
        return 2
    missed = oracles.self_test()
    if missed:
        print("bench: checker self-test failed: " + "; ".join(missed), file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    jobs = make_jobs(args.workload, args.seed, threads)
    jobs_json = json.dumps(jobs, sort_keys=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": nproc, "threads": threads,
        **source_identity(), "loadavg_start": loadavg(),
        "jobs_sha256": hashlib.sha256(jobs_json.encode()).hexdigest(), "jobs": jobs,
    }
    checker = oracles.Checker()
    rows: list[dict] = []

    launcher.run(SETUP_ARGV)  # warm the bytecode cache; not timed

    problems: list[str] = []
    if args.trace == 0:
        metrics, passes, failed, attempted, info = measure(launcher, jobs, args.seconds, checker, rows)
        extra = kind_metrics(jobs, passes, threads)
        extra["raw_wall_s"] = (info["raw_wall_s"], "s")
        extra["machine_slowdown"] = (info["machine_slowdown"], "ratio")
        record.update(info)
        units = {name: END_TO_END[name] for name in metrics}
    else:
        metrics, failed, attempted, problems, spans_file, extra = traced(
            launcher, jobs, args.seconds, checker, rows, threads
        )
        record["spans_file"] = spans_file
        units = {name: _layer_unit(name) for name in metrics}
    extra["failed_frac"] = (failed / attempted, "ratio")

    record.update({
        "loadavg_end": loadavg(), "metrics": metrics, "extra_metrics": {k: v[0] for k, v in extra.items()},
        "attempted": attempted, "failed": failed, "problems": problems, "rows": rows,
    })
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"trace self-test: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", "_speedup", "_per_output")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
