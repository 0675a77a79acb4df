"""Small process that starts each CLI job and reports its rusage.

A child's max RSS, as wait4 reports it, is at least the RSS of the
process that spawned it (Linux carries the old image's high-water mark
across exec).  The benchmark itself grows large (sympy, kept outputs), so
it spawns jobs through this process, which stays small.

Around each job it also times a fixed pure-Python kernel that does not
touch logseries (`reference`), once before and once after, so the
benchmark can tell how fast the machine ran at that moment.

Protocol, one JSON object per line: the benchmark writes
{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}; this
process runs `python -m logseries.cli <argv>` with stdout and stderr sent
to those files and answers {"code", "wall", "rss_mb", "ref"}.  It exits
at end of input.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def reference() -> float:
    """Seconds taken by a fixed integer-and-dict loop (about 15 ms)."""
    start = perf_counter()
    acc = 0
    table = {}
    for i in range(120_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return perf_counter() - start


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        before = reference()
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "logseries.cli", *req["argv"]],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        ref = (before + reference()) / 2
        reply = {"code": code, "wall": wall, "rss_mb": usage.ru_maxrss / 1024, "ref": ref}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
