"""Output checks built from first principles; nothing here imports logseries.

Each check takes a job (from jobs.py), the exit code and the stdout bytes
of one run of it, and returns None when the output is right or a short
reason when it is not.  Values are compared, not formatting: `n`, `lo`
and `hi` may be JSON numbers or decimal strings, and stderr is ignored.

Ground truths:
  - primality: sympy.isprime;
  - fermat2 residue: pow(2, n, n);
  - lucas residue: a Lucas V-sequence ladder mod n written here;
  - central-binomial residue: math.comb;
  - g, ng, h: h(n) = sum_m f(m) h(n-m), ng(n) = sum_m m f(m) h(n-m), g = ng/n;
  - compositae columns: repeated multiplication by F, i.e. F^k.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import sympy

FIXED_PSEUDOPRIMES = {
    ("fermat2", 2, 2000): [341, 561, 645, 1105, 1387, 1729, 1905],
    ("lucas", 2, 2000): [705],
}


# ---------------------------------------------------------------------------
# Series and residues.

def _primes1(order: int) -> list[int]:
    values = [1]
    p = 1
    while len(values) < order:
        p = sympy.nextprime(p)
        values.append(p)
    return values[:order]


def series_values(seq: str, order: int) -> list[int]:
    """f(1..order) for a CLI --seq value."""
    if seq == "ones":
        vals = [1] * order
    elif seq == "primes1":
        vals = _primes1(order)
    elif seq == "fib-gf":
        vals = [1, 1]
    elif seq == "catalan-shifted":
        vals = [math.comb(2 * m, m) // (m + 1) for m in range(order)]
    elif seq.startswith("inline:"):
        vals = [int(v) for v in seq[len("inline:"):].split(",")]
    else:
        raise ValueError(f"no oracle for sequence {seq!r}")
    vals = vals[:order]
    return vals + [0] * (order - len(vals))


def log_rows(f: list[int]) -> tuple[list[int], list[int]]:
    """(ng, h) for n = 1..len(f), from the linear recurrences."""
    order = len(f)
    support = [(m, c) for m, c in enumerate(f, start=1) if c]
    h = [1] + [0] * order  # h[0] = 1 is the constant term of 1/(1-F)
    ng = [0] * (order + 1)
    for n in range(1, order + 1):
        hs = 0
        ns = 0
        for m, c in support:
            if m > n:
                break
            t = c * h[n - m]
            hs += t
            ns += m * t
        h[n] = hs
        ng[n] = ns
    return ng[1:], h[1:]


def lucas_mod(n: int, mod: int) -> int:
    """L(n) mod `mod` by the V-sequence ladder with P = 1, Q = -1."""
    v0, v1 = 2 % mod, 1 % mod  # V(k), V(k+1) for k = 0
    q = 1  # (-1)^k tracks Q^k
    for bit in bin(n)[2:]:
        if bit == "1":
            # k -> 2k+1: V(2k+1) = V(k)V(k+1) - Q^k * P, V(2k+2) = V(k+1)^2 - 2Q^(k+1)
            v0, v1 = (v0 * v1 - q) % mod, (v1 * v1 + 2 * q) % mod
            q = -1
        else:
            # k -> 2k: V(2k) = V(k)^2 - 2Q^k, V(2k+1) = V(k)V(k+1) - Q^k * P
            v0, v1 = (v0 * v0 - 2 * q) % mod, (v0 * v1 - q) % mod
            q = 1
    return v0


def named_residue(test: str, n: int) -> int:
    if test == "fermat2":
        return (pow(2, n, n) - 2) % n
    if test == "lucas":
        return (lucas_mod(n, n) - 1) % n
    if test == "central-binomial":
        return (math.comb(2 * n - 1, n - 1) - 1) % n
    raise ValueError(f"no residue oracle for {test!r}")


def _prime_count(lo: int, hi: int) -> int:
    return sum(1 for n in range(lo, hi + 1) if sympy.isprime(n))


# ---------------------------------------------------------------------------
# Checker.

class Checker:
    """Checks job outputs; caches per-job ground truth and verified outputs.

    A pass repeats the job list, so each job's expectation is built once
    and an output byte-identical to one already verified needs no second
    parse.
    """

    def __init__(self) -> None:
        self._expect: dict[str, object] = {}
        self._verified: dict[str, set[bytes]] = {}
        self._residues: dict[tuple[str, int], int] = {}

    def check(self, job: dict, code: int, stdout: bytes) -> str | None:
        seen = self._verified.setdefault(job["id"], set())
        key = hashlib.sha256(bytes([code & 0xFF]) + stdout).digest()
        if key in seen:
            return None
        try:
            payload = json.loads(stdout)
            reason = self._check_payload(job, code, payload)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is None:
            seen.add(key)
        return reason

    def _cached(self, key: str, build):
        if key not in self._expect:
            self._expect[key] = build()
        return self._expect[key]

    def _residue(self, test: str, n: int) -> int:
        if (test, n) not in self._residues:
            self._residues[(test, n)] = named_residue(test, n)
        return self._residues[(test, n)]

    def _check_payload(self, job: dict, code: int, payload: dict) -> str | None:
        command = job["argv"][0]
        if payload.get("command") != command:
            return f"command {payload.get('command')!r} != {command!r}"
        result = payload["result"]
        if command == "scan":
            return _expect_code(code, 0) or self._check_scan(job, result)
        if command == "witness":
            return self._check_witness(job, code, result)
        if command == "loggf":
            return _expect_code(code, 0) or self._check_loggf(job, result)
        if command == "theorem":
            return _expect_code(code, 0) or self._check_theorem(job, result)
        if command == "compositae":
            return _expect_code(code, 0) or self._check_compositae(job, result)
        return f"no check for command {command!r}"

    # -- scan ---------------------------------------------------------------

    def _check_scan(self, job: dict, result: dict) -> str | None:
        test, lo, hi = job["test"], job["lo"], job["hi"]
        if (int(result["lo"]), int(result["hi"])) != (lo, hi):
            return f"range [{result['lo']}, {result['hi']}] != [{lo}, {hi}]"
        if not str(result["test"]).startswith(test):
            return f"test {result['test']!r} != {test!r}"
        primes = self._cached(f"primes:{lo}:{hi}", lambda: _prime_count(lo, hi))
        if int(result["primes_checked"]) != primes:
            return f"primes_checked {result['primes_checked']} != {primes}"
        if int(result["composites_checked"]) != hi - lo + 1 - primes:
            return f"composites_checked {result['composites_checked']} != {hi - lo + 1 - primes}"
        listed = [int(n) for n in result["pseudoprimes"]]
        if listed != sorted(set(listed)) or any(not lo <= n <= hi for n in listed):
            return "pseudoprime list is not sorted, distinct and inside the range"
        for n in listed:
            if sympy.isprime(n):
                return f"listed pseudoprime {n} is prime"
        fixed = FIXED_PSEUDOPRIMES.get((test, lo, hi))
        if fixed is not None:
            return None if listed == fixed else f"pseudoprimes {listed} != {fixed}"
        if test == "generic":
            expected = self._cached(f"generic:{job['seq']}:{lo}:{hi}", lambda: _generic_pseudoprimes(job["seq"], lo, hi))
            return None if listed == expected else f"pseudoprimes {listed} != {expected}"
        if test == "fermat2":
            expected = self._cached(f"fermat2:{lo}:{hi}", lambda: [
                n for n in range(lo, hi + 1) if pow(2, n, n) == 2 % n and not sympy.isprime(n)
            ])
            return None if listed == expected else f"pseudoprimes {listed} != {expected}"
        for n in listed:
            if self._residue(test, n) != 0:
                return f"listed pseudoprime {n} has nonzero {test} residue"
        return None

    # -- witness ------------------------------------------------------------

    def _check_witness(self, job: dict, code: int, result: dict) -> str | None:
        test, n = job["test"], job["n"]
        if int(result["n"]) != n:
            return f"n {result['n']} != {n}"
        if test == "generic":
            residue = self._cached(f"wgeneric:{job['seq']}:{n}", lambda: _generic_residue(job["seq"], n))
        else:
            residue = self._residue(test, n)
        if int(result["residue"]) != residue:
            return f"residue {result['residue']} != {residue}"
        prime = sympy.isprime(n)
        if bool(result["is_prime_actual"]) != prime:
            return f"is_prime_actual {result['is_prime_actual']} != {prime}"
        passes = residue == 0
        if result["verdict"] != ("passes" if passes else "composite-witnessed"):
            return f"verdict {result['verdict']!r} for residue {residue}"
        if bool(result["pseudoprime"]) != (passes and not prime):
            return f"pseudoprime flag {result['pseudoprime']} wrong"
        return _expect_code(code, 0 if passes else 1)

    # -- loggf, theorem, compositae -----------------------------------------

    def _log_rows(self, seq: str, order: int) -> tuple[list[int], list[int]]:
        return self._cached(f"log:{seq}:{order}", lambda: log_rows(series_values(seq, order)))

    def _check_loggf(self, job: dict, result: dict) -> str | None:
        order = job["order"]
        if int(result["order"]) != order:
            return f"order {result['order']} != {order}"
        ng, h = self._log_rows(job["seq"], order)
        got_ng = [int(v) for v in result["ng"]]
        got_h = [int(v) for v in result["h"]]
        got_g = [Fraction(v) for v in result["g"]]
        if got_ng != ng:
            return f"ng differs first at n={_first_diff(got_ng, ng)}"
        if got_h != h:
            return f"h differs first at n={_first_diff(got_h, h)}"
        g = [Fraction(v, n) for n, v in enumerate(ng, start=1)]
        if got_g != g:
            return f"g differs first at n={_first_diff(got_g, g)}"
        return None

    def _check_theorem(self, job: dict, result: dict) -> str | None:
        n = job["n"]
        if int(result["n"]) != n:
            return f"n {result['n']} != {n}"
        ng, _ = self._log_rows(job["seq"], n)
        if Fraction(result["value"]) != ng[n - 1]:
            return f"theorem sum {result['value']} != {ng[n - 1]}"
        if result["integral"] is not True:
            return "theorem sum reported non-integral"
        return None

    def _check_compositae(self, job: dict, result: dict) -> str | None:
        order = job["order"]
        if int(result["order"]) != order:
            return f"order {result['order']} != {order}"
        rows = result["rows"]
        if len(rows) != order or any(len(row) != n for n, row in enumerate(rows, start=1)):
            return "rows do not form a triangle of the stated order"
        f = series_values(job["seq"], order)
        _, h = self._log_rows(job["seq"], order)
        for n, row in enumerate(rows, start=1):
            values = [int(v) for v in row]
            if values[0] != f[n - 1]:
                return f"column 1 differs from f at n={n}"
            if sum(values) != h[n - 1]:
                return f"row sum differs from h at n={n}"
        columns = self._cached(f"cols:{job['seq']}:{order}:{job['columns']}", lambda: _power_columns(f, job["columns"]))
        for k, col in columns.items():
            for n in range(k, order + 1):
                if int(rows[n - 1][k - 1]) != col[n]:
                    return f"entry (n={n}, k={k}) differs from [x^n] F^k"
        return None


def _expect_code(code: int, expected: int) -> str | None:
    return None if code == expected else f"exit code {code} != {expected}"


def _first_diff(a: list, b: list) -> int:
    for i, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            return i
    return min(len(a), len(b)) + 1


def _generic_residue(seq: str, n: int) -> int:
    f = series_values(seq, n)
    ng, _ = log_rows(f)
    return (ng[n - 1] - f[0] ** n) % n


def _generic_pseudoprimes(seq: str, lo: int, hi: int) -> list[int]:
    f = series_values(seq, hi)
    ng, _ = log_rows(f)
    return [
        n for n in range(lo, hi + 1)
        if (ng[n - 1] - pow(f[0], n, n)) % n == 0 and not sympy.isprime(n)
    ]


def _power_columns(f: list[int], ks: list[int]) -> dict[int, list[int]]:
    """{k: [x^n] F^k for n = 0..order} for each k in ks."""
    order = len(f)
    support = [(m, c) for m, c in enumerate(f, start=1) if c]
    wanted = set(ks)
    cur = [1] + [0] * order  # F^0
    out: dict[int, list[int]] = {}
    for k in range(1, max(ks) + 1):
        nxt = [0] * (order + 1)
        for i in range(k - 1, order + 1):
            v = cur[i]
            if v:
                for m, c in support:
                    if i + m > order:
                        break
                    nxt[i + m] += c * v
        cur = nxt
        if k in wanted:
            out[k] = cur
    return out


def self_test() -> list[str]:
    """Feed the checker outputs known to be wrong; return what it missed."""
    checker = Checker()
    missed = []
    scan_job = {"id": "self-scan", "argv": ["scan"], "test": "fermat2", "lo": 2, "hi": 2000}
    good = {
        "command": "scan",
        "result": {"lo": "2", "hi": 2000, "test": "fermat2", "pseudoprimes": FIXED_PSEUDOPRIMES[("fermat2", 2, 2000)],
                   "primes_checked": 303, "composites_checked": 1696},
    }
    if checker.check(scan_job, 0, json.dumps(good).encode()) is not None:
        missed.append("a correct scan payload was rejected")
    wrong_list = json.loads(json.dumps(good))
    wrong_list["result"]["pseudoprimes"] = [341, 561, 645, 1105, 1387, 1729, 1911]
    if checker.check(scan_job, 0, json.dumps(wrong_list).encode()) is None:
        missed.append("a wrong pseudoprime list was accepted")
    loggf_job = {"id": "self-loggf", "argv": ["loggf"], "seq": "fib-gf", "order": 17}
    ng, h = log_rows(series_values("fib-gf", 17))
    if ng[16] != 3571 or lucas_mod(17, 10**6) != 3571 or h[16] != 2584:
        missed.append("the recurrences do not give L(17) = 3571 and F(18) = 2584")
    payload = {"command": "loggf", "result": {
        "order": 17, "ng": [str(v) for v in ng], "g": [str(Fraction(v, n)) for n, v in enumerate(ng, start=1)],
        "h": [str(v) for v in h]}}
    if checker.check(loggf_job, 0, json.dumps(payload).encode()) is not None:
        missed.append("a correct loggf payload was rejected")
    payload["result"]["ng"][16] = str(ng[16] + 1)
    if checker.check(loggf_job, 0, json.dumps(payload).encode()) is None:
        missed.append("a corrupted loggf payload was accepted")
    if checker.check(loggf_job, 0, b'{"command": "loggf", "result": {"order": 17, "ng": [') is None:
        missed.append("a truncated payload was accepted")
    return missed
