"""Compositeness witnesses derived from truncated-superposition integrality.

For an integer series f with triangle F_delta, the quantity

    n*g(n) - f(1)^n  =  n * sum_{k=1}^{n-1} F_delta(n, k) / k

is divisible by n whenever n is prime.  A nonzero residue mod n is
therefore a proof of compositeness; residue 0 proves nothing (composite
passers are pseudoprimes for the chosen series).  Three specializations
have closed forms and run in modular arithmetic, without any series and
for any n:

    ones (f(i) = 1):        residue of 2^n - 2            (fermat2)
    x + x^2:                residue of L_n - 1            (lucas)
    shifted Catalan:        residue of C(2n-1, n-1) - 1   (central-binomial)

Ground-truth primality is trial division below 10^6 and fixed-base
Miller-Rabin above.  The 13 prime bases 2..41 are proven deterministic
for n < 3317044064679887385961981 (Sorenson and Webster, 2017), so
witness verdicts are checked against an independent fact there.  From
that bound on, a strong Lucas test with Selfridge's parameters follows
the bases, which makes the whole test Baillie-PSW: no composite is known
to pass it, but none is proven not to, so the ground truth there is only
probable, and each report's note says so.
"""

from __future__ import annotations

import itertools
import math

from ._value import Value, set_field
from .compositae import CompositaeTable, compositae_dp
from .series import IntSeries
from .superposition import IntegralityError, theorem_sum

PASSES = "passes"
COMPOSITE_WITNESSED = "composite-witnessed"

FERMAT2 = "fermat2"
LUCAS = "lucas"
CENTRAL_BINOMIAL = "central-binomial"
GENERIC = "generic"
NAMED_TESTS = (FERMAT2, LUCAS, CENTRAL_BINOMIAL)

_TRIAL_DIVISION_BOUND = 10**6
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Below this, the bases above decide primality; at or above it a strong Lucas
# test runs too (Baillie-PSW), and a True is probable.
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981

# witness_central_binomial sieves [0, 2n-1] with one byte per integer, so n
# is capped to keep that buffer at 200 MB.
CENTRAL_BINOMIAL_MAX_N = 10**8


def is_prime(n: int) -> bool:
    """Primality by trial division, then fixed-base Miller-Rabin.

    Deterministic for n < 3317044064679887385961981.  From there on a
    strong Lucas test follows (Baillie-PSW), and a True means only
    "probable prime"; a False is always a proof of compositeness.
    """
    if n < 2:
        return False
    if n < _TRIAL_DIVISION_BOUND:
        if n % 2 == 0:
            return n == 2
        for d in range(3, math.isqrt(n) + 1, 2):
            if n % d == 0:
                return False
        return True
    if n < _MR_DETERMINISTIC_BOUND:
        return _miller_rabin(n)
    return _miller_rabin(n) and _strong_lucas(n)


def _miller_rabin(n: int) -> bool:
    if n % 2 == 0:
        return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 2, parameters by Selfridge's method A.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1 and Q = (1 - D)/4.  Writing n + 1 = d * 2^s, n passes when
    U(d) = 0 or V(d * 2^r) = 0 mod n for some 0 <= r < s, as every prime
    does.  A perfect square has no such D and is rejected first.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    disc = 5
    while True:
        jacobi = _jacobi(disc, n)
        if jacobi == -1:
            break
        if jacobi == 0 and abs(disc) != n:
            return False
        disc = -disc - 2 if disc > 0 else -disc + 2
    q = (1 - disc) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Ladder over the bits of d from k = 1: (U(k), V(k), Q^k) mod n, with
    # U(2k) = U(k)V(k), V(2k) = V(k)^2 - 2Q^k, and for P = 1,
    # U(k+1) = (U(k) + V(k))/2, V(k+1) = (D U(k) + V(k))/2.
    u, v, qk = 1, 1, q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, disc * u + v
            # n is odd, so adding n makes an odd value even without changing it mod n.
            u, v = (u + n * (u & 1)) // 2 % n, (v + n * (v & 1)) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def lucas_number(n: int, mod: int | None = None) -> int:
    """L(n), n >= 1, by a doubling ladder over the bits of n.

    Each step maps (L(k), L(k+1)) to the pair at 2k or 2k+1 through
    L(2k) = L(k)^2 - 2q and L(2k+1) = L(k)L(k+1) - q, with q = (-1)^k.
    With `mod` every step is reduced, so the full L(n) is never
    materialized; without it the exact integer is returned.
    """
    if n < 1:
        raise ValueError("Lucas numbers are indexed from 1 here")
    a, b, q = 2, 1, 1  # L(k), L(k+1), (-1)^k at k = 0
    for bit in bin(n)[2:]:
        if bit == "1":
            a, b, q = a * b - q, b * b + 2 * q, -1
        else:
            a, b, q = a * a - 2 * q, a * b - q, 1
        if mod is not None:
            a, b = a % mod, b % mod
    return a


class WitnessReport(Value):
    """Outcome of one compositeness test at one n, with exact evidence.

    residue is the tested quantity reduced mod n; verdict is `passes`
    iff residue == 0.  is_prime_actual comes from the deterministic
    primality check, independent of the witness.
    """

    __slots__ = ("n", "test", "residue", "verdict", "is_prime_actual", "note")
    n: int
    test: str
    residue: int
    verdict: str
    is_prime_actual: bool
    note: str

    def __init__(
        self,
        n: int,
        test: str,
        residue: int,
        verdict: str,
        is_prime_actual: bool,
        note: str = "",
    ) -> None:
        if not (0 <= residue < n):
            raise ValueError(f"residue {residue} outside [0, {n})")
        expected = PASSES if residue == 0 else COMPOSITE_WITNESSED
        if verdict != expected:
            raise ValueError(f"verdict {verdict!r} inconsistent with residue {residue}")
        set_field(self, "n", n)
        set_field(self, "test", test)
        set_field(self, "residue", residue)
        set_field(self, "verdict", verdict)
        set_field(self, "is_prime_actual", is_prime_actual)
        set_field(self, "note", note)

    @property
    def passes(self) -> bool:
        return self.residue == 0

    @property
    def is_pseudoprime(self) -> bool:
        """Composite but undetected by this test."""
        return self.passes and not self.is_prime_actual


def _report(n: int, test: str, residue: int, note: str = "") -> WitnessReport:
    if n >= _MR_DETERMINISTIC_BOUND:
        caveat = (
            f"is_prime_actual is only probable: n >= {_MR_DETERMINISTIC_BOUND}, "
            "beyond the proven range of Miller-Rabin bases 2..41, so a prime "
            "verdict rests on the unproven Baillie-PSW test"
        )
        note = f"{note}; {caveat}" if note else caveat
    return WitnessReport(
        n=n,
        test=test,
        residue=residue,
        verdict=PASSES if residue == 0 else COMPOSITE_WITNESSED,
        is_prime_actual=is_prime(n),
        note=note,
    )


def witness_fermat2(n: int) -> WitnessReport:
    """Residue of 2^n - 2 mod n, by modular exponentiation."""
    if n < 2:
        raise ValueError("witness requires n >= 2")
    return _report(n, FERMAT2, (pow(2, n, n) - 2) % n)


def witness_lucas(n: int) -> WitnessReport:
    """Residue of L_n - 1 mod n, via fast doubling mod n."""
    if n < 2:
        raise ValueError("witness requires n >= 2")
    return _report(n, LUCAS, (lucas_number(n, mod=n) - 1) % n)


def witness_central_binomial(n: int) -> WitnessReport:
    """Residue of C(2n-1, n-1) - 1 mod n, from the binomial's factorization.

    C(2n-1, n-1) is the product of p^e_p over the primes p <= 2n-1, with
    e_p = sum_i floor((2n-1)/p^i) - floor((n-1)/p^i) - floor(n/p^i)
    (Legendre's formula).  That is an exact factorization of the integer,
    so reducing it mod n is valid for every n, composite or not.

    The primes come from a sieve of one byte per integer up to 2n-1, so n
    is limited to CENTRAL_BINOMIAL_MAX_N (10**8, a 200 MB sieve); a
    larger n raises ValueError before anything is allocated.
    """
    if n < 2:
        raise ValueError("witness requires n >= 2")
    _check_central_binomial_n(n)
    top = 2 * n - 1
    sieve = bytearray([1]) * (top + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(top) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
    product = 1
    for p in itertools.compress(range(top + 1), sieve):
        e, q = 0, p
        while q <= top:
            e += top // q - (n - 1) // q - n // q
            q *= p
        if e:
            product = product * pow(p, e, n) % n
    return _report(n, CENTRAL_BINOMIAL, (product - 1) % n)


def _check_central_binomial_n(n: int) -> None:
    if n > CENTRAL_BINOMIAL_MAX_N:
        raise ValueError(
            f"central-binomial witness needs n <= {CENTRAL_BINOMIAL_MAX_N} (got {n})"
        )


def witness_generic(f: IntSeries, n: int, *, series_id: str = "series") -> WitnessReport:
    """Residue of n*g(n) - f(1)^n mod n for an arbitrary integer series f.

    Zero exactly when the truncated sum sum_{k<n} F_delta(n,k)/k is an
    integer, since n*g(n) differs from n times that sum by f(1)^n.
    """
    return _witness_generic(f, n, series_id, None)


def _witness_generic(
    f: IntSeries, n: int, series_id: str, table: CompositaeTable | None
) -> WitnessReport:
    """witness_generic, reading row n from `table` when one is given."""
    if n < 2:
        raise ValueError("witness requires n >= 2")
    if f.order < n:
        raise ValueError(f"series order {f.order} is below n={n}")
    ng = theorem_sum(f, n, table=table)
    if ng.denominator != 1:
        raise IntegralityError(f"n*g(n) came out fractional at n={n}: {ng}")
    f1 = f.coeff(1)
    residue = (int(ng) - pow(f1, n, n)) % n
    note = "degenerate: f(1) = 0, so the k = n term vanishes" if f1 == 0 else ""
    return _report(n, f"generic({series_id})", residue, note)


class ScanResult(Value):
    """Exhaustive witness scan over [lo, hi] with ground-truth verdicts."""

    __slots__ = ("lo", "hi", "test", "pseudoprimes", "primes_checked", "composites_checked")
    lo: int
    hi: int
    test: str
    pseudoprimes: tuple[int, ...]
    primes_checked: int
    composites_checked: int

    def __init__(
        self,
        lo: int,
        hi: int,
        test: str,
        pseudoprimes: tuple[int, ...],
        primes_checked: int,
        composites_checked: int,
    ) -> None:
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "test", test)
        set_field(self, "pseudoprimes", pseudoprimes)
        set_field(self, "primes_checked", primes_checked)
        set_field(self, "composites_checked", composites_checked)

    @property
    def values_checked(self) -> int:
        return self.primes_checked + self.composites_checked


def _witness_for(
    test: str, series: IntSeries | None = None, *, series_id: str = "series", hi: int | None = None
):
    """The witness n -> WitnessReport for one request, checked whole first.

    For a scan, `hi` is the largest n it will ask for, and it is checked
    here, before any witness: against CENTRAL_BINOMIAL_MAX_N for the
    central-binomial test, and against the series order for the generic
    test, which then reads every row from one compositae table of order
    hi.
    """
    if test == FERMAT2:
        return witness_fermat2
    if test == LUCAS:
        return witness_lucas
    if test == CENTRAL_BINOMIAL:
        if hi is not None:
            _check_central_binomial_n(hi)
        return witness_central_binomial
    if test == GENERIC:
        if series is None:
            raise ValueError("the generic test requires an IntSeries")
        if hi is None:
            return lambda n: witness_generic(series, n, series_id=series_id)
        if series.order < hi:
            raise ValueError(f"series order {series.order} is below hi={hi}")
        table = compositae_dp(series, hi)
        return lambda n: _witness_generic(series, n, series_id, table)
    raise ValueError(f"unknown witness test {test!r}")


def scan_pseudoprimes(
    test: str,
    lo: int,
    hi: int,
    *,
    threads: int = 1,
    series: IntSeries | None = None,
) -> ScanResult:
    """Every composite n in [lo, hi] that the named witness fails to flag.

    The scan runs on one thread, in one ascending pass.  `threads` must
    be >= 1 and is otherwise unused: the witnesses are pure Python, so
    under the interpreter lock a second thread gave no speedup.  The
    whole request is validated before the first witness runs, and a
    generic scan builds one compositae table of order hi for all n.
    """
    if not (2 <= lo <= hi):
        raise ValueError(f"need 2 <= lo <= hi, got lo={lo}, hi={hi}")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    witness = _witness_for(test, series, hi=hi)

    pseudo: list[int] = []
    primes = 0
    composites = 0
    for n in range(lo, hi + 1):
        report = witness(n)
        if report.is_prime_actual:
            primes += 1
        else:
            composites += 1
            if report.passes:
                pseudo.append(n)
    return ScanResult(
        lo=lo,
        hi=hi,
        test=test,
        pseudoprimes=tuple(pseudo),
        primes_checked=primes,
        composites_checked=composites,
    )
