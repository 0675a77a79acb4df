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

The central-binomial residue is computed one prime power q^a || n at a
time (Lucas, Jacobsthal, Kummer) and joined by the Chinese remainder
theorem; see witness_central_binomial.  Any other series takes the
generic witness, which streams n*g(n) off the derivative recurrence
G' = F'/(1-F) (compositae._h_and_ng) in O(n * |supp f|) steps, holding
O(d) values for a support that ends at d, and builds no compositae
table.  For x^2 + x^3, n*g(n) is the Perrin number P(n), so the
generic witness is the Perrin test.

Ground-truth primality is one gcd with the product of the primes below
1000, which is exact trial division below 10^6, then fixed-base
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
from collections import deque

from ._value import Value, set_field
from .compositae import _h_and_ng
from .series import IntSeries
# Not called here; bench/tracing.py wraps this name in this module too.
from .superposition import theorem_sum

PASSES = "passes"
COMPOSITE_WITNESSED = "composite-witnessed"

FERMAT2 = "fermat2"
LUCAS = "lucas"
CENTRAL_BINOMIAL = "central-binomial"
GENERIC = "generic"
NAMED_TESTS = (FERMAT2, LUCAS, CENTRAL_BINOMIAL)


def _prime_flags(size: int) -> bytearray:
    """flags[i] == 1 iff i is prime, for 0 <= i < size (size even, >= 4)."""
    # The b"\0\1" pattern starts with every even index cleared, so no p = 2
    # pass (a size/2-byte zero block) is needed and odd p clears odd multiples only.
    flags = bytearray(b"\0\1") * (size // 2)
    flags[1:3] = b"\0\1"
    for p in range(3, math.isqrt(size - 1) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = bytes(len(range(p * p, size, 2 * p)))
    return flags


_SMALL_PRIME_BOUND = 1000
_SMALL_PRIME_FLAGS = _prime_flags(_SMALL_PRIME_BOUND)
_SMALL_PRIMES = tuple(itertools.compress(range(_SMALL_PRIME_BOUND), _SMALL_PRIME_FLAGS))
# gcd(n, _SMALL_PRIMES_PRODUCT) == 1 iff n has no prime factor below 1000, so
# below 1000^2 it is exact trial division, and above it a cheap prefilter.
_SMALL_PRIMES_PRODUCT = math.prod(_SMALL_PRIMES)
_TRIAL_DIVISION_BOUND = _SMALL_PRIME_BOUND**2
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Below this, the bases above decide primality; at or above it a strong Lucas
# test runs too (Baillie-PSW), and a True is probable.
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981

# witness_central_binomial falls back to a sieve of [0, 2n-1], one byte per
# integer, when 4 or 9 divides n and the binomial has too few factors of 2
# or 3 (powers of 2 and of 3 always do), so n is capped to keep that buffer
# at 200 MB.  At n = 99999744 = 2^13 * 12207, the largest such n below the
# cap, the process peaks at about 244 MB (ru_maxrss, CPython 3.11): the
# sieve, the n/3-byte block that clears the odd multiples of 3, and the
# interpreter.
CENTRAL_BINOMIAL_MAX_N = 10**8


def is_prime(n: int) -> bool:
    """Primality by trial division below 10^6, then fixed-base Miller-Rabin.

    The trial division is one gcd with the product of the primes below
    1000: a composite below 10^6 has such a factor, and above 10^6 the
    same gcd removes most composites before Miller-Rabin runs.
    Deterministic for n < 3317044064679887385961981.  From there on a
    strong Lucas test follows (Baillie-PSW), and a True means only
    "probable prime"; a False is always a proof of compositeness.
    """
    if n < _SMALL_PRIME_BOUND:
        return n >= 2 and _SMALL_PRIME_FLAGS[n] == 1
    if math.gcd(n, _SMALL_PRIMES_PRODUCT) != 1:
        return False
    if n < _TRIAL_DIVISION_BOUND:
        return True
    if n < _MR_DETERMINISTIC_BOUND:
        return _miller_rabin(n)
    return _miller_rabin(n) and _strong_lucas(n)


def _miller_rabin(n: int) -> bool:
    """Strong probable-prime test of odd n > 41 to every base in _MR_BASES."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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
    """Residue of C(2n-1, n-1) - 1 mod n, one prime power of n at a time.

    n is factored by trial division to sqrt(n).  For each q^a || n, with
    CB(m) = C(2m-1, m-1), the residue of CB(n) mod q^a comes from:

    - a = 1: Lucas's theorem on the base-q digits of 2n-1 and n-1;
    - q >= 5: Jacobsthal's congruence C(2mq, mq) = C(2m, m) mod
      q^(3 + 3 v_q(m)), which for odd q gives CB(n/q^i) = CB(n/q^(i+1))
      mod q^(3(a-i)).  Chained j = min(a, floor(2a/3) + 1) times it holds
      mod q^(3(a-j+1)), at least q^a, so CB(n) = CB(n/q^j) mod q^a, and
      the Legendre product below runs on n/q^j instead of n;
    - q in {2, 3}, a >= 2: 0 if v_q(CB(n)), Kummer's count of carries
      when n-1 and n are added in base q, is at least a; otherwise the
      Legendre product on n itself, mod q^a.

    The residues are joined by the Chinese remainder theorem.  Only the
    last case sieves to 2n-1 (powers of 2 and of 3 always take it), so n
    is still limited to CENTRAL_BINOMIAL_MAX_N (10**8, a 200 MB sieve and
    a peak of about 244 MB); a larger n raises ValueError before anything
    is allocated.  References: Granville, "Binomial coefficients modulo
    prime powers" (1997).
    """
    if n < 2:
        raise ValueError("witness requires n >= 2")
    _check_central_binomial_n(n)
    residue, modulus = 0, 1
    for q, a in _factorize(n):
        qa = q**a
        if a == 1:
            r = _binomial_mod_prime(2 * n - 1, n - 1, q)
        elif q >= 5:
            r = _central_binomial_legendre(n // q ** min(a, 2 * a // 3 + 1), qa)
        elif _central_binomial_valuation(n, q) >= a:
            r = 0
        else:
            r = _central_binomial_legendre(n, qa)
        residue += modulus * ((r - residue) * pow(modulus, -1, qa) % qa)
        modulus *= qa
    return _report(n, CENTRAL_BINOMIAL, (residue - 1) % n)


def _factorize(n: int) -> list[tuple[int, int]]:
    """[(q, a), ...] with q^a || n, q ascending, by trial division to sqrt(n)."""
    factors = []
    for q in itertools.chain(_SMALL_PRIMES, itertools.count(_SMALL_PRIME_BOUND + 1, 2)):
        if q * q > n:
            break
        if n % q == 0:
            a = 0
            while n % q == 0:
                n //= q
                a += 1
            factors.append((q, a))
    if n > 1:
        factors.append((n, 1))
    return factors


def _binomial_mod_prime(top: int, k: int, q: int) -> int:
    """C(top, k) mod prime q, by Lucas's theorem: the product over base-q digits."""
    result = 1
    while k:
        top, t = divmod(top, q)
        k, s = divmod(k, q)
        if s > t:
            return 0
        result = result * math.comb(t, s) % q
    return result


def _central_binomial_valuation(m: int, p: int) -> int:
    """v_p(C(2m-1, m-1)) by Legendre's formula, the sum over the powers p^i <= 2m-1."""
    top, e, pi = 2 * m - 1, 0, p
    while pi <= top:
        e += top // pi - (m - 1) // pi - m // pi
        pi *= p
    return e


def _central_binomial_legendre(m: int, mod: int) -> int:
    """C(2m-1, m-1) mod `mod`, from the binomial's factorization.

    C(2m-1, m-1) is the product of p^e_p over the primes p <= 2m-1, with
    e_p its p-adic valuation (Legendre's formula).  That is an exact
    factorization of the integer, so reducing it mod `mod` is valid for
    every modulus.  The primes come from a sieve of one byte per integer
    up to 2m-1.
    """
    if m == 1:
        return 1 % mod
    top = 2 * m - 1
    flags = _prime_flags(top + 1)
    root = math.isqrt(top)
    product = 1
    for p in itertools.compress(range(root + 1), flags):
        product = product * pow(p, _central_binomial_valuation(m, p), mod) % mod
    # Above sqrt(2m-1) Legendre's sum has one term, and it is 0 or 1.
    for p in itertools.compress(range(root + 1, top + 1), itertools.islice(flags, root + 1, None)):
        if top // p - (m - 1) // p - m // p:
            product = product * p % mod
    return product % mod


def _check_central_binomial_n(n: int) -> None:
    if n > CENTRAL_BINOMIAL_MAX_N:
        raise ValueError(
            f"central-binomial witness needs n <= {CENTRAL_BINOMIAL_MAX_N} (got {n})"
        )


def witness_generic(f: IntSeries, n: int, *, series_id: str = "series") -> WitnessReport:
    """Residue of n*g(n) - f(1)^n mod n for an arbitrary integer series f.

    Zero exactly when the truncated sum sum_{k<n} F_delta(n,k)/k is an
    integer, since n*g(n) differs from n times that sum by f(1)^n.
    n*g(n) mod n is the last value the derivative recurrence streams mod
    n: O(n * |supp f|) steps on ints below n, holding O(d) of them for a
    support that ends at d, with no compositae table.  For x^2 + x^3
    (inline:0,1,1) the residue is the Perrin number P(n) mod n; 271441 =
    521^2 and 904631 = 7 * 13 * 9941 are the first composites that pass.
    """
    if n < 2:
        raise ValueError("witness requires n >= 2")
    if n > f.order:
        raise ValueError(f"n={n} exceeds series order {f.order}")
    ((_, ng),) = deque(_h_and_ng(f, n, mod=n), maxlen=1)
    return _generic_report(n, ng, f.coeff(1), series_id)


def _generic_report(n: int, ng: int, f1: int, series_id: str) -> WitnessReport:
    """The generic witness's report at n, given n*g(n) (exact or mod n) and f(1)."""
    residue = (ng - pow(f1, n, n)) % n
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


def _witness_for(
    test: str, series: IntSeries | None = None, *, series_id: str = "series", hi: int | None = None
):
    """The witness n -> WitnessReport for one request, checked whole first.

    For a scan, `hi` is the largest n it will ask for, and it is checked
    here, before any witness: against CENTRAL_BINOMIAL_MAX_N for the
    central-binomial test, and against the series order for the generic
    test.  The generic scan's witness must then be asked for ascending
    n: it advances one exact stream of the derivative recurrence to n and
    reduces that n*g(n) mod n.  The modulus changes with n, so the values
    stay exact, but only O(d) of them are held for a support that ends
    at d: with values of about b * hi bits, O(d * b * hi) bits in all.
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
        ngs = enumerate(ng for _, ng in _h_and_ng(series, hi))
        f1 = series.coeff(1)
        # The scan asks for ascending n, so each call reads the stream on to n.
        return lambda n: _generic_report(n, next(ng for m, ng in ngs if m == n), f1, series_id)
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
    generic scan streams the derivative recurrence once, exact, to hi,
    reducing each n*g(n) mod n as it is made and keeping no list of them.
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
