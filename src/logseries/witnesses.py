"""Compositeness witnesses derived from truncated-superposition integrality.

For an integer series f with triangle F_delta, the quantity

    n*g(n) - f(1)^n  =  n * sum_{k=1}^{n-1} F_delta(n, k) / k

is divisible by n whenever n is prime.  A nonzero residue mod n is
therefore a proof of compositeness; residue 0 proves nothing (composite
passers are pseudoprimes for the chosen series).  A prime with a nonzero
residue can only come from a defect, and raises ArithmeticError
(_report).  Three specializations have closed forms and run in modular
arithmetic, without any series, for any n (central-binomial to 10**8):

    ones (f(i) = 1):        residue of 2^n - 2            (fermat2)
    x + x^2:                residue of L_n - 1            (lucas)
    shifted Catalan:        residue of C(2n-1, n-1) - 1   (central-binomial)

The central-binomial residue is computed one prime power q^a || n at a
time (Lucas's theorem for a = 1, the q-free parts of the factorials mod
q^a otherwise) and joined by the Chinese remainder theorem; see
witness_central_binomial.  Any other series takes the generic witness,
which streams n*g(n) off the derivative recurrence G' = F'/(1-F)
(compositae._h_and_ng) in O(n * |supp f|) steps, holding O(d) values
for a support that ends at d, and builds no compositae table.  For
x^2 + x^3, n*g(n) is the Perrin number P(n), so the generic witness is
the Perrin test.

Only the generic witness needs series code, so this module imports
_h_and_ng (and theorem_sum) from their modules on first use: a named
witness or scan loads neither compositae nor fractions.  _h_and_ng is
called through _module, this module, at call time, because tests spy on
it here.  theorem_sum is never called here; bench/tracing.py wraps it in
this module too, and it goes once the tracer hooks public entry points
alone.

Ground-truth primality is one gcd with the product of the primes below
1000, which is exact trial division below 10^6, then Miller-Rabin with
the first t prime bases above.  Each t is proven deterministic below a
bound (psi_t, OEIS A014233), and n takes the first range it lies in:

    t = 7, bases 2..17:  n < 341550071728321 (Jaeschke, Math. Comp. 61, 1993)
    t = 9, bases 2..23:  n < 3825123056546413051 (Jiang and Deng, Math. Comp. 83, 2014)
    t = 12, bases 2..37: n < 318665857834031151167461 (Sorenson and Webster,
                         Math. Comp. 86, 2017)
    t = 13, bases 2..41: n < 3317044064679887385961981 (the same)

so witness verdicts are checked against an independent fact there.  From
the last bound on, a strong Lucas test with Selfridge's parameters
follows the 13 bases, which makes the whole test Baillie-PSW: no
composite is known to pass it, but none is proven not to, so the ground
truth there is only probable, and each report's note says so.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import deque

# The test names are defined in the package, where cli reads them without
# importing this module; NAMED_TESTS is only re-exported here.
from . import CENTRAL_BINOMIAL, FERMAT2, GENERIC, LUCAS, NAMED_TESTS, _lazy  # noqa: F401
from ._value import Value, _prime_flags, set_field

TYPE_CHECKING = False
if TYPE_CHECKING:  # names for annotations only
    from .series import IntSeries

# Imported on first use; see the module docstring.
__getattr__ = _lazy(globals(), {"_h_and_ng": "compositae", "theorem_sum": "superposition"})
_module = sys.modules[__name__]

PASSES = "passes"
COMPOSITE_WITNESSED = "composite-witnessed"


_SMALL_PRIME_BOUND = 1000
_SMALL_PRIME_FLAGS = _prime_flags(_SMALL_PRIME_BOUND)
_SMALL_PRIMES = tuple(itertools.compress(range(_SMALL_PRIME_BOUND), _SMALL_PRIME_FLAGS))
# gcd(n, _SMALL_PRIMES_PRODUCT) == 1 iff n has no prime factor below 1000, so
# below 1000^2 it is exact trial division, and above it a cheap prefilter.
_SMALL_PRIMES_PRODUCT = math.prod(_SMALL_PRIMES)
_TRIAL_DIVISION_BOUND = _SMALL_PRIME_BOUND**2
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_t, t): below psi_t the first t bases decide primality; all 13 do below
# the bound, and from the bound on a strong Lucas test runs too (probable).
_MR_BASE_COUNTS = ((341550071728321, 7), (3825123056546413051, 9), (318665857834031151167461, 12))
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981

# Jacobsthal's congruence C(kq, lq) = C(k, l) mod q^e, q^e || q^3 k l (k - l),
# holds for primes q >= 5, and for q = 3 and 2 with e lowered by 1 and by 2
# (Granville, "Binomial coefficients modulo prime powers", 1997).  At k = 2l it
# gives CB(N) = CB(N/q) mod q^(3 v_q(N) - loss_q): for q = 2, v_2(k) = 1 adds
# one back, and CB(N) = C(2N, N)/2 takes one.
_JACOBSTHAL_LOSS = {2: 2, 3: 1}

# witness_central_binomial holds O(log n) values and is capped for time: below
# the cap no n found takes over 8 ms (2^17 * 761 in the q-free pass, 6907 *
# 13829 in the digit binomials; CPython 3.11, 2 vCPUs), but the trial division
# of _factorize and the exact digit binomials grow about as sqrt(n) above it.
CENTRAL_BINOMIAL_MAX_N = 10**8


def is_prime(n: int) -> bool:
    """Primality by trial division below 10^6, then fixed-base Miller-Rabin.

    The trial division is one gcd with the product of the primes below
    1000: a composite below 10^6 has such a factor, and above 10^6 the
    same gcd removes most composites before Miller-Rabin runs, with
    prime bases that are proven deterministic at n (OEIS A014233): 2..17
    below psi_7 = 341550071728321 (Jaeschke 1993), 2..23 below psi_9 =
    3825123056546413051 (Jiang and Deng 2014), 2..37 below psi_12 =
    318665857834031151167461 and 2..41 below 3317044064679887385961981
    (Sorenson and Webster 2017).  From there on a strong Lucas test
    follows (Baillie-PSW), and a True means only "probable prime"; a
    False is always a proof of compositeness.
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
    """Strong probable-prime test of odd n > 41 to the first t of _MR_BASES,
    for the first (psi_t, t) of _MR_BASE_COUNTS with n < psi_t, else all 13."""
    count = next((t for psi, t in _MR_BASE_COUNTS if n < psi), len(_MR_BASES))
    minus_one = n - 1
    s = (minus_one & -minus_one).bit_length() - 1
    d = minus_one >> s
    for a in _MR_BASES[:count]:
        x = pow(a, d, n)
        if x == 1 or x == minus_one:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == minus_one:
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
    """L(n), n >= 1, by a doubling ladder over the bits of k = n >> 1.

    The ladder walks the pair (V(k), V(k+1)) of the Lucas sequence of
    x^2 - 3x + 1, whose roots are the squares of those of x^2 - x - 1,
    so V(k) = L(2k), through

        V(2k) = V(k)^2 - 2,   V(2k+1) = V(k) V(k+1) - 3,

    and returns L(2k) = V(k) or L(2k+1) = V(k+1) - V(k).  Its Q is 1, so
    no (-1)^k sign is carried.  Every step is reduced mod `mod`, so the
    full L(n) is never materialized; without `mod` the result is the
    exact integer L(n).
    """
    if n < 1:
        raise ValueError("Lucas numbers are indexed from 1 here")
    if mod is None:
        mod = 1 << n  # 0 < L(n) < 2^n, so L(n) mod 2^n is L(n) itself
    bits = bin(n >> 1)[2:]
    a, b = 2, 3  # V(0), V(1)
    for bit in bits:
        if bit == "1":
            a, b = (a * b - 3) % mod, (b * b - 2) % mod
        else:
            a, b = (a * a - 2) % mod, (a * b - 3) % mod
    return (b - a if n & 1 else a) % mod


class WitnessReport(Value):
    """Outcome of one compositeness test at one n, with exact evidence.

    residue is the tested quantity reduced mod n; verdict is derived
    from it: `passes` iff residue == 0.  is_prime_actual comes from the
    deterministic primality check, independent of the witness.
    """

    __slots__ = ("n", "test", "residue", "is_prime_actual", "note")
    n: int
    test: str
    residue: int
    is_prime_actual: bool
    note: str

    def __init__(
        self,
        n: int,
        test: str,
        residue: int,
        is_prime_actual: bool,
        note: str = "",
    ) -> None:
        if not (0 <= residue < n):
            raise ValueError(f"residue {residue} outside [0, {n})")
        set_field(self, "n", n)
        set_field(self, "test", test)
        set_field(self, "residue", residue)
        set_field(self, "is_prime_actual", is_prime_actual)
        set_field(self, "note", note)

    @property
    def passes(self) -> bool:
        return self.residue == 0

    @property
    def verdict(self) -> str:
        return PASSES if self.residue == 0 else COMPOSITE_WITNESSED

    @property
    def is_pseudoprime(self) -> bool:
        """Composite but undetected by this test."""
        return self.passes and not self.is_prime_actual


def _report(n: int, test: str, residue: int, note: str = "") -> WitnessReport:
    """The report of every witness and scan step at n.

    Every prime passes every test (the theorem), so a prime n with a
    nonzero residue is a defect, never a verdict: it raises
    ArithmeticError, which the CLI reports as an internal error (exit 3).
    From _MR_DETERMINISTIC_BOUND on, n could instead be a composite that
    passes Baillie-PSW, and the message says so.
    """
    prime = is_prime(n)
    probable = n >= _MR_DETERMINISTIC_BOUND
    if prime and residue:
        message = f"{test} residue {residue} at n={n}, which is prime: a defect, since every prime passes"
        if probable:
            message += (
                f"; n >= {_MR_DETERMINISTIC_BOUND}, where primality is only probable "
                "(Baillie-PSW), so n may instead be a composite that passes it"
            )
        raise ArithmeticError(message)
    if probable:
        caveat = (
            f"is_prime_actual is only probable: n >= {_MR_DETERMINISTIC_BOUND}, "
            "beyond the proven range of Miller-Rabin bases 2..41, so a prime "
            "verdict rests on the unproven Baillie-PSW test"
        )
        note = f"{note}; {caveat}" if note else caveat
    # Positional arguments: a scan builds one report per n.
    return WitnessReport(n, test, residue, prime, note)


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
    - a >= 2: CB(m) mod q^a from the q-free parts of its factorials
      (_central_binomial_mod_prime_power) at m = n/q^j.  Jacobsthal's
      congruence CB(N) = CB(N/q) mod q^(3 v_q(N) - loss_q)
      (_JACOBSTHAL_LOSS), chained j = min(a, floor((2a - loss_q)/3) + 1)
      times from N = n, holds mod q^(3(a-j+1) - loss_q) >= q^a.

    The residues are joined by the Chinese remainder theorem.  Every route
    holds O(log n) values; n is limited to CENTRAL_BINOMIAL_MAX_N (10**8),
    and a larger n raises ValueError before any work.  References:
    Granville, "Binomial coefficients modulo prime powers" (1997).
    """
    if n < 2:
        raise ValueError("witness requires n >= 2")
    _check_central_binomial_n(n)
    residue, modulus = 0, 1
    for q, a in _factorize(n):
        qa = q**a
        if a == 1:
            r = _binomial_mod_prime(2 * n - 1, n - 1, q)
        else:
            j = min(a, (2 * a - _JACOBSTHAL_LOSS.get(q, 0)) // 3 + 1)
            r = _central_binomial_mod_prime_power(n // q**j, q, a)
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


def _central_binomial_mod_prime_power(m: int, q: int, a: int) -> int:
    """C(2m-1, m-1) mod q^a, a >= 2, from the q-free parts of its factorials.

    With v = v_q(C(2m-1, m-1)) < a it is q^v U(2m-1) / (U(m-1) U(m)),
    where U(N) = N!/q^v_q(N!) is the product of u(floor(N/q^i)), i >= 0,
    and u(k) is the product of the j <= k prime to q.  Mod q^a, u(k) =
    eps^floor(k/q^a) u(k mod q^a) with eps = u(q^a - 1) = -1, or +1 for
    q = 2, a >= 3 (Gauss's generalization of Wilson's theorem).  One pass
    up to the largest k mod q^a, seeded with u(q^a - 1), gives every u
    needed: fewer than min(q^a, 2m) steps, O(log m) values held.
    """
    # floor(N/q^i), i >= 0, for the numerator (2m-1)! and the denominator (m-1)! m!
    top, bottom = [], []
    for k, ks in ((2 * m - 1, top), (m - 1, bottom), (m, bottom)):
        while k:
            ks.append(k)
            k //= q
    # v_q(N!) is the sum of floor(N/q^i) over i >= 1 (Legendre), and the
    # i = 0 terms cancel: (2m-1) - (m-1) - m = 0.
    v = sum(top) - sum(bottom)
    if v >= a:
        return 0
    qa = q**a
    eps = 1 if q == 2 and a >= 3 else -1
    u, acc, lo = {qa - 1: eps}, 1, 1
    for k in sorted({k % qa for k in top + bottom} - u.keys()):
        for j in range(lo, k + 1):
            if j % q:
                acc = acc * j % qa
        u[k], lo = acc, k + 1

    def free_part(ks: list[int]) -> int:
        return math.prod(u[k % qa] * (eps if k // qa & 1 else 1) for k in ks)

    return q**v * free_part(top) * pow(free_part(bottom), -1, qa) % qa


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
    ((_, ng),) = deque(_module._h_and_ng(f, n, mod=n), maxlen=1)
    return _generic_report(n, ng, f.coeff(1), series_id)


def _generic_report(n: int, ng: int, f1: int, series_id: str) -> WitnessReport:
    """The generic witness's report at n, given n*g(n) (exact or mod n) and f(1)."""
    residue = (ng - pow(f1, n, n)) % n
    note = "degenerate: f(1) = 0, so the k = n term vanishes" if f1 == 0 else ""
    return _report(n, f"generic({series_id})", residue, note)


class ScanResult(Value):
    """Exhaustive witness scan over [lo, hi] with ground-truth verdicts."""

    __slots__ = ("lo", "hi", "test", "pseudoprimes", "primes_checked")
    lo: int
    hi: int
    test: str
    pseudoprimes: tuple[int, ...]
    primes_checked: int

    def __init__(
        self,
        lo: int,
        hi: int,
        test: str,
        pseudoprimes: tuple[int, ...],
        primes_checked: int,
    ) -> None:
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "test", test)
        set_field(self, "pseudoprimes", pseudoprimes)
        set_field(self, "primes_checked", primes_checked)

    @property
    def composites_checked(self) -> int:
        """Derived: every other n in [lo, hi] is composite."""
        return self.hi - self.lo + 1 - self.primes_checked


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
        ngs = enumerate(ng for _, ng in _module._h_and_ng(series, hi))
        f1 = series.coeff(1)
        # The scan asks for ascending n, so each call reads the stream on to n.
        return lambda n: _generic_report(n, next(ng for m, ng in ngs if m == n), f1, series_id)
    raise ValueError(f"unknown witness test {test!r}")


def _check_scan_range(lo: int, hi: int, threads: int) -> None:
    """Reject a scan's range or thread count; the CLI calls this before it builds a series."""
    if not (2 <= lo <= hi):
        raise ValueError(f"need 2 <= lo <= hi, got lo={lo}, hi={hi}")
    if threads < 1:
        raise ValueError("threads must be >= 1")


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
    _check_scan_range(lo, hi, threads)
    witness = _witness_for(test, series, hi=hi)

    pseudo: list[int] = []
    primes = 0
    for n in range(lo, hi + 1):
        report = witness(n)
        if report.is_prime_actual:
            primes += 1
        elif report.passes:
            pseudo.append(n)
    return ScanResult(
        lo=lo,
        hi=hi,
        test=test,
        pseudoprimes=tuple(pseudo),
        primes_checked=primes,
    )
