"""Primality, factorization, and primitive roots for period-equation contexts.

Everything here is deterministic.  Every entry point of the package takes
primes p <= MAX_P = MAX_TABLE_ENTRIES // 2 + 1 = 2250001, the largest p
whose table of g^t mod p and one CRT table fit the table budget; a larger p
is refused with InvalidContext.  Primality uses Miller-Rabin to the fixed
witnesses 2, 3, 5, 7 below SMALL_WITNESS_BOUND ~ 3.2e9 and 2..41 from there,
proven exact for all n < PRIME_TEST_BOUND ~ 3.3e24 (in particular for the
full 64-bit range); larger n are refused, not guessed.  prime_flags
sieves a whole range up to MAX_P at once, for the surveys' task lists.
factorize is wheel trial division to TRIAL_LIMIT = 2^16 alone, so it
settles every n < 2^32, every p - 1 of the range among them; a cofactor
that trial division leaves is kept only if is_prime proves it prime, and
any other is refused.  primitive_root is the smallest one.
The CRT primes of the modular period build are q ≡ 1 (mod modulus) just
above CRT_PRIME_FLOOR = 2^29: below 2^30 each one is a single CPython digit,
so arithmetic mod q stays in one-digit ints.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Iterator, NamedTuple


class CompositeP(ValueError):
    """Raised when e*f + 1 is not prime."""


class InvalidContext(ValueError):
    """Raised for structurally invalid (e, f) parameters."""


class InternalContradiction(ArithmeticError):
    """A proven invariant failed: a bug, not a property of the input."""


# Strong-pseudoprime witnesses 2..41: the least strong pseudoprime to all of
# them is psi_13 = 3317044064679887385961981 (Sorenson-Webster 2015,
# arXiv:1509.00864).  Without 41 the bound is psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981
# The least strong pseudoprime to the witnesses 2, 3, 5, 7 alone, psi_4 =
# 151 * 751 * 28351 (Jaeschke, Math. Comp. 61, 1993): below it those four
# decide, which covers every p <= MAX_P and every CRT prime candidate.
SMALL_WITNESS_BOUND = 3215031751
_SMALL_WITNESSES = _MR_WITNESSES[:4]


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for every n < PRIME_TEST_BOUND:
    trial division by 2..41, then Miller-Rabin to the witnesses 2, 3, 5, 7
    below SMALL_WITNESS_BOUND and to all of 2..41 from it on.

    Raises ValueError for n >= PRIME_TEST_BOUND rather than guess.
    """
    if n < 2:
        return False
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"{n} is beyond the proven range of is_prime (< {PRIME_TEST_BOUND})")
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _SMALL_WITNESSES if n < SMALL_WITNESS_BOUND else _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Gap cycle for trial divisors coprime to 30, starting at 7.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)
# Trial division stops past this divisor, so every n < TRIAL_LIMIT**2 is
# factored by trial alone.
TRIAL_LIMIT = 1 << 16

# The table budget of a PrimePeriods, in entries: p - 1 for its table of
# g^t mod p and p - 1 per CRT prime, one digit of each entry of its table
# modulo the product of the primes.  The largest pair of e <= 250,
# p <= 10**5 is e = 250, p = 99251, whose norms take 42 primes: 4267750.
MAX_TABLE_ENTRIES = 4_500_000
# The largest p of every entry point: its g table and one CRT table fit
# MAX_TABLE_ENTRIES, and p - 1 < TRIAL_LIMIT**2 is factored by trial alone.
MAX_P = MAX_TABLE_ENTRIES // 2 + 1


def prime_flags(n: int) -> bytearray:
    """flags with flags[m] == 1 exactly when m is prime, for 0 <= m <= n <= MAX_P:
    a sieve of Eratosthenes, which lists the primes of a range at once where
    is_prime would prove them one by one."""
    if not 0 <= n <= MAX_P:
        raise InvalidContext(f"a sieve to n = {n} is outside [0, MAX_P = {MAX_P}]")
    flags = bytearray([1]) * (n + 1)
    flags[:2] = bytes(min(n + 1, 2))  # 0 and 1 are not prime
    for i in range(2, isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return flags


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, in ascending order.

    Wheel trial division to TRIAL_LIMIT, and nothing else: it settles every
    n < TRIAL_LIMIT**2 = 2^32.  A larger cofactor that it leaves is kept if
    is_prime proves it prime; any other n raises ValueError, as does is_prime
    for a cofactor at or above PRIME_TEST_BOUND.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    for q in (2, 3, 5):
        if n % q == 0:
            k = 0
            while n % q == 0:
                n //= q
                k += 1
            out[q] = k
    d, i = 7, 0
    while d <= TRIAL_LIMIT and d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out[d] = k
        d += _WHEEL[i]
        i = (i + 1) & 7
    if n > 1:
        if d * d <= n and not is_prime(n):
            raise ValueError(f"{n} has no prime factor up to TRIAL_LIMIT = {TRIAL_LIMIT} and is not prime")
        out[n] = 1
    return out


@lru_cache(maxsize=None)
def _order_primes(p: int) -> tuple[int, ...] | None:
    """The primes dividing p - 1 if p is an odd prime <= MAX_P, else None:
    the one proof of p that every primitive-root test reads."""
    return tuple(factorize(p - 1)) if 3 <= p <= MAX_P and is_prime(p) else None


def is_primitive_root(g: int, p: int) -> bool:
    """Whether p is an odd prime <= MAX_P and 0 < g < p has order p - 1."""
    primes = _order_primes(p) if 0 < g < p else None
    return primes is not None and all(pow(g, (p - 1) // q, p) != 1 for q in primes)


def primitive_root(p: int) -> int:
    """Smallest positive primitive root modulo the prime 3 <= p <= MAX_P."""
    if _order_primes(p) is None:
        if p > MAX_P:
            raise InvalidContext(
                f"p = {p} is above MAX_P = {MAX_P}, the largest p within the table budget "
                f"MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}"
            )
        if is_prime(p):
            raise InvalidContext("need p >= 3 for a primitive root")
        raise CompositeP(f"{p} is not prime")
    return next(g for g in range(2, p) if is_primitive_root(g, p))


class PrimeContext(NamedTuple):
    """Fixed arithmetic data for one pair (e, f) with p = e*f + 1 prime.

    g is the smallest primitive root mod p; every derived quantity
    (periods, polynomials, classifications) is independent of which
    primitive root is used, so pinning the smallest keeps runs
    reproducible byte for byte.
    """

    p: int
    e: int
    f: int
    g: int


def make_context(e: int, f: int) -> PrimeContext:
    """Build the context for (e, f); primitive_root raises CompositeP if
    e*f + 1 is not prime, and InvalidContext if it is 2 or above MAX_P."""
    if e < 1 or f < 1:
        raise InvalidContext(f"need e >= 1 and f >= 1, got e={e}, f={f}")
    p = e * f + 1
    return PrimeContext(p=p, e=e, f=f, g=primitive_root(p))


# CRT and residue primes start just above 2^29, so that every q < 2^30 is one
# 30-bit CPython digit: table entries, period sums and residues mod q are
# then one-digit ints, their products two digits, and % q takes the
# interpreter's single-digit division path instead of general long division.
CRT_PRIME_FLOOR = 1 << 29


def primes_in_progression(modulus: int, start: int = CRT_PRIME_FLOOR) -> Iterator[int]:
    """Yield primes q with q ≡ 1 (mod modulus) and q > start, in increasing order."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    q = start + 1 + (-start) % modulus
    # q is the least value > start with q ≡ 1 (mod modulus)
    while True:
        if is_prime(q):
            yield q
        q += modulus
