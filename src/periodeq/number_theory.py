"""Primality, factorization, and primitive roots for period-equation contexts.

Everything here is deterministic.  Primality uses the fixed Miller-Rabin
witness set 2..41, proven exact for all n < PRIME_TEST_BOUND ~ 3.3e24 (in
particular for the full 64-bit range); larger n are refused, not guessed.
Factorization is wheel trial division up to TRIAL_LIMIT, then Pollard-Brent
on what is left, and the primitive root returned is always the smallest one.
The CRT primes of the modular period build are q ≡ 1 (mod modulus) just
above CRT_PRIME_FLOOR = 2^29: below 2^30 each one is a single CPython digit,
so arithmetic mod q stays in one-digit ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


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


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for every n < PRIME_TEST_BOUND.

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
    for a in _MR_WITNESSES:
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
# Trial division stops past this divisor once the cofactor is below
# PRIME_TEST_BOUND, so every n < TRIAL_LIMIT**2 is factored by trial alone.
TRIAL_LIMIT = 1 << 16
_TRIAL_STOP = TRIAL_LIMIT * TRIAL_LIMIT
# Pollard-Brent takes gcds over batches of this many steps.
_BRENT_BATCH = 128


def _pollard_brent(n: int) -> int:
    """A proper divisor of the composite n: Brent's cycle search on
    x -> x^2 + c mod n from x = 2, for c = 1, 2, ... until a gcd is neither
    1 nor n."""
    for c in range(1, n):
        y, r, acc, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                saved = y
                for _ in range(min(_BRENT_BATCH, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                d = math.gcd(acc, n)
                k += _BRENT_BATCH
            r *= 2
        if d == n:
            # the batch's product hit 0 mod n: redo its steps one gcd at a time
            d = 1
            while d == 1:
                saved = (saved * saved + c) % n
                d = math.gcd(x - saved, n)
        if d != n:
            return d
    raise InternalContradiction(f"Pollard-Brent found no divisor of {n}")


def _prime_factors(n: int) -> list[int]:
    """The prime factors of 1 < n < PRIME_TEST_BOUND, with multiplicity,
    for n with no prime factor below TRIAL_LIMIT."""
    if is_prime(n):
        return [n]
    d = _pollard_brent(n)
    return _prime_factors(d) + _prime_factors(n // d)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, in ascending order.

    Wheel trial division finds the factors below TRIAL_LIMIT; a cofactor
    below PRIME_TEST_BOUND that is left is split by Pollard-Brent and its
    pieces proven prime by is_prime, a larger one is trial-divided to the end.
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
    # d runs while d * d <= stop: to the end for n at or above
    # PRIME_TEST_BOUND, else only while d <= TRIAL_LIMIT; stop is updated
    # only when n shrinks, so small n pay no extra test per divisor
    stop = n if n < _TRIAL_STOP or n >= PRIME_TEST_BOUND else _TRIAL_STOP
    while d * d <= stop:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out[d] = k
            stop = n if n < _TRIAL_STOP or n >= PRIME_TEST_BOUND else _TRIAL_STOP
        d += _WHEEL[i]
        i = (i + 1) & 7
    if d * d > n:
        if n > 1:
            out[n] = 1
    else:
        for q in sorted(_prime_factors(n)):
            out[q] = out.get(q, 0) + 1
    return out


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest positive primitive root modulo the prime p >= 3."""
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")
    if p < 3:
        raise InvalidContext("need p >= 3 for a primitive root")
    tests = [(p - 1) // q for q in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, t, p) != 1 for t in tests):
            return g
    raise InternalContradiction(f"no primitive root found for {p}")


@dataclass(frozen=True)
class PrimeContext:
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
    """Build the context for (e, f); raises CompositeP if e*f + 1 is not prime."""
    if e < 1 or f < 1:
        raise InvalidContext(f"need e >= 1 and f >= 1, got e={e}, f={f}")
    p = e * f + 1
    if p < 3:
        raise InvalidContext(f"p = {p} is too small")
    if p >= PRIME_TEST_BOUND:
        raise InvalidContext(f"p = {p} is beyond the proven primality range (< {PRIME_TEST_BOUND})")
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")
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
