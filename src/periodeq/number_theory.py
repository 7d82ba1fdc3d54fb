"""Primality, factorization, and primitive roots for period-equation contexts.

Everything here is deterministic.  Primality uses the fixed Miller-Rabin
witness set 2..41, proven exact for all n < PRIME_TEST_BOUND ~ 3.3e24 (in
particular for the full 64-bit range); larger n are refused, not guessed.
Factorization is wheel trial division, and the primitive root returned is
always the smallest one.
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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, by trial division."""
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
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out[d] = k
        d += _WHEEL[i]
        i = (i + 1) & 7
    if n > 1:
        out[n] = out.get(n, 0) + 1
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


WORD_PRIME_FLOOR = 1 << 62


def primes_in_progression(modulus: int, start: int = WORD_PRIME_FLOOR) -> Iterator[int]:
    """Yield primes q with q ≡ 1 (mod modulus) and q > start, in increasing order."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    q = start + 1 + (-start) % modulus
    # q is the least value > start with q ≡ 1 (mod modulus)
    while True:
        if is_prime(q):
            yield q
        q += modulus
