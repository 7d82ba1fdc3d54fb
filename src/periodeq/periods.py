"""Gaussian periods and their minimal-polynomial products, exactly.

For p = e*f + 1 prime with primitive root g, the i-th period is
eta_i = sum over k < f of zeta^(g^(k*e+i)), zeta a primitive p-th root of
unity.  The period polynomial psi_e = prod (x - eta_i) has integer
coefficients; two independent constructions are provided, one exact, on
integer coordinate vectors over 1, zeta, ..., zeta^(p-1), and one modular
with CRT reconstruction against a proven coefficient bound.  The modular
one is organised by p: one PrimePeriods finds the CRT primes and the
root-of-unity tables of p once and builds psi_e for every e | p - 1 from
them, so a survey that visits many e of one p pays for those tables once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .intpoly import IntPoly
from .number_theory import (
    PRIME_TEST_BOUND,
    InternalContradiction,
    InvalidContext,
    PrimeContext,
    factorize,
    is_prime,
    primes_in_progression,
)


class NonIntegerCoefficient(InternalContradiction):
    """Raised if a supposedly rational-integer coefficient fails to collapse."""


def _power_table(p: int, g: int) -> list[int]:
    """g^t mod p for t = 0 .. p-2."""
    tab = [1] * (p - 1)
    for t in range(1, p - 1):
        tab[t] = tab[t - 1] * g % p
    return tab


def _exponent_sets(ctx: PrimeContext) -> list[list[int]]:
    """For each class index i, the exponents g^(k*e+i) mod p, k = 0 .. f-1."""
    tab = _power_table(ctx.p, ctx.g)
    return [tab[i::ctx.e] for i in range(ctx.e)]


@dataclass(frozen=True)
class PeriodPolynomial:
    """A period polynomial together with the context that produced it."""

    ctx: PrimeContext
    poly: IntPoly


def _rotate(v: list[int], a: int) -> list[int]:
    # multiply by zeta^a on length-p cyclic coordinates, 0 <= a < p
    return v if a == 0 else v[-a:] + v[:-a]


def period_polynomial_exact(ctx: PrimeContext) -> PeriodPolynomial:
    """Expand prod (x - eta_i) in exact cyclotomic-integer arithmetic.

    Internally the coefficients live on the full cyclic basis 1 .. zeta^(p-1)
    (length-p vectors); multiplying by a period is f rotations and adds.
    Every final coefficient must collapse to a rational integer, else
    NonIntegerCoefficient signals a broken invariant.
    """
    p = ctx.p
    exps = _exponent_sets(ctx)

    def eta_times(v: list[int], A: list[int]) -> list[int]:
        acc = _rotate(v, A[0])[:]
        for a in A[1:]:
            r = _rotate(v, a)
            for t in range(p):
                acc[t] += r[t]
        return acc

    one = [0] * p
    one[0] = 1
    prod: list[list[int]] = [one]
    for i in range(ctx.e):
        A = exps[i]
        shifted = [eta_times(c, A) for c in prod]
        new: list[list[int]] = [[-t for t in shifted[0]]]
        for j in range(1, len(prod)):
            prev = prod[j - 1]
            sh = shifted[j]
            new.append([prev[t] - sh[t] for t in range(p)])
        new.append(prod[-1])
        prod = new

    ints: list[int] = []
    for vec in prod:
        first = vec[1]
        for t in range(2, p):
            if vec[t] != first:
                raise NonIntegerCoefficient(
                    f"coefficient vector fails to collapse for (e={ctx.e}, f={ctx.f})"
                )
        ints.append(vec[0] - first)
    return PeriodPolynomial(ctx, IntPoly(ints))


def coefficient_bound(ctx: PrimeContext) -> int:
    """max_j C(e, j) * f^j bounds every coefficient of the period polynomial."""
    e, f = ctx.e, ctx.f
    return max(comb(e, j) * f**j for j in range(e + 1))


class PrimePeriods:
    """Every period polynomial of one prime p, built modulo shared primes.

    The CRT primes q ≡ 1 (mod p) above 2**62 are searched once per p, and
    for each q one table ys[t] = w^(g^t mod p) mod q is kept, w of order p in
    GF(q)*.  The e-periods mod q are then the sums ys[i::e], for every
    divisor e of p - 1.  How many primes psi_e uses is fixed in advance by
    its coefficient bound (the product of moduli must exceed twice the
    bound), so the reconstruction is deterministic, with no early
    termination to get lucky on; primes are added lazily as larger e ask.
    """

    def __init__(self, p: int, g: int):
        if not 3 <= p < PRIME_TEST_BOUND or not is_prime(p):
            raise InvalidContext(f"p = {p} is not an odd prime below {PRIME_TEST_BOUND}")
        # g must have order p - 1, else the classes ys[i::e] are not the periods
        if not 0 < g < p or any(pow(g, (p - 1) // r, p) == 1 for r in factorize(p - 1)):
            raise InvalidContext(f"g = {g} is not a primitive root mod {p}")
        self.p = p
        self.g = g
        # for odd p, the odd q ≡ 1 (mod p) are exactly the q ≡ 1 (mod 2p)
        self._candidates = primes_in_progression(2 * p)
        self._tab = _power_table(p, g)
        self._primes: list[int] = []
        self._ys: list[list[int]] = []
        # CRT data: _moduli[k] is the product of the first k primes, and
        # _inverses[k] the inverse of _moduli[k] modulo the k-th prime
        self._moduli = [1]
        self._inverses: list[int] = []

    def _add_prime(self) -> None:
        p = self.p
        q = next(self._candidates)
        # element of order p in GF(q)*: use z^((q-1)/p) for the first z where it is != 1
        m = (q - 1) // p
        z = 2
        while True:
            w = pow(z, m, q)
            if w != 1:
                break
            z += 1
        wpow = [1] * p
        for t in range(1, p):
            wpow[t] = wpow[t - 1] * w % q
        modulus = self._moduli[-1]
        self._primes.append(q)
        self._ys.append([wpow[a] for a in self._tab])
        self._inverses.append(pow(modulus % q, -1, q))
        self._moduli.append(modulus * q)

    def _psi_residues(self, k: int, e: int) -> list[int]:
        """Coefficients of psi_e modulo the k-th prime, low degree first."""
        q, ys = self._primes[k], self._ys[k]
        prod = [1]
        for i in range(e):
            eta = sum(ys[i::e]) % q
            # (x - eta) * prod: coefficient j is prod[j-1] - eta * prod[j]
            prod = [(a - eta * b) % q for a, b in zip([0, *prod], [*prod, 0])]
        return prod

    def polynomial(self, e: int) -> PeriodPolynomial:
        """psi_e for a divisor e of p - 1, reconstructed by CRT from the shared primes."""
        if e < 1 or (self.p - 1) % e:
            raise InvalidContext(f"e = {e} does not divide p - 1 = {self.p - 1}")
        ctx = PrimeContext(p=self.p, e=e, f=(self.p - 1) // e, g=self.g)
        target = 2 * coefficient_bound(ctx)
        n = 0
        while self._moduli[n] <= target:
            n += 1
            if n > len(self._primes):
                self._add_prime()
        coeffs = [0] * (e + 1)
        for k in range(n):
            q, mod, inv = self._primes[k], self._moduli[k], self._inverses[k]
            coeffs = [
                val + mod * ((r - val) * inv % q)
                for val, r in zip(coeffs, self._psi_residues(k, e))
            ]
        mod = self._moduli[n]
        half = mod // 2
        coeffs = [val - mod if val > half else val for val in coeffs]
        return PeriodPolynomial(ctx, IntPoly(coeffs))


def period_polynomial_modular(ctx: PrimeContext) -> PeriodPolynomial:
    """Build the period polynomial modulo primes q ≡ 1 (mod p) above 2**62
    (see PrimePeriods, which shares that work across every e of one p)."""
    return PrimePeriods(ctx.p, ctx.g).polynomial(ctx.e)
