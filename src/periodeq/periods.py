"""Gaussian periods and their minimal-polynomial products, exactly.

For p = e*f + 1 prime with primitive root g, the i-th period is
eta_i = sum over k < f of zeta^(g^(k*e+i)), zeta a primitive p-th root of
unity.  The period polynomial psi_e = prod (x - eta_i) has integer
coefficients; two independent constructions are provided, one exact, on
integer coordinate vectors over 1, zeta, ..., zeta^(p-1), and one modular,
modulo a product M of CRT primes that exceeds twice a proven coefficient
bound.  The modular one is organised by p: one PrimePeriods finds the CRT
primes and the root-of-unity tables of p once and builds psi_e for every
e | p - 1 from them, so a survey that visits many e of one p pays for those
tables once.  It reconstructs the e periods mod M from their sums mod each
prime and multiplies out prod (x - eta_i) once, modulo M.  The same tables
give the periods modulo the first CRT prime without any reconstruction
(period_residues), which is all a monogenicity certificate needs.
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

    The CRT primes q ≡ 1 (mod 2p) just above 2**29 are searched once per p,
    and for each q one table ys[t] = w^(g^t mod p) mod q is kept, w of order
    p in GF(q)*.  The e-periods mod q are then the sums ys[i::e], for every
    divisor e of p - 1.  Below 2**30 each q is one CPython digit, so every
    table entry and period sum is a one-digit int and % q takes the
    interpreter's single-digit path; a prime then carries only about 29 bits
    of the CRT modulus, so a large e needs about twice as many tables as with
    62-bit primes.  How many primes n psi_e uses is fixed in advance by its
    coefficient bound (M = the product of the n moduli must exceed twice the
    bound), so the reconstruction is deterministic, with no early termination
    to get lucky on; primes are added lazily as larger e ask.  Sending zeta to
    the w's, combined by CRT, is a ring map Z[zeta] -> Z/M, so the periods
    are first combined into eta_i mod M (Garner's step on e sums) and the
    product of the e linear factors is taken once, modulo M, whatever n is;
    the symmetric lift of its coefficients is psi_e.  The first prime also
    serves period_residues, the periods mod q alone.
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

    def _check_divisor(self, e: int) -> None:
        if e < 1 or (self.p - 1) % e:
            raise InvalidContext(f"e = {e} does not divide p - 1 = {self.p - 1}")

    @property
    def residue_prime(self) -> int:
        """The first CRT prime q, the modulus of period_residues."""
        if not self._primes:
            self._add_prime()
        return self._primes[0]

    def period_residues(self, e: int) -> list[int]:
        """[eta_0, ..., eta_(e-1)] modulo q = residue_prime, for e | p - 1.

        The images come from the ring map Z[zeta] -> GF(q) that sends zeta to
        w, so any integer polynomial in the periods (psi_e's coefficients,
        its discriminant) reduces mod q to the same polynomial in them.
        """
        self._check_divisor(e)
        q, ys = self.residue_prime, self._ys[0]
        return [sum(ys[i::e]) % q for i in range(e)]

    def polynomial(self, e: int) -> PeriodPolynomial:
        """psi_e for a divisor e of p - 1, multiplied out modulo the product
        of the shared primes that its coefficient bound asks for."""
        self._check_divisor(e)
        ctx = PrimeContext(p=self.p, e=e, f=(self.p - 1) // e, g=self.g)
        target = 2 * coefficient_bound(ctx)
        n = 0
        while self._moduli[n] <= target:
            n += 1
            if n > len(self._primes):
                self._add_prime()
        # Garner: eta_i mod M = _moduli[n] from its sums mod each of the n primes
        etas = [0] * e
        for k in range(n):
            q, ys, mod, inv = self._primes[k], self._ys[k], self._moduli[k], self._inverses[k]
            etas = [val + mod * ((sum(ys[i::e]) - val) * inv % q) for i, val in enumerate(etas)]
        mod = self._moduli[n]
        coeffs = [1]
        for eta in etas:
            # (x - eta) * coeffs: coefficient j is coeffs[j-1] - eta * coeffs[j]
            coeffs = [(a - eta * b) % mod for a, b in zip([0, *coeffs], [*coeffs, 0])]
        half = mod // 2
        coeffs = [val - mod if val > half else val for val in coeffs]
        return PeriodPolynomial(ctx, IntPoly(coeffs))


def period_polynomial_modular(ctx: PrimeContext) -> PeriodPolynomial:
    """Build the period polynomial modulo one-digit primes q ≡ 1 (mod p)
    just above 2**29 (see PrimePeriods, which shares that work across every
    e of one p)."""
    return PrimePeriods(ctx.p, ctx.g).polynomial(ctx.e)
