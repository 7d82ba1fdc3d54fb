"""Gaussian periods and their minimal-polynomial products, exactly.

For p = e*f + 1 prime with primitive root g, the i-th period is
eta_i = sum over k < f of zeta^(g^(k*e+i)), zeta a primitive p-th root of
unity.  The period polynomial psi_e = prod (x - eta_i) has integer
coefficients; two independent constructions are provided, one in exact
cyclotomic-integer arithmetic and one modular with CRT reconstruction
against a proven coefficient bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .intpoly import IntPoly
from .number_theory import InternalContradiction, PrimeContext, primes_in_progression


class MismatchedP(ValueError):
    """Raised when combining cyclotomic integers over different primes."""


class NonIntegerCoefficient(InternalContradiction):
    """Raised if a supposedly rational-integer coefficient fails to collapse."""


@dataclass(frozen=True)
class CycInt:
    """Element of Z[zeta_p] in canonical coordinates on 1, zeta, ..., zeta^(p-2).

    The relation 1 + zeta + ... + zeta^(p-1) = 0 eliminates zeta^(p-1);
    canonical form is unique, so equality is plain tuple comparison.
    """

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 3:
            raise ValueError(f"need p >= 3, got {self.p}")
        if len(self.coeffs) != self.p - 1:
            raise ValueError(
                f"need exactly {self.p - 1} coordinates, got {len(self.coeffs)}"
            )

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def integer(cls, p: int, n: int) -> "CycInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def root_power(cls, p: int, k: int) -> "CycInt":
        """zeta^k in canonical form (k taken mod p)."""
        k %= p
        if k == p - 1:
            return cls(p, (-1,) * (p - 1))
        c = [0] * (p - 1)
        c[k] = 1
        return cls(p, tuple(c))

    @classmethod
    def _from_cyclic(cls, p: int, vec: list[int]) -> "CycInt":
        """Canonicalize a length-p coordinate vector on 1, zeta, ..., zeta^(p-1)."""
        last = vec[p - 1]
        return cls(p, tuple(vec[i] - last for i in range(p - 1)))

    def _check(self, other: "CycInt") -> None:
        if self.p != other.p:
            raise MismatchedP(f"cannot combine p={self.p} with p={other.p}")

    def __add__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, tuple(other * a for a in self.coeffs))
        self._check(other)
        p = self.p
        out = [0] * p
        b = other.coeffs
        for i, a in enumerate(self.coeffs):
            if a:
                for j, c in enumerate(b):
                    k = i + j
                    out[k if k < p else k - p] += a * c
        return CycInt._from_cyclic(p, out)

    __rmul__ = __mul__

    def is_rational_integer(self) -> bool:
        return all(v == 0 for v in self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_rational_integer():
            raise NonIntegerCoefficient(f"{self.coeffs} is not a rational integer")
        return self.coeffs[0]


def _power_table(ctx: PrimeContext) -> list[int]:
    """g^t mod p for t = 0 .. p-2."""
    p, g = ctx.p, ctx.g
    tab = [1] * (p - 1)
    for t in range(1, p - 1):
        tab[t] = tab[t - 1] * g % p
    return tab


def _exponent_sets(ctx: PrimeContext) -> list[list[int]]:
    """For each class index i, the exponents g^(k*e+i) mod p, k = 0 .. f-1."""
    tab = _power_table(ctx)
    e = ctx.e
    return [[tab[k * e + i] for k in range(ctx.f)] for i in range(e)]


def period(ctx: PrimeContext, i: int) -> CycInt:
    """The i-th Gaussian period eta_i as an exact cyclotomic integer."""
    if not 0 <= i < ctx.e:
        raise IndexError(f"period index {i} outside 0..{ctx.e - 1}")
    p = ctx.p
    vec = [0] * p
    for a in _exponent_sets(ctx)[i]:
        vec[a] += 1
    return CycInt._from_cyclic(p, vec)


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


def _psi_mod_q(ctx: PrimeContext, q: int, exps: list[list[int]]) -> list[int]:
    p = ctx.p
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
    prod = [1]
    for A in exps:
        eta = sum(wpow[a] for a in A) % q
        new = [0] * (len(prod) + 1)
        for j, c in enumerate(prod):
            new[j + 1] = (new[j + 1] + c) % q
            new[j] = (new[j] - c * eta) % q
        prod = new
    return prod


def period_polynomial_modular(ctx: PrimeContext) -> PeriodPolynomial:
    """Build the period polynomial modulo primes q ≡ 1 (mod p) above 2**62.

    The prime count is fixed in advance by the coefficient bound (product of
    moduli must exceed twice the bound), so the reconstruction is
    deterministic, with no early termination to get lucky on.
    """
    p = ctx.p
    bound = coefficient_bound(ctx)
    target = 2 * bound
    primes: list[int] = []
    modulus = 1
    for q in primes_in_progression(p):
        primes.append(q)
        modulus *= q
        if modulus > target:
            break
    exps = _exponent_sets(ctx)
    residues = [_psi_mod_q(ctx, q, exps) for q in primes]

    coeffs: list[int] = []
    for j in range(ctx.e + 1):
        val, mod = 0, 1
        for q, res in zip(primes, residues):
            r = res[j]
            t = (r - val) % q * pow(mod % q, -1, q) % q
            val += mod * t
            mod *= q
        if val > mod // 2:
            val -= mod
        coeffs.append(val)
    return PeriodPolynomial(ctx, IntPoly(coeffs))
