"""Monogeneity classification of period polynomials.

The subfield of degree e inside the p-th cyclotomic field (p = e*f + 1)
has field discriminant +/- p^(e-1), with sign -1 exactly when
(e-1) mod 4 == 1 and f is odd.  The polynomial discriminant D of the
period polynomial satisfies D = k^2 * delta for the field discriminant
delta and an integer index k >= 1; the period polynomial is monogenic
(generates the ring of integers) precisely when k == 1.

For f <= 2, psi_and_index, the choice of psi that classify shares with
the psi and unfold commands, writes psi down: the periods are then the
primitive p-th roots zeta^a themselves, or zeta^a + zeta^-a, so psi is
Phi_p = 1 + x + ... + x^(p-1) when f == 1, and when f == 2 the halving of
Phi_p under x + 1/x, the minimal polynomial of 2cos(2 pi/p), in closed
form (intpoly.halved_cyclotomic_prime).  Both have k = 1 by theorem, as
Z[zeta_p] and Z[zeta_p + zeta_p^-1] are the rings of integers, so
D = delta, with no table, no remainder sequence and no division:
disc(Phi_p) = (-1)^((p-1)/2) p^(p-2), and the halving, whose e roots
2cos(2 pi j/p) are all real, has discriminant p^(e-1).  A cubic psi_3 comes
from Gauss's closed form in (L, M), 4p = L^2 + 27 M^2 (periods.gauss_cubic),
with no period table; its D, from the cubic discriminant formula on its
coefficients, is p^2 M^2, so k = |M|, and a k that differs from M is a hard
error.  needs_periods names the pairs left: each takes psi from
PrimePeriods and k from the Galois norms N_d = prod_i (eta_i - eta_(i+d))
of the period differences (PrimePeriods.norms, exact): N_d = p m_d with
integers m_(e-d) = m_d >= 1 and |D| = prod |N_d| = k^2 p^(e-1), so k is a
product of the m_d and D is never multiplied out; psi(1) == prod (1 - eta_i)
ties psi to those periods.  classify and the wire reader build every record
from k with ClassificationRecord.from_index: D = k^2 * delta, monogenic iff
k == 1, Gauss's signature, totally real for even f and complex for odd f,
and the cyclotomic match, direct for f == 1, reduced for f == 2, else none.

k == 1 exactly when every |N_d| == p, so the first N_d mod q outside
{p, -p}, or a sign of D mod q other than delta's, proves k != 1 for the
first CRT prime q of PrimePeriods (index_certificate), from the periods mod
q, which are plain slice sums.  delta is a square mod q (Stickelberger),
checked by Euler's criterion as (sign/q) (p/q)^(e-1), whose two symbols
PrimePeriods takes once per prime; the surveys that
count monogenic pairs run classify only where no such proof is found, and
on every pair that needs_periods refuses, whose closed form costs less
than the certificate.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .intpoly import IntPoly, Signature, halved_cyclotomic_unchecked
from .number_theory import InternalContradiction, InvalidContext, PrimeContext, is_prime, is_primitive_root
from .periods import PrimePeriods, galois_norms, gauss_cubic


class NotDivisible(InternalContradiction):
    """Polynomial discriminant is not divisible by the field discriminant."""


class NotPerfectSquare(InternalContradiction):
    """Discriminant quotient is not the square of an integer."""


class MatchKind(str, Enum):
    """How a monogenic period polynomial matches a cyclotomic polynomial."""

    DIRECT_CYCLOTOMIC = "direct"
    REDUCED_CYCLOTOMIC = "reduced"
    NO_MATCH = "none"


# psi is Phi_p for f == 1 and its halving for f == 2 (psi_and_index)
_MATCH_OF_F = {1: MatchKind.DIRECT_CYCLOTOMIC, 2: MatchKind.REDUCED_CYCLOTOMIC}


class FieldDiscriminant(NamedTuple):
    """Discriminant sign * p^exponent of the degree-e subfield."""

    sign: int
    p: int
    exponent: int

    def value(self) -> int:
        return self.sign * self.p**self.exponent


def _delta_sign(e: int, f: int) -> int:
    return -1 if ((e - 1) % 4 == 1 and f % 2 == 1) else 1


def _delta(e: int, f: int, p: int) -> FieldDiscriminant:
    """delta for p = e*f + 1 already proven prime: the formula alone."""
    return FieldDiscriminant(sign=_delta_sign(e, f), p=p, exponent=e - 1)


def field_discriminant(e: int, f: int, p: int) -> FieldDiscriminant:
    """Field discriminant of the degree-e period subfield for p = e*f + 1."""
    if e < 1 or f < 1 or p != e * f + 1 or not is_prime(p):
        raise InvalidContext(f"(e={e}, f={f}, p={p}) is not a valid period context")
    return _delta(e, f, p)


def index_squared(poly_disc: int, delta: FieldDiscriminant) -> tuple[int, int]:
    """Exact quotient k^2 = poly_disc / delta and its root k.

    Both failure modes are hard errors: they would contradict the
    discriminant factorization D = k^2 * delta, so they signal a bug
    rather than an interesting input.
    """
    if poly_disc == 0:
        raise NotDivisible("polynomial discriminant is zero")
    k2, r = divmod(poly_disc, delta.value())
    if r:
        raise NotDivisible(f"{poly_disc} is not divisible by {delta.p}^{delta.exponent}")
    if k2 <= 0:
        raise NotPerfectSquare(f"discriminant quotient {k2} is negative")
    k = math.isqrt(k2)
    if k * k != k2:
        raise NotPerfectSquare(f"discriminant quotient {k2} is not a square")
    return k2, k


def _d_sign(e: int, middle: int) -> int:
    """The sign of D = (-1)^(e(e-1)/2) prod N_d, given middle = N_(e/2) for
    even e: N_d N_(e-d) = (-1)^e N_d^2, so D > 0 for odd e."""
    return 1 if e % 2 else (-1) ** (e // 2) * (1 if middle > 0 else -1)


def _index_from_norms(norms: list[int], delta: FieldDiscriminant) -> int:
    """k = prod over d < e/2 of |N_d| / p, times sqrt(|N_(e/2)| / p) for even
    e = delta.exponent + 1, from the exact norms N_d, d <= e/2; a norm that
    contradicts D = k^2 * delta is a hard error that names it."""
    e, p = delta.exponent + 1, delta.p
    k, middle = 1, 0
    for d, norm in enumerate(norms, 1):
        if norm == 0:
            raise NotDivisible(f"norm N_{d} is zero")
        m, r = divmod(abs(norm), p)
        if r:
            raise NotDivisible(f"norm N_{d} = {norm} is not divisible by p = {p}")
        if 2 * d == e:
            middle, m = norm, math.isqrt(m)
            if m * m * p != abs(norm):
                raise NotPerfectSquare(f"N_{d} / p = {abs(norm) // p} is not a square")
        k *= m
    if _d_sign(e, middle) != delta.sign:
        named = f" by N_{e // 2} = {middle}" if e % 2 == 0 else ""
        raise NotPerfectSquare(f"D has the sign {-delta.sign}{named}, and delta the sign {delta.sign}")
    return k


def index_certificate(periods: PrimePeriods, e: int) -> int | None:
    """The prime q that proves k != 1 for psi_e of periods.p, or None.

    k = 1 exactly when every N_d is p or -p, so the first N_d mod q outside
    {p, -p}, or past the last a sign of D other than delta's, proves k != 1;
    None says nothing either way.  delta is a square mod every q that splits
    completely (Stickelberger), so a non-residue raises InternalContradiction.
    Euler's criterion is multiplicative, so (delta/q) = (sign/q) (p/q)^(e-1),
    and the pair only multiplies the symbols that periods keeps per prime
    (PrimePeriods.residue_symbol), with no exponentiation of its own.
    """
    q, p = periods.residue_prime, periods.p
    sign = _delta_sign(e, (p - 1) // e)
    symbol = periods.residue_symbol
    if symbol(sign) * (symbol(p) if e % 2 == 0 else 1) != 1:
        raise InternalContradiction(f"delta mod {q} is not a square")
    norm = 0
    for norm in galois_norms(periods.period_residues(e), q):
        if abs(norm) != p:
            return q
    return None if _d_sign(e, norm) == sign else q


class ClassificationRecord(NamedTuple):
    """Everything the surveys need to know about one (e, f) pair."""

    e: int
    f: int
    p: int
    g: int
    psi: IntPoly
    poly_discriminant: int
    field_discriminant: FieldDiscriminant
    k_squared: int
    k: int
    monogenic: bool
    signature: Signature
    match_kind: MatchKind

    @classmethod
    def from_index(cls, ctx: PrimeContext, psi: IntPoly, k: int):
        """The record of psi = psi_e for ctx with index k >= 1, for a ctx
        whose shape p = e*f + 1 and prime p its caller has proven: delta,
        D = k^2 * delta, monogenic iff k == 1, Gauss's signature (-1 lies in
        the subgroup of order f exactly when f is even, so the period field
        is then totally real, and otherwise totally complex) and the
        cyclotomic match, which is f: direct for f == 1, reduced for f == 2
        and none for any other f."""
        delta = _delta(ctx.e, ctx.f, ctx.p)
        return cls(
            e=ctx.e,
            f=ctx.f,
            p=ctx.p,
            g=ctx.g,
            psi=psi,
            poly_discriminant=k * k * delta.value(),
            field_discriminant=delta,
            k_squared=k * k,
            k=k,
            monogenic=k == 1,
            signature=Signature(ctx.e, 0) if ctx.f % 2 == 0 else Signature(0, ctx.e // 2),
            match_kind=_MATCH_OF_F.get(ctx.f, MatchKind.NO_MATCH),
        )


def _cubic_discriminant(psi: IntPoly) -> int:
    """disc(x^3 + b x^2 + c x + d) = b^2 c^2 - 4c^3 - 4b^3 d - 27d^2 + 18bcd."""
    d, c, b, _ = psi.coeffs
    return b * b * c * c - 4 * c**3 - 4 * b**3 * d - 27 * d * d + 18 * b * c * d


def needs_periods(e: int, f: int) -> bool:
    """Whether classify reads a PrimePeriods for (e, f): only when f > 2 and
    e != 3, since psi is Phi_p when f == 1 and its halving when f == 2, and
    psi_3 and its index come from Gauss's closed form."""
    return f > 2 and e != 3


def psi_and_index(ctx: PrimeContext, periods: PrimePeriods | None = None) -> tuple[IntPoly, int | None]:
    """psi_e for ctx and, where a closed form writes psi down, its index k:
    the one choice of psi that classify and the psi and unfold commands share.

    psi is Phi_p = 1 + x + ... + x^(p-1) with k = 1 for f == 1, its x + 1/x
    halving with k = 1 for f == 2 (Washington, Introduction to Cyclotomic
    Fields, Thm 2.6 and Prop 2.16), and Gauss's psi_3 with k = |M| for
    e == 3 (periods.gauss_cubic).  Any other pair takes psi from periods,
    the shared builder of p, or else a fresh one, and k = None.  ctx must
    come from make_context or have passed classify's checks: its g is a
    primitive root mod the prime p = e*f + 1, and nothing here proves p or
    tests g again.
    """
    e, f, p = ctx.e, ctx.f, ctx.p
    if f == 1:
        return IntPoly((1,) * p), 1
    if f == 2:
        return halved_cyclotomic_unchecked(p), 1
    if e == 3:
        return gauss_cubic(p, ctx.g)
    if periods is None:
        periods = PrimePeriods(p, ctx.g)
    elif periods.p != p:
        raise InvalidContext(f"periods of p = {periods.p} cannot build psi for p = {p}")
    return periods.polynomial(e).poly, None


def classify(ctx: PrimeContext, periods: PrimePeriods | None = None) -> ClassificationRecord:
    """Full pipeline for one context: psi_e and its index k.

    A g that is not a primitive root mod an odd prime p <= MAX_P is refused
    first, on every path; that one order test reads the cached proof of p
    (number_theory._order_primes), so nothing after it proves p or tests g
    again.  psi_and_index chooses psi: written down with k = 1 for f <= 2,
    and Gauss's closed form for any other cubic, whose k from D of its
    coefficients must equal |M|, as D = p^2 M^2.  Only a pair that
    needs_periods reads periods, the shared builder of ctx.p (a scan passes
    one per p), or else a fresh one sized for e: psi from its product tree
    and k from the Galois norms of its periods (PrimePeriods.norms), which
    psi(1) == prod (1 - eta_i) ties to psi.  ClassificationRecord.from_index
    derives the rest from k.
    """
    e, f, p = ctx.e, ctx.f, ctx.p
    if not is_primitive_root(ctx.g, p):
        raise InvalidContext(f"g = {ctx.g} is not a primitive root mod an odd prime p = {p}")
    if e < 1 or f < 1 or p != e * f + 1:
        raise InvalidContext(f"(e={e}, f={f}, p={p}) is not a valid period context")
    if needs_periods(e, f) and periods is None:
        periods = PrimePeriods(p, ctx.g, e)
    psi, k = psi_and_index(ctx, periods)
    if k is None:
        norms, at_one = periods.norms(e)
        if sum(psi.coeffs) != at_one:
            raise InternalContradiction(
                f"psi(1) = {sum(psi.coeffs)} differs from the norm {at_one} of its periods "
                f"for (e={e}, f={f})"
            )
        k = _index_from_norms(norms, _delta(e, f, p))
    elif f > 2:  # Gauss's psi_3, whose D must give k = |M|
        root = index_squared(_cubic_discriminant(psi), _delta(e, f, p))[1]
        if root != k:
            raise InternalContradiction(f"psi_3 has index {root} and Cornacchia's M = {k} for (e={e}, f={f})")
    return ClassificationRecord.from_index(ctx, psi, k)
