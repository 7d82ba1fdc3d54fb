"""Monogeneity classification of period polynomials.

The subfield of degree e inside the p-th cyclotomic field (p = e*f + 1)
has field discriminant +/- p^(e-1), with sign -1 exactly when
(e-1) mod 4 == 1 and f is odd.  The polynomial discriminant D of the
period polynomial satisfies D = k^2 * delta for the field discriminant
delta and an integer index k >= 1; the period polynomial is monogenic
(generates the ring of integers) precisely when k == 1.

Each monogenic case with e >= 4 is checked against the two known
cyclotomic shapes: psi equal to 1 + x + ... + x^(p-1) when f == 1, and
psi unfolding to it under x + 1/x when p == 2e + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .intpoly import (
    IntPoly,
    Signature,
    cyclotomic_prime,
    demoivre_unfold,
    discriminant_and_signature,
)
from .number_theory import InternalContradiction, InvalidContext, PrimeContext, is_prime
from .periods import PrimePeriods


class NotDivisible(InternalContradiction):
    """Polynomial discriminant is not divisible by the field discriminant."""


class NotPerfectSquare(InternalContradiction):
    """Discriminant quotient is not the square of an integer."""


class MatchKind(str, Enum):
    """How a monogenic period polynomial matches a cyclotomic polynomial."""

    DIRECT_CYCLOTOMIC = "direct"
    REDUCED_CYCLOTOMIC = "reduced"
    NO_MATCH = "none"


@dataclass(frozen=True)
class FieldDiscriminant:
    """Discriminant sign * p^exponent of the degree-e subfield."""

    sign: int
    p: int
    exponent: int

    def value(self) -> int:
        return self.sign * self.p**self.exponent


def field_discriminant(e: int, f: int, p: int) -> FieldDiscriminant:
    """Field discriminant of the degree-e period subfield for p = e*f + 1."""
    if e < 1 or f < 1 or p != e * f + 1 or not is_prime(p):
        raise InvalidContext(f"(e={e}, f={f}, p={p}) is not a valid period context")
    sign = -1 if ((e - 1) % 4 == 1 and f % 2 == 1) else 1
    return FieldDiscriminant(sign=sign, p=p, exponent=e - 1)


def index_squared(poly_disc: int, delta: FieldDiscriminant) -> tuple[int, int]:
    """Exact quotient k^2 = poly_disc / delta and its root k.

    Both failure modes are hard errors: they would contradict the
    discriminant factorization D = k^2 * delta, so they signal a bug
    rather than an interesting input.
    """
    if poly_disc == 0:
        raise NotDivisible("polynomial discriminant is zero")
    q = poly_disc
    for _ in range(delta.exponent):
        q, r = divmod(q, delta.p)
        if r:
            raise NotDivisible(
                f"{poly_disc} is not divisible by {delta.p}^{delta.exponent}"
            )
    k2 = q * delta.sign
    if k2 <= 0:
        raise NotPerfectSquare(f"discriminant quotient {k2} is negative")
    k = math.isqrt(k2)
    if k * k != k2:
        raise NotPerfectSquare(f"discriminant quotient {k2} is not a square")
    return k2, k


@dataclass(frozen=True)
class ClassificationRecord:
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


def _match_kind(ctx: PrimeContext, psi: IntPoly, monogenic: bool) -> MatchKind:
    if not monogenic:
        return MatchKind.NO_MATCH
    if ctx.f == 1:
        if psi == cyclotomic_prime(ctx.p):
            return MatchKind.DIRECT_CYCLOTOMIC
    elif ctx.p == 2 * ctx.e + 1:
        if demoivre_unfold(psi) == cyclotomic_prime(ctx.p):
            return MatchKind.REDUCED_CYCLOTOMIC
    return MatchKind.NO_MATCH


def classify(ctx: PrimeContext, periods: PrimePeriods | None = None) -> ClassificationRecord:
    """Full pipeline for one context: build, discriminate, divide, match.

    periods, if given, is the shared builder of ctx.p (a scan passes one per
    p); otherwise a fresh one is made.  The signature is checked against the
    parity law: the period field is totally real when f is even and totally
    complex when f is odd.
    """
    if periods is None:
        periods = PrimePeriods(ctx.p, ctx.g)
    elif periods.p != ctx.p:
        raise InvalidContext(f"periods of p = {periods.p} cannot build psi for p = {ctx.p}")
    psi = periods.polynomial(ctx.e).poly
    disc, sig = discriminant_and_signature(psi)
    delta = field_discriminant(ctx.e, ctx.f, ctx.p)
    k2, k = index_squared(disc, delta)
    if sig.n_real != (ctx.e if ctx.f % 2 == 0 else 0):
        raise InternalContradiction(f"{sig.n_real} real roots break the parity law for f = {ctx.f}")
    monogenic = k == 1
    return ClassificationRecord(
        e=ctx.e,
        f=ctx.f,
        p=ctx.p,
        g=ctx.g,
        psi=psi,
        poly_discriminant=disc,
        field_discriminant=delta,
        k_squared=k2,
        k=k,
        monogenic=monogenic,
        signature=sig,
        match_kind=_match_kind(ctx, psi, monogenic),
    )
