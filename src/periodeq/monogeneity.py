"""Monogeneity classification of period polynomials.

The subfield of degree e inside the p-th cyclotomic field (p = e*f + 1)
has field discriminant +/- p^(e-1), with sign -1 exactly when
(e-1) mod 4 == 1 and f is odd.  The polynomial discriminant D of the
period polynomial satisfies D = k^2 * delta for the field discriminant
delta and an integer index k >= 1; the period polynomial is monogenic
(generates the ring of integers) precisely when k == 1.

classify first compares psi's coefficients with the two cyclotomic shapes
in closed form: Phi_p = 1 + x + ... + x^(p-1) when f == 1, and when f == 2
the halving R of Phi_p under x + 1/x, the minimal polynomial of
2cos(2 pi/p), whose coefficient of x^(e-j) is
(-1)^floor(j/2) C(e - ceil(j/2), floor(j/2)).  That is O(e) per pair, and
since x^e R(x + 1/x) = Phi_p determines R, it decides the same as unfolding
psi and comparing with Phi_p.  A match fixes D in closed form, with no
remainder sequence: disc(Phi_p) = (-1)^((p-1)/2) p^(p-2), and R, whose e
roots 2cos(2 pi j/p) are all real, has disc(R) = p^(e-1).  Every other psi
takes k from the Galois norms N_d = prod_i (eta_i - eta_(i+d)) of the
period differences (PrimePeriods.norms, exact): N_d = p m_d with integers
m_(e-d) = m_d >= 1 and |D| = prod |N_d| = k^2 p^(e-1), so k is a product of
the m_d and D is never multiplied out; psi(1) == prod (1 - eta_i) ties psi
to those periods.  The signature of every psi is Gauss's rule: -1 lies in
the subgroup of order f exactly when f is even, so the period field is
totally real for even f and totally complex for odd f.

k == 1 exactly when every |N_d| == p, so the first N_d mod q outside
{p, -p}, or a sign of D mod q other than delta's, proves k != 1 for the
first CRT prime q of PrimePeriods (index_certificate); the surveys that
count monogenic pairs run classify only where no such proof is found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .intpoly import IntPoly, Signature
from .number_theory import InternalContradiction, InvalidContext, PrimeContext, is_prime
from .periods import PrimePeriods, galois_norms


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


def _delta_sign(e: int, f: int) -> int:
    return -1 if ((e - 1) % 4 == 1 and f % 2 == 1) else 1


def field_discriminant(e: int, f: int, p: int) -> FieldDiscriminant:
    """Field discriminant of the degree-e period subfield for p = e*f + 1."""
    if e < 1 or f < 1 or p != e * f + 1 or not is_prime(p):
        raise InvalidContext(f"(e={e}, f={f}, p={p}) is not a valid period context")
    return FieldDiscriminant(sign=_delta_sign(e, f), p=p, exponent=e - 1)


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


def _index_from_norms(norms: list[int], delta: FieldDiscriminant) -> tuple[int, int]:
    """(k^2, k) with k = prod over d < e/2 of |N_d| / p, times sqrt(|N_(e/2)| / p)
    for even e = delta.exponent + 1, from the exact norms N_d, d <= e/2; a norm
    that contradicts D = k^2 * delta is a hard error that names it."""
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
    return k * k, k


def index_certificate(periods: PrimePeriods, e: int) -> int | None:
    """The prime q that proves k != 1 for psi_e of periods.p, or None.

    k = 1 exactly when every N_d is p or -p, so the first N_d mod q outside
    {p, -p}, or past the last a sign of D other than delta's, proves k != 1;
    None says nothing either way.  delta is a square mod every q that splits
    completely (Stickelberger), so a non-residue raises InternalContradiction.
    """
    q, p = periods.residue_prime, periods.p
    sign = _delta_sign(e, (p - 1) // e)
    if pow(sign * pow(p, e - 1, q) % q, (q - 1) // 2, q) != 1:
        raise InternalContradiction(f"delta mod {q} is not a square")
    norm = 0
    for norm in galois_norms(periods.period_residues(e), q):
        if abs(norm) != p:
            return q
    return None if _d_sign(e, norm) == sign else q


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


def _halved_cyclotomic(e: int) -> tuple[int, ...]:
    """Coefficients, low degree first, of the minimal polynomial of
    2cos(2 pi/p) for p = 2e + 1, demoivre_reduce(cyclotomic_prime(p)):
    the coefficient of x^(e-j) is (-1)^floor(j/2) C(e - ceil(j/2), floor(j/2))."""
    return tuple((-1) ** (j // 2) * math.comb(e - (j + 1) // 2, j // 2) for j in range(e, -1, -1))


def _match_kind(ctx: PrimeContext, psi: IntPoly) -> MatchKind:
    """The cyclotomic shape psi equals exactly, or NO_MATCH."""
    if ctx.f == 1 and psi.coeffs == (1,) * ctx.p:
        return MatchKind.DIRECT_CYCLOTOMIC
    if ctx.f == 2 and psi.coeffs == _halved_cyclotomic(ctx.e):
        return MatchKind.REDUCED_CYCLOTOMIC
    return MatchKind.NO_MATCH


def classify(ctx: PrimeContext, periods: PrimePeriods | None = None) -> ClassificationRecord:
    """Full pipeline for one context: build, match, discriminate, divide.

    periods, if given, is the shared builder of ctx.p (a scan passes one per
    p); otherwise a fresh one is made.  psi's coefficients are compared, in
    closed form and without unfolding, with those of Phi_p (f == 1) or of
    its x + 1/x halving (f == 2).  A psi that equals its shape takes D in
    closed form, (-1)^((p-1)/2) p^(p-2) or p^(e-1), divided by the field
    discriminant; any other psi takes k from the Galois norms of its periods
    (PrimePeriods.norms), which psi(1) == prod (1 - eta_i) ties to psi, and
    D = k^2 * delta.  The signature follows from Gauss's rule that -1 lies in
    the subgroup of order f exactly when f is even: the period field is then
    totally real, and otherwise totally complex.
    """
    if periods is None:
        periods = PrimePeriods(ctx.p, ctx.g)
    elif periods.p != ctx.p:
        raise InvalidContext(f"periods of p = {periods.p} cannot build psi for p = {ctx.p}")
    e, f, p = ctx.e, ctx.f, ctx.p
    psi = periods.polynomial(e).poly
    match = _match_kind(ctx, psi)
    delta = field_discriminant(e, f, p)
    if match is MatchKind.DIRECT_CYCLOTOMIC:
        k2, k = index_squared((-1) ** ((p - 1) // 2) * p ** (p - 2), delta)
    elif match is MatchKind.REDUCED_CYCLOTOMIC:
        k2, k = index_squared(p ** (e - 1), delta)
    else:
        norms, at_one = periods.norms(e)
        if sum(psi.coeffs) != at_one:
            raise InternalContradiction(
                f"psi(1) = {sum(psi.coeffs)} differs from the norm {at_one} of its periods "
                f"for (e={e}, f={f})"
            )
        k2, k = _index_from_norms(norms, delta)
    return ClassificationRecord(
        e=e,
        f=f,
        p=p,
        g=ctx.g,
        psi=psi,
        poly_discriminant=k2 * delta.value(),
        field_discriminant=delta,
        k_squared=k2,
        k=k,
        monogenic=k == 1,
        signature=Signature(e, 0) if f % 2 == 0 else Signature(0, e // 2),
        match_kind=match,
    )
