"""Dense integer polynomials with exact resultants, discriminants and
real-root signatures, and the palindromic degree-halving substitution
y = x + 1/x.

One subresultant chain on (P, P') gives both the discriminant of P and,
through the signs that map its terms onto the Sturm sequence, the number
of real roots.  Coefficients are arbitrary-precision ints, stored low
degree first.  The zero polynomial has degree None.  All operations are
exact; nothing here touches floating point.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

from .number_theory import MAX_P, CompositeP, InternalContradiction, InvalidContext, is_prime


class NotSquarefree(ArithmeticError):
    """Raised when a squarefree polynomial was required but not supplied."""


class NotSelfReciprocal(ValueError):
    """Raised when the coefficient list is not palindromic."""


class OddDegree(ValueError):
    """Raised when an even-degree polynomial was required."""


class Signature(NamedTuple):
    """Real/complex root split of a squarefree polynomial."""

    n_real: int
    n_complex_pairs: int


class IntPoly(NamedTuple("_Coeffs", [("coeffs", tuple[int, ...])])):
    """Immutable dense coefficients over Z, coeffs[i] multiplying x**i: a
    container for the functions below, not a ring (its one operation is derivative)."""

    __slots__ = ()

    def __new__(cls, coeffs=()):
        c = tuple(coeffs)
        if not all(map(isinstance, c, repeat(int))):
            bad = next(v for v in c if not isinstance(v, int))
            raise TypeError(f"coefficients must be int, got {type(bad).__name__}")
        while c and c[-1] == 0:
            c = c[:-1]
        return super().__new__(cls, c)

    @classmethod
    def from_high_to_low(cls, seq) -> "IntPoly":
        return cls(tuple(reversed(tuple(seq))))

    # -- basic queries -----------------------------------------------

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def high_to_low(self) -> tuple[int, ...]:
        return tuple(reversed(self.coeffs))

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * v for i, v in enumerate(self.coeffs) if i))

    # -- formatting ----------------------------------------------------

    def to_str(self) -> str:
        """Render like 'x^5+x^4-4x^3-3x^2+3x+1' (descending, zero terms
        skipped), each coefficient spelled by int_str."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if k == 0:
                body = int_str(mag)
            else:
                xpart = "x" if k == 1 else f"x^{k}"
                body = xpart if mag == 1 else int_str(mag) + xpart
            parts.append(sign + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_str()


def int_str(n: int) -> str:
    """str(n), through the decimal module past the int-to-str digit limit:
    the one spelling of every integer periodeq prints."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # here, so importing periodeq does not pay for it
        return str(Decimal(n))


def int_strs(values: tuple[int, ...]) -> list[str]:
    """[int_str(n) for n in values], by str unless a value passes the limit."""
    try:
        # a comprehension, as CPython 3.11 specializes str(n) there but not in map
        return [str(n) for n in values]
    except ValueError:
        return [int_str(n) for n in values]


def cyclotomic_prime(p: int) -> IntPoly:
    """The degree p-1 polynomial 1 + x + ... + x^(p-1) for prime p."""
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")
    return IntPoly((1,) * p)


def halved_cyclotomic_prime(p: int) -> IntPoly:
    """demoivre_reduce(cyclotomic_prime(p)) in closed form for prime 3 <= p <= MAX_P:
    the minimal polynomial of 2cos(2 pi/p), whose coefficient of x^(e-j),
    e = (p - 1)/2, is (-1)^floor(j/2) C(e - ceil(j/2), floor(j/2)).  Each
    binomial is the one before times an exact ratio: (e - 2i)/(e - i) from
    C(e - i, i) to C(e - i - 1, i), then (e - 2i - 1)/(i + 1) to C(e - i - 1, i + 1).
    """
    if p > MAX_P:
        raise InvalidContext(f"p = {p} is above MAX_P = {MAX_P}")
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")
    if p == 2:
        raise OddDegree("degree 1 is odd")  # Phi_2 = x + 1
    return halved_cyclotomic_unchecked(p)


def halved_cyclotomic_unchecked(p: int) -> IntPoly:
    """halved_cyclotomic_prime(p) for an odd p already proven prime: the
    formula alone, with no primality test."""
    e = p // 2
    c, high = 1, [1]
    for j in range(e):
        c = c * (e - j) // ((j + 1) // 2 if j % 2 else e - j // 2)
        high.append(-c if (j + 1) & 2 else c)
    return IntPoly.from_high_to_low(high)


# -- pseudo-division kernel -------------------------------------------


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder rem(lc(b)**(da-db+1) * a, b); lists low-to-high, b != 0."""
    db = len(b) - 1
    c = b[-1]
    r = list(a)
    for _ in range(len(a) - len(b) + 1):
        lead = r.pop()
        for i in range(len(r)):
            r[i] *= c
        if lead:
            off = len(r) - db
            for j in range(db):
                r[off + j] -= lead * b[j]
    while r and r[-1] == 0:
        r.pop()
    return r


# -- subresultant chain -------------------------------------------------


def _subresultant_chain(a, b) -> tuple[int, list[tuple[int, int]]]:
    """Res(a, b) and the Sturm sign chain from one subresultant PRS.

    a and b are low-to-high coefficients, len(a) >= len(b) >= 1.  The chain
    lists (degree, sign of leading coefficient) for every term of the signed
    remainder sequence a, b, -rem(a, b), ...  Each PRS term is a nonzero
    rational multiple of the matching signed-remainder term; eps is the sign
    of that multiple (Basu-Pollack-Roy, ch. 9).  A zero remainder means a
    and b share a factor: the resultant is 0 and the chain stops there.
    """
    chain = [(len(a) - 1, 1 if a[-1] > 0 else -1), (len(b) - 1, 1 if b[-1] > 0 else -1)]
    if len(b) == 1:
        return b[0] ** (len(a) - 1), chain
    sign = g = h = eps_a = eps_b = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = _prem(a, b)
        if not r:
            return 0, chain
        divisor = g * h**delta
        # -rem(a, b) = -prem(a, b) / lc(b)^(delta+1) and prem(a, b) = divisor * next b
        eps = eps_a if divisor < 0 else -eps_a
        if b[-1] < 0 and not delta & 1:
            eps = -eps
        a, b = b, [v // divisor for v in r]
        eps_a, eps_b = eps_b, eps
        chain.append((len(b) - 1, eps if b[-1] > 0 else -eps))
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
    da = len(a) - 1
    return sign * b[0] ** da // h ** (da - 1), chain


def resultant(P: IntPoly, Q: IntPoly) -> int:
    """Resultant of two nonzero integer polynomials, from the subresultant chain."""
    if P.is_zero() or Q.is_zero():
        raise ValueError("resultant of the zero polynomial is not defined here")
    if P.degree < Q.degree:
        res = _subresultant_chain(Q.coeffs, P.coeffs)[0]
        return -res if P.degree * Q.degree & 1 else res
    return _subresultant_chain(P.coeffs, Q.coeffs)[0]


def _discriminant_from_resultant(P: IntPoly, res: int) -> int:
    q, rem = divmod(res, P.lc)
    if rem:
        raise InternalContradiction("resultant not divisible by leading coefficient")
    return -q if (P.degree * (P.degree - 1) // 2) & 1 else q


def discriminant(P: IntPoly) -> int:
    """Discriminant of P (degree >= 1): (-1)^(n(n-1)/2) Res(P, P') / lc.

    Returns 0 when P is not squarefree.
    """
    if P.degree is None or P.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    return _discriminant_from_resultant(P, resultant(P, P.derivative()))


def discriminant_and_signature(P: IntPoly) -> tuple[int, Signature]:
    """Discriminant and real-root signature of a squarefree P (degree >= 1).

    Both come from one subresultant chain on (P, P'): the discriminant from
    its last term, the root count from Sturm's theorem, as v(-inf) - v(+inf)
    over the sign chain.  Raises NotSquarefree when P and P' share a factor.
    """
    n = P.degree
    if n is None or n < 1:
        raise ValueError("discriminant and signature need degree >= 1")
    res, chain = _subresultant_chain(P.coeffs, P.derivative().coeffs)
    if not res:
        raise NotSquarefree(
            f"gcd with derivative has degree {chain[-1][0]}; input is not squarefree"
        )
    v_neg = v_pos = 0
    for (d1, s1), (d2, s2) in zip(chain, chain[1:]):
        if s1 != s2:
            v_pos += 1
        if s1 * (-1) ** (d1 & 1) != s2 * (-1) ** (d2 & 1):
            v_neg += 1
    n_real = v_neg - v_pos
    if (n - n_real) & 1:
        raise InternalContradiction("parity mismatch in Sturm count")
    sig = Signature(n_real=n_real, n_complex_pairs=(n - n_real) // 2)
    return _discriminant_from_resultant(P, res), sig


def signature(P: IntPoly) -> Signature:
    """Count real roots and complex-conjugate pairs of a squarefree P."""
    return discriminant_and_signature(P)[1]


# -- palindromic reduction y = x + 1/x ---------------------------------


def is_self_reciprocal(P: IntPoly) -> bool:
    """True iff the coefficient list is a palindrome."""
    return P.coeffs == P.coeffs[::-1]


def demoivre_reduce(P: IntPoly) -> IntPoly:
    """Halve a palindromic polynomial: P(x) = x^e R(x + 1/x) with deg R = e.

    Uses the recursion V_0 = 2, V_1 = y, V_{k+1} = y V_k - V_{k-1} for
    x^k + x^(-k); then R = a_e + sum_k a_{e+k} V_k.
    """
    if P.is_zero():
        raise ValueError("cannot reduce the zero polynomial")
    if not is_self_reciprocal(P):
        raise NotSelfReciprocal(f"{P} is not self-reciprocal")
    d = P.degree
    if d % 2:
        raise OddDegree(f"degree {d} is odd")
    e = d // 2
    a = P.coeffs
    out = [0] * (e + 1)
    out[0] = a[e]
    v_prev = [2]          # V_0
    v_cur = [0, 1]        # V_1
    for k in range(1, e + 1):
        c = a[e + k]
        if c:
            for j, w in enumerate(v_cur):
                out[j] += c * w
        if k < e:
            nxt = [0] + v_cur
            for j, w in enumerate(v_prev):
                nxt[j] -= w
            v_prev, v_cur = v_cur, nxt
    return IntPoly(out)


def demoivre_unfold(R: IntPoly) -> IntPoly:
    """Inverse of demoivre_reduce: x^e R(x + 1/x) for deg R = e >= 1, by
    Horner's scheme in x^2 + 1, as x^e R(x + 1/x) = sum_j r_j x^(e-j) (x^2 + 1)^j:
    B_e = r_e, B_j = (x^2 + 1) B_(j+1) + r_j x^(e-j), and B_0 is the unfolding."""
    e = R.degree
    if e is None or e < 1:
        raise ValueError("unfold needs degree >= 1")
    r = R.coeffs
    out = [r[e]]
    for j in range(e - 1, -1, -1):
        out = [a + b for a, b in zip([*out, 0, 0], [0, 0, *out])]
        out[e - j] += r[j]
    return IntPoly(out)
