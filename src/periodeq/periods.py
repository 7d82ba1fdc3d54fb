"""Gaussian periods and their minimal-polynomial products, exactly.

For p = e*f + 1 prime with primitive root g, the i-th period is
eta_i = sum over k < f of zeta^(g^(k*e+i)), zeta a primitive p-th root of
unity.  The period polynomial psi_e = prod (x - eta_i) has integer
coefficients; two independent constructions are provided, one exact, from
the power sums of the periods, which count the sums of elements of the
subgroup of order f, and Newton's identities, and one modular, modulo a
product M of CRT primes that exceeds twice a proven coefficient bound.  The
modular one is organised by p: one PrimePeriods finds the CRT primes and the
power tables of p once and builds psi_e for every e | p - 1 from them, so a
survey that visits many e of one p pays for those tables once.  The roots of
order p modulo the CRT primes combine by CRT into one root w of order p
modulo M, so the e periods mod M are slice sums of one table of powers of
w, and prod (x - eta_i) is multiplied out once, modulo M, by a product tree
whose levels multiply packed ints (Kronecker substitution).  Taken modulo
the norms' bound, the same periods give the Galois norms of the period
differences exactly (norms, by the one loop galois_norms).  Taken modulo
the first CRT prime q, they are all a monogenicity certificate needs, with
Euler's criterion mod q taken once per prime (period_residues,
residue_symbol).

Both bounds that size M come from two exact identities of the periods
(Berndt, Evans and Williams, Gauss and Jacobi Sums, ch. 2), which follow
from sum over x != 0 of zeta^(cx) = -1 for c != 0 mod p:
sum_i |eta_i|^2 = p - f, and sum_i eta_i conj(eta_(i+d)) = -f for
d != 0 mod e, so sum_i |eta_i - eta_(i+d)|^2 = 2p.  The first bounds the
coefficients through Maclaurin's inequality (coefficient_bound), the
second the norms through AM-GM (PrimePeriods.norms); neither is ever
larger than the bound that the worst case |eta_i| <= f gives, and the
norms' takes about half its bits.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from math import comb, isqrt
from operator import itemgetter
from typing import Iterator, NamedTuple

from .intpoly import IntPoly
from .number_theory import (
    MAX_TABLE_ENTRIES,
    InternalContradiction,
    InvalidContext,
    PrimeContext,
    is_primitive_root,
    primes_in_progression,
)


class NonIntegerCoefficient(InternalContradiction):
    """Raised if a coefficient that must be a rational integer is not one."""


def _check_table_budget(p: int, tables: int) -> None:
    """InvalidContext if `tables` tables of p - 1 entries would exceed
    MAX_TABLE_ENTRIES; checked before any table past those held is built."""
    if tables * (p - 1) > MAX_TABLE_ENTRIES:
        raise InvalidContext(
            f"p = {p} would need {tables} tables of {p - 1} entries, "
            f"over the table budget MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}"
        )


def _power_table(base: int, mod: int, n: int) -> list[int]:
    """base^t mod mod for t = 0 .. n-1: the product chain up to t = 255,
    then one comprehension per doubling, the table so far times base^len."""
    tab = [1] * min(n, 256)
    for t in range(1, len(tab)):
        tab[t] = tab[t - 1] * base % mod
    while len(tab) < n:
        step = pow(base, len(tab), mod)
        tab += [x * step % mod for x in tab[:n - len(tab)]]
    return tab


class PeriodPolynomial(NamedTuple):
    """A period polynomial together with the context that produced it."""

    ctx: PrimeContext
    poly: IntPoly


def _period_power_sums(ctx: PrimeContext) -> list[int]:
    """[S_1, ..., S_e], S_k = sum_i eta_i^k, from counts of sums in H.

    H = {g^(k*e)} has order f, and eta_i^k sums zeta^(g^i s) over the k-tuples
    from H with sum s.  Their number is constant on each coset g^j H, so
    counts[j] holds it for s = g^j and counts[e] for s = 0.  A tuple with
    s = 0 gives e; over a coset g^j H, sum_i zeta^(g^i s) covers every nonzero
    power of zeta once, so S_k = e * counts[e] - sum_j counts[j].  A tuple
    sums to r when all but its last entry h sum to r - h, so one step k -> k+1
    is a row per r = g^j or 0 with at most f classes: O(p) per step.
    """
    p, e = ctx.p, ctx.e
    tab = _power_table(ctx.g, p, p - 1)
    cls = [e] * p  # cls[x] = ind_g(x) mod e for x != 0, and e for x = 0
    for t, x in enumerate(tab):
        cls[x] = t % e
    rows = [Counter(cls[(r - h) % p] for h in tab[::e]).items() for r in (*tab[:e], 0)]
    counts = [0] * e + [1]  # k = 0: only the empty tuple, with sum 0
    sums = []
    for _ in range(e):
        counts = [sum(n * counts[c] for c, n in row) for row in rows]
        sums.append(e * counts[e] - sum(counts[:e]))
    return sums


def period_polynomial_exact(ctx: PrimeContext) -> PeriodPolynomial:
    """psi_e exactly, from the power sums of the periods and no modular step.

    With a_k = (-1)^k e_k, psi_e's coefficient of x^(e-k), Newton's identities
    read k * a_k = -sum_(i=1..k) a_(k-i) S_i.  Every a_k is a rational
    integer, so a remainder in the division by k raises NonIntegerCoefficient.
    """
    sums = _period_power_sums(ctx)
    high = [1]
    for k in range(1, ctx.e + 1):
        a_k, remainder = divmod(-sum(a * s for a, s in zip(reversed(high), sums)), k)
        if remainder:
            raise NonIntegerCoefficient(f"psi has a non-integer coefficient for (e={ctx.e}, f={ctx.f})")
        high.append(a_k)
    return PeriodPolynomial(ctx, IntPoly(high[::-1]))


def coefficient_bound(ctx: PrimeContext) -> int:
    """An integer B with |a| <= B for every coefficient a of psi_e.

    psi_e's coefficient of x^(e-j) is +-e_j(eta), and
    |e_j(eta)| <= e_j(|eta|) <= C(e, j) m^j, m the mean of the |eta_i|, by
    Maclaurin's inequality (Hardy, Littlewood and Polya, Inequalities,
    2.22).  m <= r, r^2 = (p - f)/e the mean of |eta_i|^2 (the module
    docstring's first identity).  The terms C(e, j) r^j are log-concave in
    j, so they peak at the first j with (e - j) r < j + 1, compared squared
    in integers.  An integer a with a^2 <= X has a^2 <= floor(X), so
    B = isqrt(C(e, j)^2 (p - f)^j // e^j) at that j.  As r^2 <= f, B never
    exceeds the worst-case bound max_j C(e, j) f^j.
    """
    e, excess = ctx.e, ctx.p - ctx.f
    j = next(j for j in range(e + 1) if (e - j) ** 2 * excess < (j + 1) ** 2 * e)
    return isqrt(comb(e, j) ** 2 * excess**j // e**j)


def _norm_bound(p: int, e: int) -> int:
    """isqrt((2p)^e // e^e), which bounds |N_d| and |psi_e(1)|
    (PrimePeriods.norms)."""
    return isqrt((2 * p) ** e // e**e)


_LEAF = 16  # linear factors per leaf of _product_mod's tree, multiplied out in place


def _lift(val: int, mod: int) -> int:
    """The representative of val mod mod in (-mod/2, mod/2]."""
    return val - mod if val > mod // 2 else val


def galois_norms(etas: list[int], mod: int) -> Iterator[int]:
    """N_d = prod_i (eta_i - eta_(i+d mod e)), d = 1 .. floor(e/2), from the
    e periods mod mod, lifted to (-mod/2, mod/2].  sigma: eta_i -> eta_(i+1)
    generates the Galois group, so N_d is the norm of eta_0 - eta_d, a
    rational integer, and N_(e-d) = (-1)^e N_d stands for the other half."""
    for d in range(1, len(etas) // 2 + 1):
        norm = 1
        for a, b in zip(etas, etas[d:] + etas[:d]):
            norm = norm * (a - b) % mod
        yield _lift(norm, mod)


def _product_mod(etas: list[int], mod: int) -> list[int]:
    """prod (x - eta) modulo mod, low degree first, for etas in [0, mod).

    A subproduct tree: each run of _LEAF factors is multiplied out in place,
    and sibling products are then multiplied by Kronecker substitution.  A
    polynomial packs into one int, a little-endian slot of `width` bytes per
    coefficient; a product coefficient is a sum of at most len(etas) terms
    below mod**2, so it fits its slot and never carries into the next one.
    Each product is read back with to_bytes and reduced mod mod slot by
    slot; an odd polynomial out is carried up a level as it is.
    """
    width = (2 * mod.bit_length() + len(etas).bit_length() + 8) // 8
    polys = []
    for start in range(0, len(etas), _LEAF):
        coeffs = [1 % mod]
        for eta in etas[start:start + _LEAF]:
            # (x + a) * coeffs, a = mod - eta >= 0: the leading coefficient moves up,
            # then from the top down coefficient j becomes coeffs[j-1] + a * coeffs[j]
            a = mod - eta
            coeffs.append(coeffs[-1])
            for j in range(len(coeffs) - 2, 0, -1):
                coeffs[j] = (coeffs[j - 1] + a * coeffs[j]) % mod
            coeffs[0] = a * coeffs[0] % mod
        polys.append(coeffs)

    def pack(poly: list[int]) -> int:
        return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in poly]), "little")

    while len(polys) > 1:
        paired = []
        for a, b in zip(polys[::2], polys[1::2]):
            size = (len(a) + len(b) - 1) * width
            raw = (pack(a) * pack(b)).to_bytes(size, "little")
            paired.append([int.from_bytes(raw[i:i + width], "little") % mod for i in range(0, size, width)])
        if len(polys) % 2:
            paired.append(polys[-1])
        polys = paired
    return polys[0]


class PrimePeriods:
    """Every period polynomial of one prime p, built modulo shared primes.

    The CRT primes q ≡ 1 (mod 2p) just above 2**29 are searched once per p.
    Modulo each q, w_q = z^((q - 1)/p) for the first z where it is != 1 has
    order p, and the w_q of the first n primes combine by CRT into one w of
    order p modulo their product M.  One table ys[t] = w^(g^t mod p) mod M
    is gathered by itemgetter from the powers of w (_power_table builds
    those and the powers of g by seeded doubling), and the e-periods mod M
    are the slice sums ys[i::e], for every divisor e of p - 1, as sending
    zeta to w is a ring map Z[zeta] -> Z/M.  How many primes n psi_e uses is
    fixed in advance by its coefficient bound (M must exceed twice it), so
    the reconstruction is deterministic, with no early termination to get
    lucky on; the product of the e linear factors is taken once, modulo M,
    by the product tree of _product_mod, and the symmetric lift of its
    coefficients is psi_e.  norms takes the periods modulo the M of its own
    bound, (2p/e)^(e/2).  Both bounds rest on the identities
    sum_i |eta_i|^2 = p - f and sum_i |eta_i - eta_(i+d)|^2 = 2p (module
    docstring), not on the worst case |eta_i| <= f, which asks for about
    twice the bits.

    The table is built at the first bound asked for: modulo the first prime
    q, residue_prime, while one prime covers the bounds, so its one-digit
    entries take the interpreter's single-digit path, and at the first
    bound past one prime for the larger of that bound and both bounds of
    e_max, the largest e its caller will ask for: classify passes its own
    e, and a scan the largest e of p that needs_periods.  A later, larger
    bound builds it again for its own primes.  A table modulo M serves
    every bound whose modulus divides M, each period sum reduced mod that
    modulus.  The primes a bound asks for are searched before any table is
    built, and counted as n + 1 tables of p - 1 entries (the g table, and
    one digit per prime in each entry of the table modulo M), so a bound
    past MAX_TABLE_ENTRIES is refused, with InvalidContext, before its
    table is built; a plan for e_max past it is dropped, and each bound is
    refused on its own.  So is every p > MAX_P, before g is tested.
    """

    def __init__(self, p: int, g: int, e_max: int | None = None):
        _check_table_budget(p, 2)  # the g table and a table modulo one prime
        # p an odd prime and g of order p - 1, else the classes ys[i::e] are not the periods
        if not is_primitive_root(g, p):
            raise InvalidContext(f"g = {g} is not a primitive root mod an odd prime p = {p}")
        self.p = p
        self.g = g
        self._e_max = e_max
        # for odd p, the odd q ≡ 1 (mod p) are exactly the q ≡ 1 (mod 2p)
        self._candidates = primes_in_progression(2 * p)
        self._tab = _power_table(g, p, p - 1)
        self._primes = [next(self._candidates)]
        # the table of the periods and its number of primes, none until a bound asks
        self._ys: tuple[int, ...] = ()
        self._width = 0
        # per integer a, a^((q - 1)/2) mod q lifted, for q = residue_prime
        self._symbols: dict[int, int] = {}

    def _gather(self, n: int) -> tuple[int, ...]:
        """ys[t] = w^(g^t mod p) mod M for M the product of the first n
        primes, w the CRT combination of the w_q of order p."""
        p, w, mod = self.p, 0, 1
        for q in self._primes[:n]:
            w_q = next(w_q for w_q in (pow(z, (q - 1) // p, q) for z in count(2)) if w_q != 1)
            w += mod * ((w_q - w) * pow(mod, -1, q) % q)
            mod *= q
        return itemgetter(*self._tab)(_power_table(w, mod, p))

    def _primes_for(self, bound: int) -> tuple[int, int]:
        """(n, M) for M the product of the fewest primes, at least one, with
        M > 2 * bound; each count is checked against the budget before the
        next prime is searched, and no table is built."""
        n, mod = 1, self._primes[0]
        while mod <= 2 * bound:
            n += 1
            _check_table_budget(self.p, n + 1)
            if n > len(self._primes):
                self._primes.append(next(self._candidates))
            mod *= self._primes[n - 1]
        return n, mod

    def _check_divisor(self, e: int) -> None:
        if e < 1 or (self.p - 1) % e:
            raise InvalidContext(f"e = {e} does not divide p - 1 = {self.p - 1}")

    @property
    def residue_prime(self) -> int:
        """The first CRT prime q, the modulus of period_residues."""
        return self._primes[0]

    def residue_symbol(self, a: int) -> int:
        """The Legendre symbol (a/q) for q = residue_prime, as 1, -1 or 0, by
        Euler's criterion a^((q - 1)/2) mod q, taken once per a and kept."""
        symbol = self._symbols.get(a)
        if symbol is None:
            q = self._primes[0]
            symbol = self._symbols[a] = _lift(pow(a, (q - 1) // 2, q), q)
        return symbol

    def period_residues(self, e: int) -> list[int]:
        """[eta_0, ..., eta_(e-1)] modulo q = residue_prime, for e | p - 1.

        The images come from the ring map Z[zeta] -> GF(q) that sends zeta to
        w_q, so any integer polynomial in the periods (psi_e's coefficients,
        the Galois norms) reduces mod q to the same polynomial in them.  They
        are the periods modulo the one prime that a bound of 0 asks for.
        """
        self._check_divisor(e)
        return self._periods_mod(e, 0)[0]

    def _periods_mod(self, e: int, bound: int) -> tuple[list[int], int]:
        """([eta_0, ..., eta_(e-1)] mod M, M) for a divisor e of p - 1, where M
        is the product of the fewest shared primes, at least one, with
        M > 2 * bound, so an integer of absolute value at most bound lifts
        exactly from mod M: the slice sums of the table, reduced mod M.
        """
        n, mod = self._primes_for(bound)
        if n > self._width:
            self._width = n
            if n > 1 and self._e_max is not None:
                ctx = PrimeContext(self.p, self._e_max, (self.p - 1) // self._e_max, self.g)
                try:
                    self._width = max(n, self._primes_for(max(coefficient_bound(ctx), _norm_bound(self.p, ctx.e)))[0])
                except InvalidContext:  # a plan past the budget: each bound is refused on its own
                    pass
            self._ys = self._gather(self._width)
        ys = self._ys
        return [sum(ys[i::e]) % mod for i in range(e)], mod

    def polynomial(self, e: int) -> PeriodPolynomial:
        """psi_e for a divisor e of p - 1, multiplied out by a product tree
        modulo the product of the shared primes that its coefficient bound
        asks for."""
        self._check_divisor(e)
        ctx = PrimeContext(p=self.p, e=e, f=(self.p - 1) // e, g=self.g)
        etas, mod = self._periods_mod(e, coefficient_bound(ctx))
        half = mod // 2  # each coefficient lifted to (-mod/2, mod/2], as by _lift
        return PeriodPolynomial(ctx, IntPoly([val - mod if val > half else val for val in _product_mod(etas, mod)]))

    def norms(self, e: int) -> tuple[list[int], int]:
        """([N_1, ..., N_(e/2)] of galois_norms, psi_e(1) = prod_i (1 - eta_i))
        exactly for e | p - 1, lifted from mod M > 2 isqrt((2p)^e // e^e).

        sum_i |eta_i - eta_(i+d)|^2 = 2p for d != 0 mod e (Berndt, Evans and
        Williams, Gauss and Jacobi Sums, ch. 2), so by AM-GM
        |N_d|^2 <= (2p/e)^e.  With sum_i eta_i = -1 and
        sum_i |eta_i|^2 = p - f, sum_i |1 - eta_i|^2 = e + 2 + p - f <= 2p
        as f >= 1, so |psi_e(1)|^2 <= (2p/e)^e as well.  Each is an integer,
        so its square is at most the floor of (2p/e)^e.  As
        2p/e <= 4f^2, the bound never exceeds the worst case (2f)^e of
        periods that are sums of f roots of unity."""
        self._check_divisor(e)
        etas, mod = self._periods_mod(e, _norm_bound(self.p, e))
        at_one = 1
        for eta in etas:
            at_one = at_one * (1 - eta) % mod
        return list(galois_norms(etas, mod)), _lift(at_one, mod)


def period_polynomial_modular(ctx: PrimeContext) -> PeriodPolynomial:
    """Build the period polynomial modulo one-digit primes q ≡ 1 (mod p)
    just above 2**29 (see PrimePeriods, which shares that work across every
    e of one p)."""
    return PrimePeriods(ctx.p, ctx.g).polynomial(ctx.e)


def gauss_cubic(p: int, g: int) -> tuple[IntPoly, int]:
    """(psi_3, |M|) for a prime p ≡ 1 (mod 3) from Gauss's closed form, with
    no table: writing 4p = L^2 + 27 M^2 with L ≡ 1 (mod 3),
    psi_3 = x^3 + x^2 - ((p - 1)/3) x - (p (L + 3) - 1)/27 and
    disc(psi_3) = p^2 M^2 (Gauss, Disquisitiones Arithmeticae, art. 358).

    (L, M) come from Cornacchia's algorithm for 4p = b^2 + 27 M^2 (Cohen, A
    Course in Computational Algebraic Number Theory, Alg. 1.5.3).
    omega = g^((p - 1)/3) is a primitive cube root of unity mod p, so
    (2 omega + 1)^2 = -3 and b = 3 (2 omega + 1) is a square root of -27,
    taken odd like -27.  Euclid's algorithm on (2p, b) stops at the first
    remainder b <= 2 sqrt(p); then (4p - b^2)/27 is M^2, and L = +-b, as
    L^2 ≡ 4p ≡ 1 (mod 3).  g must already be tested to be a primitive root
    mod p (classify's order test): the formula runs no test of its own.  A
    quotient that is not an integer square, or a constant term that is not
    an integer, raises InternalContradiction.
    """
    b = 3 * (2 * pow(g, (p - 1) // 3, p) + 1) % p
    if b % 2 == 0:
        b = p - b
    a, limit = 2 * p, isqrt(4 * p)
    while b > limit:
        a, b = b, a % b
    L = b if b % 3 == 1 else -b
    m_squared, m_rem = divmod(4 * p - L * L, 27)
    m = isqrt(m_squared)
    low, low_rem = divmod(p * (L + 3) - 1, 27)
    if m_rem or m * m != m_squared or low_rem:
        raise InternalContradiction(
            f"Cornacchia's L = {L} for p = {p}: (4p - L^2)/27 is not a square "
            "or 27 does not divide p (L + 3) - 1"
        )
    return IntPoly([-low, -((p - 1) // 3), 1, 1]), m
