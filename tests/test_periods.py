import math
import random
from fractions import Fraction
from itertools import accumulate, count, islice
from math import comb, isqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodeq.intpoly import IntPoly, cyclotomic_prime, demoivre_reduce, halved_cyclotomic_prime, resultant
from periodeq.number_theory import (
    CRT_PRIME_FLOOR,
    PRIME_TEST_BOUND,
    InternalContradiction,
    InvalidContext,
    PrimeContext,
    factorize,
    is_prime,
    make_context,
    primes_in_progression,
    primitive_root,
)
from periodeq.periods import (
    NonIntegerCoefficient,
    PrimePeriods,
    _period_power_sums,
    _power_table,
    _product_mod,
    coefficient_bound,
    galois_norms,
    gauss_cubic,
    period_polynomial_exact,
    period_polynomial_modular,
)


def all_contexts(p_max):
    out = []
    for p in range(3, p_max + 1):
        if is_prime(p):
            for e in range(1, p):
                if (p - 1) % e == 0:
                    out.append(make_context(e, (p - 1) // e))
    return out


# -- periods -------------------------------------------------------------


def test_period_examples_p5():
    ctx = make_context(2, 2)
    assert ctx.p == 5
    # eta_0 = zeta + zeta^4, eta_1 = zeta^2 + zeta^3
    assert period_polynomial_exact(ctx).poly == IntPoly((-1, 1, 1))


def test_period_sum_is_minus_one():
    # the periods split the exponents 1 .. p-1, so they sum to
    # zeta + ... + zeta^(p-1) = -1 and psi has x^(e-1) coefficient 1
    for ctx in all_contexts(60):
        assert period_polynomial_exact(ctx).poly.coeffs[ctx.e - 1] == 1, (ctx.e, ctx.f)


def test_f1_periods_are_root_powers():
    # for f = 1 the periods are zeta^x, x = 1 .. p-1, so for 0 < k < p each
    # power sum is zeta^k + ... + zeta^(k(p-1)) = -1
    for p in (3, 7, 11, 31):
        assert _period_power_sums(make_context(p - 1, 1)) == [-1] * (p - 1), p


def test_exact_build_rejects_non_integer_coefficients(monkeypatch, capsys):
    import periodeq.periods as periods_mod
    from periodeq.cli import main

    # S_1 = 0 and S_2 = 1 give e_2 = (e_1 S_1 - S_2) / 2 = -1/2
    monkeypatch.setattr(periods_mod, "_period_power_sums", lambda ctx: [0, 1])
    with pytest.raises(NonIntegerCoefficient, match=r"\(e=2, f=2\)"):
        period_polynomial_exact(make_context(2, 2))
    assert main(["psi", "--e", "2", "--f", "2", "--engine", "exact"]) == 4
    assert "(e=2, f=2)" in capsys.readouterr().err


def test_exact_build_equals_the_periods_numerically():
    # the definition itself: eta_i = sum_k exp(2 pi i g^(ke+i) / p), and
    # prod (x - eta_i) multiplied out in 60-digit complex arithmetic, with
    # no integer route shared with either builder
    contexts = all_contexts(100)
    assert len(contexts) == 159
    with mpmath.workdps(60):
        for ctx in contexts:
            p, e, f = ctx.p, ctx.e, ctx.f
            zeta = [mpmath.expjpi(mpmath.mpf(2 * x) / p) for x in range(p)]
            coeffs = [mpmath.mpc(1)]  # high degree first
            for i in range(e):
                eta = mpmath.fsum(zeta[pow(ctx.g, k * e + i, p)] for k in range(f))
                coeffs = [a - eta * b for a, b in zip([*coeffs, 0], [0, *coeffs])]
            rounded = [int(mpmath.nint(c.real)) for c in coeffs]
            assert all(abs(c - r) < 1e-30 for c, r in zip(coeffs, rounded)), (e, f)
            assert period_polynomial_exact(ctx).poly == IntPoly(rounded[::-1]), (e, f)
            # the identities behind the CRT bounds: sum |eta_i|^2 = p - f and
            # sum |eta_i - eta_(i+d)|^2 = 2p for every d != 0 mod e
            etas = [mpmath.fsum(zeta[pow(ctx.g, k * e + i, p)] for k in range(f)) for i in range(e)]
            assert abs(mpmath.fsum(abs(eta) ** 2 for eta in etas) - (p - f)) < 1e-30, (e, f)
            for d in range(1, e):
                spread = mpmath.fsum(abs(etas[i] - etas[(i + d) % e]) ** 2 for i in range(e))
                assert abs(spread - 2 * p) < 1e-30, (e, f, d)


def test_exact_build_equals_prime_periods_near_p_100000():
    # the counting takes O(e p) steps, so p near 10^5 is in reach
    for e, p in ((2, 100003), (3, 100003), (4, 100049), (12, 100057)):
        ctx = make_context(e, (p - 1) // e)
        assert period_polynomial_exact(ctx).poly == PrimePeriods(p, ctx.g).polynomial(e).poly, (e, p)


# -- CRT bounds ------------------------------------------------------------------


def test_coefficient_bound_holds_and_is_nearly_attained_up_to_p400():
    # the exact build takes no modulus, so its coefficients test the bound
    # independently; the bound never exceeds the worst case |eta_i| <= f,
    # and a largest ratio above 0.99 at e >= 4 (e = 2 attains it trivially)
    # leaves no room for a tighter one: (p, e) = (197, 4) reaches 1
    worst = Fraction(0)
    for ctx in all_contexts(400):
        bound = coefficient_bound(ctx)
        assert bound <= max(comb(ctx.e, j) * ctx.f**j for j in range(ctx.e + 1)), (ctx.e, ctx.f)
        top = max(abs(c) for c in period_polynomial_exact(ctx).poly.coeffs)
        assert top <= bound, (ctx.e, ctx.f)
        if ctx.e >= 4:
            worst = max(worst, Fraction(top, bound))
    assert worst > 0.99


def test_norm_bound_holds_and_is_nearly_attained_up_to_p400():
    # the norms and psi(1) lifted from the worst-case modulus M > 2 (2f)^e
    # lie within isqrt((2p)^e // e^e) and equal what norms(e) lifts from
    # the product of the fewest primes above twice that bound, the modulus
    # that _periods_mod returns for it; a largest ratio above 0.99
    # at e >= 4 leaves no room for a tighter bound: (p, e) = (293, 4)
    # reaches 0.9966
    worst = Fraction(0)
    for p in filter(is_prime, range(3, 401)):
        g = primitive_root(p)
        wide, periods = PrimePeriods(p, g), PrimePeriods(p, g)
        for e in (d for d in range(1, p) if (p - 1) % d == 0):
            f = (p - 1) // e
            etas, mod = wide._periods_mod(e, (2 * f) ** e)
            at_one = 1
            for eta in etas:
                at_one = at_one * (1 - eta) % mod
            at_one = at_one - mod if at_one > mod // 2 else at_one
            norms = list(galois_norms(etas, mod))
            bound = isqrt((2 * p) ** e // e**e)
            assert bound <= (2 * f) ** e, (p, e)
            assert all(abs(n) <= bound for n in (*norms, at_one)), (p, e)
            assert periods.norms(e) == (norms, at_one), (p, e)
            n = _fewest_primes(periods._primes, bound)
            assert periods._periods_mod(e, bound)[1] == math.prod(periods._primes[:n]), (p, e)
            if e >= 4:
                worst = max(worst, *(Fraction(abs(n), bound) for n in norms))
    assert worst > 0.99


# -- period polynomials ---------------------------------------------------


def test_quintic_worked_example():
    ctx = make_context(5, 2)
    want = IntPoly((1, 3, -3, -4, 1, 1))
    assert period_polynomial_exact(ctx).poly == want
    assert period_polynomial_modular(ctx).poly == want


def test_engines_agree_up_to_p60():
    for ctx in all_contexts(60):
        a = period_polynomial_exact(ctx).poly
        b = period_polynomial_modular(ctx).poly
        assert a == b, (ctx.e, ctx.f)


def test_polynomial_shape_invariants():
    for ctx in all_contexts(60):
        poly = period_polynomial_modular(ctx).poly
        assert poly.degree == ctx.e
        assert poly.lc == 1
        assert poly.coeffs[ctx.e - 1] == 1  # trace of all periods is -1
        bound = coefficient_bound(ctx)
        assert all(abs(c) <= bound for c in poly.coeffs)
        # squarefree: nonzero resultant with the derivative
        assert resultant(poly, poly.derivative()) != 0


def test_f1_collapses_to_prime_cyclotomic():
    for p in (3, 5, 7, 11, 13, 31, 59):
        ctx = make_context(p - 1, 1)
        assert period_polynomial_modular(ctx).poly == cyclotomic_prime(p)
        assert period_polynomial_exact(ctx).poly == cyclotomic_prime(p)
    # classify writes both shapes down for f <= 2; the CRT builder still
    # gives them, Phi_p for p <= 300 and its halving for p <= 600
    for p in filter(is_prime, range(3, 601)):
        periods = PrimePeriods(p, primitive_root(p))
        if p <= 300:
            assert periods.polynomial(p - 1).poly == cyclotomic_prime(p), p
        assert periods.polynomial((p - 1) // 2).poly == halved_cyclotomic_prime(p), p


def test_e1_polynomial_is_x_plus_one():
    for p in (3, 7, 31):
        ctx = make_context(1, p - 1)
        assert period_polynomial_exact(ctx).poly == IntPoly((1, 1))


def test_result_independent_of_primitive_root():
    for ctx in all_contexts(40):
        p = ctx.p
        reference = period_polynomial_exact(ctx).poly
        others = [
            g for g in range(2, p)
            if g != ctx.g
            and all(pow(g, (p - 1) // q, p) != 1 for q in factorize(p - 1))
        ]
        for g in others[:2]:
            alt = PrimeContext(p=p, e=ctx.e, f=ctx.f, g=g)
            assert period_polynomial_exact(alt).poly == reference, (ctx.e, ctx.f, g)
            assert period_polynomial_modular(alt).poly == reference, (ctx.e, ctx.f, g)


def test_smallest_primitive_root_is_used():
    ctx = make_context(5, 2)
    assert ctx.g == primitive_root(11) == 2


def test_large_doublet_coefficient_spotchecks():
    # f = 2 member: degree 96 with p = 193
    poly = period_polynomial_modular(make_context(96, 2)).poly
    high = poly.high_to_low()
    assert high[:7] == (1, 1, -95, -94, 4371, 4278, -129766)
    assert poly.coeffs[:3] == (1, -48, -1176)
    # f = 1 member: all ones at p = 97
    assert period_polynomial_modular(make_context(96, 1)).poly == cyclotomic_prime(97)


def test_deterministic_rebuild():
    ctx = make_context(10, 4)
    assert period_polynomial_modular(ctx) == period_polynomial_modular(ctx)
    assert period_polynomial_exact(ctx) == period_polynomial_exact(ctx)


# -- shared per-p build ----------------------------------------------------


def _other_primitive_root(p, g):
    return next(
        h for h in range(g + 1, p)
        if all(pow(h, (p - 1) // q, p) != 1 for q in factorize(p - 1))
    )


def test_prime_periods_serve_every_e_up_to_p300():
    # fresh period_polynomial_modular builds are tied to the exact oracle by
    # acceptance 07; here one shared PrimePeriods per p must reproduce them
    for p in filter(is_prime, range(3, 301)):
        g = primitive_root(p)
        shared = [PrimePeriods(p, g)]
        if p > 3:  # 2 is the only primitive root mod 3
            shared.append(PrimePeriods(p, _other_primitive_root(p, g)))
        # largest e first, so the smaller ones reuse primes already found
        for e in sorted((d for d in range(1, p) if (p - 1) % d == 0), reverse=True):
            ctx = make_context(e, (p - 1) // e)
            want = period_polynomial_modular(ctx).poly
            for periods in shared:
                built = periods.polynomial(e)
                assert built.poly == want, (e, ctx.f, periods.g)
                assert built.ctx == PrimeContext(p=p, e=e, f=ctx.f, g=periods.g)


def _fewest_primes(primes: list[int], bound: int) -> int:
    """The number of leading primes whose product first exceeds 2 * bound."""
    n, modulus = 0, 1
    while modulus <= 2 * bound:
        modulus *= primes[n]
        n += 1
    return n


def test_prime_periods_at_large_e_and_above_p300():
    # psi_e is one product modulo the whole CRT modulus M, the product of the
    # fewest shared primes that exceeds twice psi_e's coefficient bound
    periods = PrimePeriods(503, primitive_root(503))
    for e, want in ((251, demoivre_reduce(cyclotomic_prime(503))), (502, cyclotomic_prime(503))):
        assert periods.polynomial(e).poly == want
        bound = coefficient_bound(make_context(e, 502 // e))
        assert len(periods._primes) == _fewest_primes(periods._primes, bound) > 1, e
    # acceptance 07 ties the builds to the exact oracle up to p = 300
    ctx = make_context(40, 10)
    periods = PrimePeriods(401, ctx.g)
    assert periods.polynomial(40).poly == period_polynomial_exact(ctx).poly
    assert len(periods._primes) == _fewest_primes(periods._primes, coefficient_bound(ctx))


def test_norms_and_polynomial_do_not_depend_on_call_order():
    # the table built for the first bound serves a smaller one, reduced mod
    # its modulus, and a larger one builds it again, so the list of exact
    # norms and psi(1) are the same in either order, and the table holds
    # every prime either bound asked for; f = 1 and 2 are the matched
    # shapes, the rest unmatched
    for p in (11, 31, 61, 101, 193):
        g = primitive_root(p)
        divisors = [d for d in range(1, p) if (p - 1) % d == 0]
        want = {e: (PrimePeriods(p, g).polynomial(e), PrimePeriods(p, g).norms(e)) for e in divisors}
        shared = PrimePeriods(p, g)
        for e in divisors:
            poly_first, norms_first = PrimePeriods(p, g), PrimePeriods(p, g)
            assert poly_first.polynomial(e) == want[e][0] and poly_first.norms(e) == want[e][1], (p, e)
            assert norms_first.norms(e) == want[e][1] and norms_first.polynomial(e) == want[e][0], (p, e)
            assert norms_first._width == len(norms_first._primes), (p, e)
            assert (shared.polynomial(e), shared.norms(e), shared.polynomial(e)) == (*want[e], want[e][0])


def test_prime_periods_crt_primes_step_by_p():
    for p in (5, 61, 359):
        want = []
        q = CRT_PRIME_FLOOR + 1 + (-CRT_PRIME_FLOOR) % p
        while len(want) < 3:
            if is_prime(q):
                want.append(q)
            q += p
        periods = PrimePeriods(p, primitive_root(p))  # finds the first prime
        # M = q_1 q_2 does not exceed twice this bound, so a third prime is found
        assert periods._primes_for(want[0] * want[1]) == (3, math.prod(want)), p
        assert periods._primes == want, p


def test_prime_periods_validation():
    with pytest.raises(InvalidContext):
        PrimePeriods(9, 2)
    with pytest.raises(InvalidContext):
        PrimePeriods(2, 1)
    with pytest.raises(InvalidContext):
        PrimePeriods(PRIME_TEST_BOUND, 2)
    # 3 has order 3 mod 13; 0 and 15 are not residues in 1 .. p-1
    for g in (3, 1, 0, 15):
        with pytest.raises(InvalidContext):
            PrimePeriods(13, g)
    periods = PrimePeriods(13, 2)
    for e in (5, 0, -1, 24):
        with pytest.raises(InvalidContext):
            periods.polynomial(e)


def test_table_budget_refuses_the_table_that_would_cross_it(monkeypatch):
    import periodeq.periods as periods_mod

    # three tables of p - 1 = 66 entries fit: the g table and two CRT primes'
    # worth, here one table modulo two primes, for psi_33, built at once
    monkeypatch.setattr(periods_mod, "MAX_TABLE_ENTRIES", 3 * 66)
    built = []
    real = periods_mod._power_table
    monkeypatch.setattr(periods_mod, "_power_table", lambda base, mod, n: built.append(mod) or real(base, mod, n))
    periods = PrimePeriods(67, primitive_root(67))
    periods.polynomial(33)
    q_1, q_2 = periods._primes
    assert built == [67, q_1 * q_2]
    # psi_66 = Phi_67, whose middle coefficient C(66, 33) > 2^62, takes a third
    with pytest.raises(InvalidContext, match="4 tables of 66 entries, over the table budget"):
        periods.polynomial(66)
    assert built == [67, q_1 * q_2]  # no wider table was built
    # a larger p is refused before its g table is built
    with pytest.raises(InvalidContext, match="2 tables of 100 entries"):
        PrimePeriods(101, primitive_root(101))


def test_a_fresh_classify_builds_the_g_table_and_one_table_modulo_m(monkeypatch):
    # (60, 1666), p = 99961: classify reads no table modulo the residue prime
    # alone, so it builds the g table and the table modulo M of its bounds
    import periodeq.periods as periods_mod
    from periodeq.monogeneity import classify

    built = []
    real = periods_mod._power_table
    monkeypatch.setattr(periods_mod, "_power_table", lambda base, mod, n: built.append(mod) or real(base, mod, n))
    ctx = make_context(60, 1666)
    classify(ctx)
    assert len(built) == 2 and built[0] == ctx.p and built[1].bit_length() > 300


def test_table_budget_holds_the_largest_pair_up_to_p_100000():
    # e = 250, p = 99251 takes the most table entries of e <= 250, p <= 10^5
    periods = PrimePeriods(99251, primitive_root(99251))
    periods.norms(250)
    assert len(periods._primes) == 42  # with the g table, 43 * 99250 = 4267750 entries


def test_period_residues_are_the_roots_of_psi_mod_q():
    for p in (13, 61, 359):
        periods = PrimePeriods(p, primitive_root(p))
        q = periods.residue_prime
        assert q % p == 1 and is_prime(q)
        for e in (d for d in range(1, p) if (p - 1) % d == 0):
            etas = periods.period_residues(e)
            psi = periods.polynomial(e).poly
            assert len(etas) == e and sum(etas) % q == q - 1  # the periods sum to -1
            for eta in etas:
                assert sum(c * pow(eta, j, q) for j, c in enumerate(psi.coeffs)) % q == 0, (p, e)
        assert periods.residue_prime == q
    for e in (5, 0, -1, 24):
        with pytest.raises(InvalidContext):
            PrimePeriods(13, 2).period_residues(e)


def test_period_residues_are_kept_slice_sums_in_any_call_order():
    # the residues are the periods mod q from their definition, the same
    # fresh list before and after polynomial and norms, and the periods mod
    # M of a table modulo many primes reduce mod q to them; polynomial and
    # norms are the same whether or not the certificate's residues came first
    from periodeq.monogeneity import index_certificate

    for p in (101, 193, 359):
        g = primitive_root(p)
        cert_first, cert_last = PrimePeriods(p, g), PrimePeriods(p, g)
        q = cert_first.residue_prime
        w = next(w for w in (pow(z, (q - 1) // p, q) for z in count(2)) if w != 1)
        for e in (d for d in range(1, p) if (p - 1) % d == 0):
            want = [sum(pow(w, pow(g, k * e + i, p), q) for k in range((p - 1) // e)) % q for i in range(e)]
            index_certificate(cert_first, e)
            before = cert_first.period_residues(e)
            built = (cert_first.polynomial(e), cert_first.norms(e))
            assert (cert_last.polynomial(e), cert_last.norms(e)) == built, (p, e)
            after, last = cert_first.period_residues(e), cert_last.period_residues(e)
            assert before == after == last == want, (p, e)
            etas, mod = cert_first._periods_mod(e, 1 << 200)
            assert mod > q and [eta % q for eta in etas] == want, (p, e)
            for fresh, kept in ((before, cert_first), (after, cert_first), (last, cert_last)):
                fresh[0] += q  # a caller's change never reaches the table
                assert kept.period_residues(e) == want, (p, e)


# -- power tables ------------------------------------------------------------


def test_power_table_equals_the_product_chain():
    # the chain seeds 256 entries and each doubling then extends them, so
    # n runs across the seed's edge and the doublings' edges
    for mod in (1000003, (1 << 29) + 11):
        for base in (0, 1, mod - 1, 123457):
            want = [1]
            for _ in range(7000):
                want.append(want[-1] * base % mod)
            for n in (0, 1, 2, 255, 256, 257, 512, 513, 1000, 7001):
                assert _power_table(base, mod, n) == want[:n], (mod, base, n)


def test_prime_periods_at_the_smallest_gathers():
    # at p = 3 each table gathers two entries, at p = 5 four: first modulo
    # the residue prime, and at a bound of 2^40 modulo two primes, where the
    # one period sums to -1 as well
    for p in (3, 5):
        periods = PrimePeriods(p, primitive_root(p))
        assert periods.period_residues(1) == [periods.residue_prime - 1]
        assert len(periods._ys) == p - 1 and periods._width == 1
        for e in (d for d in range(1, p) if (p - 1) % d == 0):
            ctx = make_context(e, (p - 1) // e)
            assert periods.polynomial(e) == period_polynomial_exact(ctx), (p, e)
        etas, mod = periods._periods_mod(1, 1 << 40)
        assert etas == [mod - 1] and mod == math.prod(periods._primes[:2])
        assert len(periods._ys) == p - 1 and periods._width == 2


def test_ys_are_the_powers_of_w_at_the_powers_of_g():
    # no table until a bound asks; the table of width 1 is w_q^(g^t) mod q
    # for w_q of order p mod the residue prime q, and the table modulo M of
    # four primes is w^(g^t) mod M for a w of order p mod M, which reduces
    # mod q to the table of width 1
    p = 1009
    g = primitive_root(p)
    periods = PrimePeriods(p, g)
    assert periods._ys == () and periods._width == 0
    periods.period_residues(1)
    narrow, q = periods._ys, periods.residue_prime
    _, mod = periods._periods_mod(1, 1 << 100)
    assert mod == math.prod(periods._primes) and len(periods._primes) == periods._width == 4
    for ys, m in ((narrow, q), (periods._ys, mod)):
        w = ys[0]  # w^(g^0)
        assert all(w % r != 1 for r in periods._primes if m % r == 0) and pow(w, p, m) == 1
        assert list(ys) == [pow(w, pow(g, t, p), m) for t in range(p - 1)], m
    assert [y % q for y in periods._ys] == list(narrow)


# -- product tree ------------------------------------------------------------


def _one_factor_at_a_time(etas, mod):
    coeffs = [1]
    for eta in etas:
        coeffs = [(a - eta * b) % mod for a, b in zip([0, *coeffs], [*coeffs, 0])]
    return coeffs


def test_product_tree_equals_the_one_factor_at_a_time_product():
    # e < 16, e = 16 (one leaf), sizes off a multiple of 16 and odd counts at
    # a level (e = 17 has leaves 16, 1; e = 33 has 16, 16, 1; e = 49 has
    # three leaves and one); M the product of 1 to 20 CRT primes
    rng = random.Random(11)
    moduli = list(accumulate(islice(primes_in_progression(2 * 41), 20), lambda a, b: a * b))
    for e in range(1, 51):
        for mod in moduli:
            for etas in (
                [rng.randrange(mod) for _ in range(e)],
                [mod - 1] * e,  # the largest slot values
                [rng.choice((0, rng.randrange(mod))) for _ in range(e)],
            ):
                assert _product_mod(etas, mod) == _one_factor_at_a_time(etas, mod), (e, mod)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0), min_size=1, max_size=70),
    st.integers(min_value=1, max_value=1 << 700),
)
def test_product_tree_equals_the_one_factor_at_a_time_product_hypothesis(raw, mod):
    etas = [x % mod for x in raw]
    assert _product_mod(etas, mod) == _one_factor_at_a_time(etas, mod)


def test_gauss_cubic_equals_the_table_path_up_to_p20000():
    # the closed form against PrimePeriods, which knows nothing of it: psi_3,
    # and M = |N_1| / p, for every prime p ≡ 1 (mod 6) up to 20000
    primes = [p for p in range(7, 20001, 6) if is_prime(p)]
    assert len(primes) == 1124
    for p in primes:
        g = primitive_root(p)
        periods = PrimePeriods(p, g)
        psi, m = gauss_cubic(p, g)
        assert psi == periods.polynomial(3).poly, p
        assert m * p == abs(periods.norms(3)[0][0]), p


def test_gauss_cubic_refuses_what_has_no_cubic_periods():
    assert gauss_cubic(7, 3) == (IntPoly([-1, -2, 1, 1]), 1)  # 28 = 1 + 27
    assert gauss_cubic(31, 3) == (IntPoly([-8, -10, 1, 1]), 2)  # 124 = 4^2 + 27 * 2^2
    # the formula runs no order test (classify's comes first): with g = 1,
    # omega = 1 is no cube root of unity, and Cornacchia's L = 1 leaves
    # 4p - 1 = 51 with no factor 27
    with pytest.raises(InternalContradiction, match="L = 1 for p = 13"):
        gauss_cubic(13, 1)
