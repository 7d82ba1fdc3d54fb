import pytest

from periodeq.intpoly import IntPoly, cyclotomic_prime, demoivre_reduce, resultant
from periodeq.number_theory import (
    CRT_PRIME_FLOOR,
    PRIME_TEST_BOUND,
    InvalidContext,
    PrimeContext,
    factorize,
    is_prime,
    make_context,
    primitive_root,
)
from periodeq.periods import (
    NonIntegerCoefficient,
    PrimePeriods,
    _exponent_sets,
    _rotate,
    coefficient_bound,
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


def test_root_powers_multiply_by_exponent_addition():
    # on length-p coordinates over 1, zeta, ..., zeta^(p-1), _rotate(v, b) is zeta^b * v
    for p in (5, 7, 11):
        for a in range(p):
            unit = [0] * p
            unit[a] = 1
            for b in range(p):
                want = [0] * p
                want[(a + b) % p] = 1
                assert _rotate(unit, b) == want


def test_period_examples_p5():
    ctx = make_context(2, 2)
    assert ctx.p == 5
    # eta_0 = zeta + zeta^4, eta_1 = zeta^2 + zeta^3
    assert _exponent_sets(ctx) == [[1, 4], [2, 3]]
    assert period_polynomial_exact(ctx).poly == IntPoly((-1, 1, 1))


def test_period_sum_is_minus_one():
    # the periods split the exponents 1 .. p-1, so they sum to
    # zeta + ... + zeta^(p-1) = -1 and psi has x^(e-1) coefficient 1
    for ctx in all_contexts(60):
        exps = _exponent_sets(ctx)
        assert sorted(a for A in exps for a in A) == list(range(1, ctx.p))
        assert period_polynomial_exact(ctx).poly.coeffs[ctx.e - 1] == 1, (ctx.e, ctx.f)


def test_f1_periods_are_root_powers():
    ctx = make_context(6, 1)
    assert _exponent_sets(ctx) == [[pow(ctx.g, i, 7)] for i in range(6)]


def test_exact_build_rejects_uncollapsed_coefficients(monkeypatch):
    import periodeq.periods as periods_mod

    # {1, 2} and {3, 4} are not Galois orbits: (zeta + zeta^2)(zeta^3 + zeta^4) is not rational
    monkeypatch.setattr(periods_mod, "_exponent_sets", lambda ctx: [[1, 2], [3, 4]])
    with pytest.raises(NonIntegerCoefficient):
        period_polynomial_exact(make_context(2, 2))


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


def test_prime_periods_at_large_e_and_above_p300():
    # psi_e is one product modulo the whole CRT modulus M; at p = 503 that M
    # spans 14 primes for e = 251 and 18 for e = 502
    periods = PrimePeriods(503, primitive_root(503))
    assert periods.polynomial(251).poly == demoivre_reduce(cyclotomic_prime(503))
    assert len(periods._primes) == 14
    assert periods.polynomial(502).poly == cyclotomic_prime(503)
    assert len(periods._primes) == 18
    # acceptance 07 ties the builds to the exact oracle up to p = 300
    ctx = make_context(40, 10)
    periods = PrimePeriods(401, ctx.g)
    assert periods.polynomial(40).poly == period_polynomial_exact(ctx).poly
    assert len(periods._primes) == 5


def test_prime_periods_crt_primes_step_by_p():
    for p in (5, 61, 359):
        want = []
        q = CRT_PRIME_FLOOR + 1 + (-CRT_PRIME_FLOOR) % p
        while len(want) < 3:
            if is_prime(q):
                want.append(q)
            q += p
        periods = PrimePeriods(p, primitive_root(p))
        for _ in range(3):
            periods._add_prime()
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
