import math
import pickle
import time
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from periodeq.intpoly import (
    IntPoly,
    Signature,
    cyclotomic_prime,
    demoivre_reduce,
    discriminant,
    discriminant_and_signature,
    halved_cyclotomic_prime,
)
from periodeq.monogeneity import (
    ClassificationRecord,
    FieldDiscriminant,
    MatchKind,
    NotDivisible,
    NotPerfectSquare,
    _index_from_norms,
    classify,
    field_discriminant,
    index_certificate,
    index_squared,
)
from periodeq.number_theory import (
    MAX_P,
    InternalContradiction,
    InvalidContext,
    PrimeContext,
    is_prime,
    make_context,
    primitive_root,
)
from periodeq.periods import PrimePeriods, period_polynomial_modular
from periodeq.scanner import ScanSpec


def contexts_with_p_up_to(p_max, e_fixed=None):
    out = []
    for p in range(3, p_max + 1):
        if is_prime(p):
            for e in range(1, p):
                if (p - 1) % e == 0 and (e_fixed is None or e == e_fixed):
                    out.append(make_context(e, (p - 1) // e))
    return out


# -- field discriminant ---------------------------------------------------


def test_field_discriminant_examples():
    assert field_discriminant(6, 1, 7) == FieldDiscriminant(-1, 7, 5)
    assert field_discriminant(6, 2, 13) == FieldDiscriminant(1, 13, 5)
    assert field_discriminant(4, 1, 5) == FieldDiscriminant(1, 5, 3)
    assert field_discriminant(6, 1, 7).value() == -(7**5)
    assert field_discriminant(4, 1, 5).value() == 5**3


def test_field_discriminant_sign_rule():
    for ctx in contexts_with_p_up_to(200):
        delta = field_discriminant(ctx.e, ctx.f, ctx.p)
        negative = (ctx.e - 1) % 4 == 1 and ctx.f % 2 == 1
        assert delta.sign == (-1 if negative else 1), (ctx.e, ctx.f)
        assert delta.exponent == ctx.e - 1


def test_field_discriminant_validation():
    with pytest.raises(InvalidContext):
        field_discriminant(4, 2, 9)  # composite p
    with pytest.raises(InvalidContext):
        field_discriminant(4, 2, 11)  # p != e*f + 1
    with pytest.raises(InvalidContext):
        field_discriminant(0, 2, 1)


# -- index extraction -----------------------------------------------------


def test_index_squared_examples():
    assert index_squared(11**4, FieldDiscriminant(1, 11, 4)) == (1, 1)
    assert index_squared(-2012, FieldDiscriminant(-1, 503, 1)) == (4, 2)
    assert index_squared(9 * 13**3, FieldDiscriminant(1, 13, 3)) == (9, 3)


def test_index_squared_errors():
    with pytest.raises(NotDivisible):
        index_squared(10, FieldDiscriminant(1, 3, 2))
    with pytest.raises(NotDivisible):
        index_squared(0, FieldDiscriminant(1, 3, 2))
    with pytest.raises(NotPerfectSquare):
        index_squared(-45, FieldDiscriminant(1, 3, 2))  # sign mismatch
    with pytest.raises(NotPerfectSquare):
        index_squared(45, FieldDiscriminant(1, 3, 2))  # quotient 5


# -- classification -------------------------------------------------------


def test_classify_reduced_cyclotomic_case():
    rec = classify(make_context(5, 2))
    assert rec.p == 11
    assert rec.psi == IntPoly((1, 3, -3, -4, 1, 1))
    assert rec.poly_discriminant == 11**4
    assert rec.k == 1 and rec.monogenic
    assert rec.signature == Signature(5, 0)
    assert rec.match_kind is MatchKind.REDUCED_CYCLOTOMIC


def test_classify_direct_cyclotomic_case():
    rec = classify(make_context(10, 1))
    assert rec.p == 11
    assert rec.poly_discriminant == -(11**9)
    assert rec.monogenic
    assert rec.signature == Signature(0, 5)
    assert rec.match_kind is MatchKind.DIRECT_CYCLOTOMIC


def test_classify_non_monogenic_cases():
    rec = classify(make_context(4, 4))
    assert rec.psi.high_to_low() == (1, 1, -6, -1, 1)
    assert (rec.k_squared, rec.k) == (4, 2)
    assert not rec.monogenic
    assert rec.match_kind is MatchKind.NO_MATCH
    assert rec.signature == Signature(4, 0)

    rec = classify(make_context(4, 3))
    assert rec.psi.high_to_low() == (1, 1, 2, -4, 3)
    assert (rec.k_squared, rec.k) == (9, 3)
    assert rec.signature == Signature(0, 2)

    rec = classify(make_context(6, 3))
    assert rec.psi.high_to_low() == (1, 1, 2, -8, -1, 5, 7)
    assert (rec.k_squared, rec.k) == (5929, 77)


def test_classify_quadratics_all_monogenic():
    for ctx in contexts_with_p_up_to(200, e_fixed=2):
        rec = classify(ctx)
        assert rec.monogenic, ctx.p
        assert rec.k_squared == 1
        # a quadratic field's minimal polynomial is always an integral basis generator
        want_match = (
            MatchKind.DIRECT_CYCLOTOMIC
            if ctx.f == 1
            else MatchKind.REDUCED_CYCLOTOMIC
            if ctx.p == 2 * ctx.e + 1
            else MatchKind.NO_MATCH
        )
        assert rec.match_kind is want_match


def test_classify_cubics_against_direct_formula():
    for ctx in contexts_with_p_up_to(300, e_fixed=3):
        rec = classify(ctx)
        d, c, b = rec.psi.coeffs[:3]
        direct = (
            18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2
        )
        assert rec.poly_discriminant == direct, ctx.p
        assert rec.k_squared * rec.field_discriminant.value() == direct


def test_discriminant_factorization_invariant():
    for ctx in contexts_with_p_up_to(150):
        rec = classify(ctx)
        assert rec.k_squared == rec.k * rec.k
        assert rec.poly_discriminant == rec.k_squared * rec.field_discriminant.value()
        assert rec.g == ctx.g
        n_real = rec.signature.n_real
        assert n_real == (ctx.e if ctx.f % 2 == 0 else 0)


PAIRS_P_LE_200 = [(ctx.e, ctx.f) for ctx in contexts_with_p_up_to(200)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(PAIRS_P_LE_200))
def test_classify_matches_sympy(pair):
    rec = classify(make_context(*pair))
    P = sympy.Poly(list(rec.psi.high_to_low()), sympy.symbols("x"))
    assert rec.poly_discriminant == sympy.discriminant(P)
    # psi is squarefree, so its isolating intervals count its real roots;
    # sympy's continued-fraction isolation takes milliseconds where
    # count_roots' Sturm chain takes up to 9 s on (66, 3)
    assert rec.signature.n_real == len(P.intervals())


def test_signature_stored_matches_direct_computation():
    from periodeq.intpoly import signature

    for e, f in [(4, 4), (5, 2), (8, 2), (6, 3)]:
        rec = classify(make_context(e, f))
        assert rec.signature == signature(rec.psi)


def test_records_pickle_round_trip():
    for value in (classify(make_context(5, 2)), ScanSpec(4, 60, 364, 2), IntPoly((1, 2, 0))):
        again = pickle.loads(pickle.dumps(value))
        assert again == value
        assert type(again) is type(value)


def test_value_types_check_their_fields_and_are_immutable():
    invalid = [((5, 4, 100), {}), ((), {"e_min": 5, "e_max": 4, "p_bound": 100}), ((4, 60, 364), {"worker_count": 0})]
    for args, kwargs in invalid:
        with pytest.raises(InvalidContext):
            ScanSpec(*args, **kwargs)
    # unpickling goes through __new__, so a spec that skipped its checks is refused there
    forged = pickle.dumps(tuple.__new__(ScanSpec, (5, 4, 100, 1)))
    with pytest.raises(InvalidContext):
        pickle.loads(forged)
    assert IntPoly((1, 2, 0)).coeffs == (1, 2)
    with pytest.raises(TypeError):
        IntPoly([1.5])
    for value, field in [(IntPoly((1,)), "coeffs"), (ScanSpec(4, 60, 364), "p_bound"), (make_context(5, 2), "g")]:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
    assert repr(PrimeContext(13, 3, 4, 2)) == "PrimeContext(p=13, e=3, f=4, g=2)"


def test_match_requires_exact_polynomial():
    rec = classify(make_context(8, 2))
    assert rec.match_kind is MatchKind.REDUCED_CYCLOTOMIC
    assert rec.psi == period_polynomial_modular(make_context(8, 2)).poly


def test_classify_uses_shared_periods_of_its_own_p():
    ctx = make_context(6, 3)
    assert classify(ctx, PrimePeriods(19, 3)) == classify(ctx)
    with pytest.raises(InvalidContext):
        classify(ctx, PrimePeriods(13, 2))


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
@pytest.mark.parametrize("e, f", [(12, 1), (6, 2), (3, 4), (4, 3)], ids=["f=1", "f=2", "e=3", "f=3"])
def test_classify_refuses_a_g_that_is_not_a_primitive_root(e, f, shared):
    # 4 = 2^2 has order 6 mod 13; shared periods are those of g = 2
    periods = PrimePeriods(13, 2) if shared else None
    with pytest.raises(InvalidContext, match="g = 4 is not a primitive root mod an odd prime p = 13"):
        classify(PrimeContext(13, e, f, 4), periods)


@pytest.mark.parametrize("e, f", [(11, 1), (7, 2), (3, 5), (5, 3), (-3, -4)])
def test_classify_refuses_a_context_of_another_shape(e, f):
    # g = 2 is a primitive root mod 13, so only p != e*f + 1, or e < 1, is wrong
    with pytest.raises(InvalidContext, match=r"\(e=-?\d+, f=-?\d+, p=13\) is not a valid period context"):
        classify(PrimeContext(13, e, f, 2))


@pytest.mark.parametrize("e, f", [(12006, 1), (6003, 2)])
def test_cyclotomic_shapes_past_the_table_budget_are_written_down(monkeypatch, e, f):
    import periodeq.monogeneity as mono_mod

    # p = 12007: a CRT build of Phi_p would take 375 tables of p entries,
    # over MAX_TABLE_ENTRIES, and of its halving more than a minute
    def refuse(p, g):
        raise AssertionError(f"a PrimePeriods was built for p = {p}")

    monkeypatch.setattr(mono_mod, "PrimePeriods", refuse)
    start = time.perf_counter()
    rec = classify(make_context(e, f))
    assert time.perf_counter() - start < 1.0
    assert (rec.p, rec.k, rec.poly_discriminant) == (12007, 1, rec.field_discriminant.value())
    assert rec.psi == (cyclotomic_prime if f == 1 else halved_cyclotomic_prime)(12007)


def test_closed_form_of_cyclotomic_shapes_agrees_with_the_chain():
    contexts = [ctx for ctx in contexts_with_p_up_to(300) if ctx.f in (1, 2)]
    contexts += [make_context(250, 1), make_context(239, 2)]
    for ctx in contexts:
        rec = classify(ctx)
        disc, sig = discriminant_and_signature(rec.psi)
        k2, k = index_squared(disc, field_discriminant(ctx.e, ctx.f, ctx.p))
        assert (rec.poly_discriminant, rec.k_squared, rec.k) == (disc, k2, k) == (disc, 1, 1)
        assert rec.signature == sig, (ctx.e, ctx.f)
        want = MatchKind.DIRECT_CYCLOTOMIC if ctx.f == 1 else MatchKind.REDUCED_CYCLOTOMIC
        assert rec.match_kind is want, (ctx.e, ctx.f)


def test_matched_shapes_skip_the_chain(monkeypatch):
    import periodeq.intpoly as intpoly_mod

    def no_chain(*args):
        raise AssertionError("the chain or the norms ran on a matched pair")

    monkeypatch.setattr(intpoly_mod, "_subresultant_chain", no_chain)
    monkeypatch.setattr(PrimePeriods, "norms", no_chain)
    assert classify(make_context(10, 1)).match_kind is MatchKind.DIRECT_CYCLOTOMIC
    assert classify(make_context(5, 2)).match_kind is MatchKind.REDUCED_CYCLOTOMIC


def test_classify_never_runs_the_chain(monkeypatch):
    import periodeq.intpoly as intpoly_mod

    def no_chain(*args):
        raise AssertionError("classify ran the subresultant chain")

    # every public chain function reaches these two through intpoly's globals
    for name in ("_prem", "_subresultant_chain"):
        monkeypatch.setattr(intpoly_mod, name, no_chain)
    kinds = {classify(ctx).match_kind for ctx in contexts_with_p_up_to(60)}
    assert kinds == set(MatchKind)


def test_psi_off_the_shape_must_match_its_norms(monkeypatch):
    # psi_4 of p = 13 with constant term 4: the periods give
    # prod (1 - eta_i) = psi_4(1) = 3, not the perturbed psi(1) = 4
    perturbed = IntPoly((4, -4, 2, 1, 1))
    periods = PrimePeriods(13, 2)
    assert periods.polynomial(4).poly == IntPoly((3, -4, 2, 1, 1))
    monkeypatch.setattr(periods, "polynomial", lambda e: SimpleNamespace(poly=perturbed))
    with pytest.raises(InternalContradiction, match=r"psi\(1\) = 4 .* norm 3 .*\(e=4, f=3\)"):
        classify(make_context(4, 3), periods)


def test_norm_discriminant_equals_the_chain():
    # every f >= 3 pair with p <= 300, and two with e >= 100: the k that
    # classify folds from the norms, and D = k^2 * delta, are the chain's
    contexts = [ctx for ctx in contexts_with_p_up_to(300) if ctx.f >= 3]
    contexts += [make_context(102, 3), make_context(104, 3)]
    assert {ctx.e % 4 for ctx in contexts} == {0, 1, 2, 3}
    shared: dict[int, PrimePeriods] = {}
    for ctx in contexts:
        if ctx.p not in shared:
            shared[ctx.p] = PrimePeriods(ctx.p, ctx.g)
        periods = shared[ctx.p]
        psi = periods.polynomial(ctx.e).poly
        assert periods.norms(ctx.e)[1] == sum(psi.coeffs), (ctx.e, ctx.f)
        disc = discriminant(psi) if ctx.e > 1 else 1
        k2, k = index_squared(disc, field_discriminant(ctx.e, ctx.f, ctx.p))
        rec = classify(ctx, periods)
        assert (rec.poly_discriminant, rec.k_squared, rec.k) == (disc, k2, k), (ctx.e, ctx.f)


def test_zero_norm_raises_not_divisible(monkeypatch):
    real = PrimePeriods._periods_mod

    def all_minus_one(self, e, bound):
        etas, mod = real(self, e, bound)
        return [mod - 1] * e, mod

    # periods all equal to -1: psi = (x + 1)^6 agrees with prod (1 - eta_i)
    # = 2^6, and every norm N_d is zero
    monkeypatch.setattr(PrimePeriods, "_periods_mod", all_minus_one)
    with pytest.raises(NotDivisible, match="zero"):
        classify(make_context(6, 3))


def test_index_from_norms_on_hand_made_lists():
    # e = 6, p = 13: m_d = 2, 3, 4, so k = 2 * 3 * sqrt(4); D has the sign
    # (-1)^3 sgn N_3, so delta > 0 asks for N_3 < 0
    assert _index_from_norms([26, -39, -52], FieldDiscriminant(1, 13, 5)) == 12
    assert _index_from_norms([26, -39, 52], FieldDiscriminant(-1, 13, 5)) == 12
    # odd e has no middle norm, and D > 0 whatever the signs
    assert _index_from_norms([-33, 22], FieldDiscriminant(1, 11, 4)) == 6
    # e = 1 has no norms at all
    assert _index_from_norms([], FieldDiscriminant(1, 3, 0)) == 1
    # e = 2: the one norm is the middle one, and D = -N_1 = 45
    assert _index_from_norms([-45], FieldDiscriminant(1, 5, 1)) == 3


@pytest.mark.parametrize(
    "norms, error, named",
    [
        ([26, -40, -52], NotDivisible, r"N_2 = -40 is not divisible by p = 13"),
        ([26, 0, -52], NotDivisible, r"N_2 is zero"),
        ([26, -39, -26], NotPerfectSquare, r"N_3 / p = 2 is not a square"),
        ([26, -39, 52], NotPerfectSquare, r"sign -1 by N_3 = 52"),
    ],
)
def test_index_from_norms_names_each_contradiction(norms, error, named):
    with pytest.raises(error, match=named):
        _index_from_norms(norms, FieldDiscriminant(1, 13, 5))


def test_closed_form_halving_is_the_reduced_cyclotomic_polynomial():
    for p in filter(is_prime, range(5, 601)):
        assert halved_cyclotomic_prime(p) == demoivre_reduce(cyclotomic_prime(p)), p


def test_matched_discriminant_is_the_field_discriminant_up_to_max_p(monkeypatch):
    import periodeq.monogeneity as mono_mod

    # classify takes k = 1 on a match, so D = delta: for every prime
    # p <= MAX_P, disc(Phi_p) = (-1)^((p-1)/2) p^(p-2) has the sign and
    # exponent of delta for (e, f) = (p - 1, 1), and disc of its halving,
    # p^(e-1) with e = (p - 1)/2, those of delta for f = 2; primes come from
    # a sieve, which field_discriminant reads too, and no power of p is formed
    sieve = bytearray([1]) * (MAX_P + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(MAX_P) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, MAX_P + 1, i)))
    primes = [p for p in range(3, MAX_P + 1, 2) if sieve[p]]
    assert (len(primes), primes[-1]) == (166080, 2249987)
    monkeypatch.setattr(mono_mod, "is_prime", sieve.__getitem__)
    for p in primes:
        direct = field_discriminant(p - 1, 1, p)
        assert (direct.sign, direct.exponent) == ((-1) ** ((p - 1) // 2), p - 2), p
        halved = field_discriminant((p - 1) // 2, 2, p)
        assert (halved.sign, halved.exponent) == (1, (p - 1) // 2 - 1), p


def test_classify_does_not_unfold(monkeypatch):
    import periodeq.intpoly as intpoly_mod
    import periodeq.monogeneity as mono_mod

    def no_unfold(R):
        raise AssertionError("classify unfolded psi")

    monkeypatch.setattr(intpoly_mod, "demoivre_unfold", no_unfold)
    monkeypatch.setattr(mono_mod, "demoivre_unfold", no_unfold, raising=False)
    for e in (2, 3, 5, 6, 8, 9, 11, 14, 15, 18):
        assert classify(make_context(e, 2)).match_kind is MatchKind.REDUCED_CYCLOTOMIC


# -- certificate of k != 1 -------------------------------------------------


def test_index_certificate_agrees_with_the_exact_index_up_to_p300():
    shared: dict[int, PrimePeriods] = {}
    certified = 0
    contexts = contexts_with_p_up_to(300)
    for ctx in contexts:
        if ctx.p not in shared:
            shared[ctx.p] = PrimePeriods(ctx.p, ctx.g)
        periods = shared[ctx.p]
        rec = classify(ctx, periods)
        cert = index_certificate(periods, ctx.e)
        # never a certificate for k = 1, and a fallback only for k = 1
        assert (cert is None) == (rec.k == 1), (ctx.e, ctx.f, rec.k)
        assert cert in (None, periods.residue_prime)
        certified += cert is not None
    assert len(contexts) == 514 and certified > 0


def test_classify_after_the_certificate_equals_a_fresh_classify():
    # the certificate reads the residue prime's table alone, and classify
    # builds its periods from the table modulo M whether or not the
    # certificate came first; f = 1 and 2 are the matched shapes, the rest not
    for p in (101, 193):
        divisors = [e for e in range(1, p) if (p - 1) % e == 0]
        shared = PrimePeriods(p, primitive_root(p))
        for e in divisors:
            index_certificate(shared, e)
        assert shared._width == 1  # no table modulo M yet
        kinds = set()
        for e in divisors:
            ctx = make_context(e, (p - 1) // e)
            rec = classify(ctx, shared)
            assert rec == classify(ctx), (p, e)
            kinds.add(rec.match_kind)
        assert kinds == set(MatchKind)
        assert shared._width > 1


def test_each_norm_is_a_multiple_of_p_and_k_is_1_iff_each_is_p():
    # every eta_i ≡ f mod (1 - zeta), so p | N_d = prod_i (eta_i - eta_(i+d)),
    # and |D| = prod over d of |N_d| = k^2 p^(e-1) with e - 1 factors
    shared: dict[int, PrimePeriods] = {}
    pairs = 0
    for ctx in contexts_with_p_up_to(300):
        if ctx.e < 2:
            continue
        if ctx.p not in shared:
            shared[ctx.p] = PrimePeriods(ctx.p, ctx.g)
        periods = shared[ctx.p]
        etas, mod = periods._periods_mod(ctx.e, (2 * ctx.f) ** ctx.e)
        norms = []
        for d in range(1, ctx.e // 2 + 1):
            norm = 1
            for a, b in zip(etas, etas[d:] + etas[:d]):
                norm = norm * (a - b) % mod
            norms.append(norm - mod if norm > mod // 2 else norm)
        assert all(norm % ctx.p == 0 for norm in norms), (ctx.e, ctx.f)
        rec = classify(ctx, periods)
        assert (rec.k == 1) == all(abs(norm) == ctx.p for norm in norms), (ctx.e, ctx.f)
        pairs += 1
    assert pairs == 514 - len(shared)


def _records_and_certificates():
    """classify's record of every pair with p <= 300, and whether
    index_certificate is None for every pair with e <= 100, p <= 260."""
    shared: dict[int, PrimePeriods] = {}
    records, uncertified = [], []
    for ctx in contexts_with_p_up_to(300):
        if ctx.p not in shared:
            shared[ctx.p] = PrimePeriods(ctx.p, ctx.g)
        records.append(classify(ctx, shared[ctx.p]))
        if ctx.e <= 100 and ctx.p <= 260:
            uncertified.append(index_certificate(shared[ctx.p], ctx.e) is None)
    return records, uncertified, shared


def test_one_digit_crt_primes_give_what_62_bit_primes_give(monkeypatch):
    import periodeq.number_theory as nt_mod
    import periodeq.periods as periods_mod

    records, uncertified, shared = _records_and_certificates()
    assert all(q < 2**30 for per in shared.values() for q in per._primes)
    monkeypatch.setattr(
        periods_mod,
        "primes_in_progression",
        lambda modulus: nt_mod.primes_in_progression(modulus, start=1 << 62),
    )
    wide_records, wide_uncertified, wide_shared = _records_and_certificates()
    assert all(q > 1 << 62 for per in wide_shared.values() for q in per._primes)
    assert len(records) == 514 and wide_records == records
    assert wide_uncertified == uncertified and 0 < sum(uncertified) < len(uncertified)


def test_residue_prime_is_one_digit():
    for p in (5, 7001, 99991):
        q = PrimePeriods(p, primitive_root(p)).residue_prime
        assert q < 2**30 and q % (2 * p) == 1, p


def test_index_certificate_checks_that_d_over_delta_is_a_square(monkeypatch):
    import periodeq.monogeneity as mono_mod

    periods = PrimePeriods(17, 3)
    q = periods.residue_prime
    assert index_certificate(periods, 4) == q  # (e, f) = (4, 4): k = 2
    # (2, 8): delta = +17 and k = 1, so eta_0 - eta_1 = r with r^2 = 17 mod q;
    # at e = 2 the one norm is N_1 = -(eta_0 - eta_1)^2 and D = -N_1
    a, b = periods.period_residues(2)
    r = (a - b) % q
    assert r * r % q == 17 and index_certificate(periods, 2) is None
    non_residue = next(n for n in range(2, q) if pow(n, (q - 1) // 2, q) == q - 1)
    # N_1 = -4 * 17 lies outside {17, -17}: D = 4 delta, the loop exits with q;
    # N_1 = -17: D = delta, and nothing is proven
    for etas, want in (([0, 2 * r % q], q), ([5, (5 + r) % q], None)):
        monkeypatch.setattr(periods, "period_residues", lambda e, etas=etas: etas)
        assert index_certificate(periods, 2) == want
    # N_1 = +17 passes the loop, but D = -N_1 = -17 has the sign opposite delta's
    monkeypatch.setattr(mono_mod, "galois_norms", lambda etas, mod: iter([17]))
    assert index_certificate(periods, 2) == q
    monkeypatch.setattr(mono_mod, "_delta_sign", lambda e, f: non_residue)
    with pytest.raises(InternalContradiction, match="not a square"):
        index_certificate(periods, 2)


def test_stickelberger_check_by_symbols_agrees_with_one_power_per_pair(monkeypatch):
    # (delta/q) = (sign/q) (p/q)^(e-1): the symbols, taken once per prime,
    # refuse exactly the sign * p^(e-1) whose Euler power is not 1, for delta's
    # own sign, the other one and a non-residue; a pair runs no pow of its own
    import periodeq.monogeneity as mono_mod
    import periodeq.periods as periods_mod

    calls = []

    def counted_pow(*args):
        calls.append(args)
        return pow(*args)

    raised = passed = 0
    for p in (13, 17, 43, 101, 193, 359):
        periods = PrimePeriods(p, primitive_root(p))
        q, divisors = periods.residue_prime, [d for d in range(1, p) if (p - 1) % d == 0]
        non_residue = next(n for n in range(2, q) if pow(n, (q - 1) // 2, q) == q - 1)
        monkeypatch.setattr(periods_mod, "pow", counted_pow, raising=False)
        monkeypatch.setattr(mono_mod, "pow", counted_pow, raising=False)
        calls.clear()
        for sign in (1, -1, non_residue):
            monkeypatch.setattr(mono_mod, "_delta_sign", lambda e, f, sign=sign: sign)
            for e in divisors:
                refused = pow(sign * pow(p, e - 1, q) % q, (q - 1) // 2, q) != 1
                try:
                    index_certificate(periods, e)
                except InternalContradiction as exc:
                    assert refused and "not a square" in str(exc), (p, e, sign)
                    raised += 1
                else:
                    assert not refused, (p, e, sign)
                    passed += 1
        assert len(calls) == len(periods._symbols) <= 4, p  # 1, -1, non_residue, p
        monkeypatch.undo()
        assert all(index_certificate(periods, e) in (None, q) for e in divisors)  # delta's own sign
    assert raised and passed
