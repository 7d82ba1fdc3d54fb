import pickle

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from periodeq.intpoly import IntPoly, Signature
from periodeq.monogeneity import (
    ClassificationRecord,
    FieldDiscriminant,
    MatchKind,
    NotDivisible,
    NotPerfectSquare,
    classify,
    field_discriminant,
    index_squared,
)
from periodeq.number_theory import InternalContradiction, InvalidContext, is_prime, make_context
from periodeq.periods import PrimePeriods, period_polynomial_modular


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
        b, c, d = rec.psi[2], rec.psi[1], rec.psi[0]
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
    rec = classify(make_context(5, 2))
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_match_requires_exact_polynomial():
    rec = classify(make_context(8, 2))
    assert rec.match_kind is MatchKind.REDUCED_CYCLOTOMIC
    assert rec.psi == period_polynomial_modular(make_context(8, 2)).poly


def test_classify_uses_shared_periods_of_its_own_p():
    ctx = make_context(6, 3)
    assert classify(ctx, PrimePeriods(19, 3)) == classify(ctx)
    with pytest.raises(InvalidContext):
        classify(ctx, PrimePeriods(13, 2))


def test_classify_checks_parity_law(monkeypatch):
    import periodeq.monogeneity as mono_mod

    real = mono_mod.discriminant_and_signature

    def wrong_signature(psi):
        disc, sig = real(psi)
        return disc, Signature(sig.n_real - 2, sig.n_complex_pairs + 1)

    monkeypatch.setattr(mono_mod, "discriminant_and_signature", wrong_signature)
    with pytest.raises(InternalContradiction, match="parity law"):
        classify(make_context(4, 4))
