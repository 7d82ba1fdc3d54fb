import random

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodeq.intpoly import (
    IntPoly,
    NotSelfReciprocal,
    NotSquarefree,
    OddDegree,
    Signature,
    cyclotomic_prime,
    demoivre_reduce,
    demoivre_unfold,
    discriminant,
    discriminant_and_signature,
    is_self_reciprocal,
    resultant,
    signature,
)
from periodeq.monogeneity import field_discriminant, index_squared
from periodeq.number_theory import CompositeP, is_prime, make_context
from periodeq.periods import period_polynomial_modular

x = sympy.symbols("x")


def to_sympy(P: IntPoly):
    return sympy.Poly(list(P.high_to_low()) or [0], x)


def from_sympy(expr) -> IntPoly:
    """An integer polynomial in x, built by sympy, as an IntPoly."""
    return IntPoly.from_high_to_low(int(c) for c in sympy.Poly(expr, x).all_coeffs())


def mul(*polys: IntPoly) -> IntPoly:
    return from_sympy(sympy.prod(to_sympy(P) for P in polys))


coeff = st.integers(min_value=-50, max_value=50)
small_poly = st.lists(coeff, min_size=1, max_size=8).map(IntPoly)
nonzero_poly = small_poly.filter(lambda P: not P.is_zero())
# mostly-zero bodies force degree drops >= 2 in the remainder chain
sparse_poly = st.builds(
    lambda body, lc: IntPoly(body + [lc]),
    st.lists(st.one_of(st.just(0), coeff), min_size=1, max_size=10),
    coeff.filter(bool),
)


def _det_bareiss(M):
    M = [row[:] for row in M]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[-1][-1]


def sylvester_resultant(P: IntPoly, Q: IntPoly) -> int:
    """Independent oracle: the Sylvester matrix determinant, computed exactly."""
    m, n = P.degree, Q.degree
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return P.coeffs[0] ** n
    if n == 0:
        return Q.coeffs[0] ** m
    size = m + n
    M = [[0] * size for _ in range(size)]
    a, b = P.high_to_low(), Q.high_to_low()
    for r in range(n):
        for j, c in enumerate(a):
            M[r][r + j] = c
    for r in range(m):
        for j, c in enumerate(b):
            M[n + r][r + j] = c
    return _det_bareiss(M)


# -- construction and derivative ---------------------------------------


def test_construction_trims_and_degree():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly(()).degree is None
    assert IntPoly((0, 0)).degree is None
    assert IntPoly((7,)).degree == 0
    assert IntPoly((0, 0, 3)).degree == 2
    with pytest.raises(ValueError):
        IntPoly(()).lc  # noqa: B018
    with pytest.raises(TypeError):
        IntPoly((1.5,))


def test_accessors():
    P = IntPoly((1, 2, 3))
    assert P.coeffs[0] == 1 and P.coeffs[2] == 3 and P.lc == 3
    assert P.high_to_low() == (3, 2, 1)
    assert IntPoly.from_high_to_low([3, 2, 1]) == P
    assert IntPoly.from_high_to_low([0, 0, 4]).coeffs == (4,)
    assert IntPoly(()).is_zero() and not P.is_zero()
    assert P.derivative().coeffs == (2, 6)
    assert IntPoly((7,)).derivative().is_zero()


@given(small_poly, small_poly)
def test_derivative_product_rule(P, Q):
    # derivative against sympy's diff, on P, Q and their product
    PQ = mul(P, Q)
    for R in (P, Q, PQ):
        assert to_sympy(R.derivative()) == to_sympy(R).diff(x)
    dP, dQ = to_sympy(P.derivative()), to_sympy(Q.derivative())
    assert to_sympy(PQ.derivative()) == dP * to_sympy(Q) + to_sympy(P) * dQ


def test_to_str():
    assert IntPoly(()).to_str() == "0"
    assert IntPoly((5,)).to_str() == "5"
    assert IntPoly((-5,)).to_str() == "-5"
    assert IntPoly((0, -1)).to_str() == "-x"
    assert IntPoly((0, 2)).to_str() == "2x"
    assert IntPoly((1, 0, 0, 1)).to_str() == "x^3+1"
    assert IntPoly((-1, 0, 1)).to_str() == "x^2-1"
    assert IntPoly((-7, 1, -3)).to_str() == "-3x^2+x-7"
    assert IntPoly((1, 3, -3, -4, 1, 1)).to_str() == "x^5+x^4-4x^3-3x^2+3x+1"


def test_cyclotomic_prime():
    assert cyclotomic_prime(2).coeffs == (1, 1)
    assert cyclotomic_prime(7).coeffs == (1,) * 7
    with pytest.raises(CompositeP):
        cyclotomic_prime(9)


# -- resultants ---------------------------------------------------------


def test_resultant_fixed_cases():
    assert resultant(IntPoly((-2, 1)), IntPoly((-3, 1))) == -1
    assert resultant(IntPoly((1, 0, 1)), IntPoly((0, 1))) == 1
    assert resultant(IntPoly((-2, 1)), IntPoly((1, 0, 1))) == 5
    assert resultant(IntPoly((5,)), IntPoly((1, 2, 3))) == 25
    # shared root x = 1
    shared = resultant(from_sympy((x - 1) * (x + 2)), from_sympy((x - 1) * (x + 3)))
    assert shared == 0


def test_resultant_rejects_zero():
    with pytest.raises(ValueError):
        resultant(IntPoly(()), IntPoly((1, 1)))


@given(nonzero_poly, nonzero_poly)
@settings(max_examples=150)
def test_resultant_matches_sylvester_determinant(P, Q):
    want = sylvester_resultant(P, Q)
    assert resultant(P, Q) == want


@given(nonzero_poly, nonzero_poly, nonzero_poly)
@settings(max_examples=80)
def test_resultant_multiplicative(P, Q, R):
    PQ = mul(P, Q)
    assert resultant(PQ, R) == sylvester_resultant(PQ, R) == resultant(P, R) * resultant(Q, R)


def test_engine_agreement_bulk():
    # the subresultant chain against the Sylvester determinant, degree <= 30
    rng = random.Random(20260814)
    for _ in range(200):
        dP, dQ = rng.randint(1, 30), rng.randint(1, 30)
        P = IntPoly(
            [rng.randint(-(10**6), 10**6) for _ in range(dP)] + [rng.randint(1, 10**6)]
        )
        Q = IntPoly(
            [rng.randint(-(10**6), 10**6) for _ in range(dQ)] + [rng.randint(1, 10**6)]
        )
        assert resultant(P, Q) == sylvester_resultant(P, Q)


# -- discriminants ------------------------------------------------------


def test_discriminant_fixed_cases():
    assert discriminant(IntPoly((-1, 1, 1))) == 5
    assert discriminant(IntPoly((-8, -2, -1, 1))) == -2012
    assert discriminant(IntPoly((3, 1))) == 1
    double_root = from_sympy((x - 1) ** 2 * (x + 2))
    assert discriminant(double_root) == 0
    with pytest.raises(ValueError):
        discriminant(IntPoly((5,)))


def test_discriminant_of_prime_cyclotomics():
    # known closed form: (-1)^((p-1)/2) * p^(p-2)
    for p in (3, 5, 7, 11, 13):
        want = (-1) ** ((p - 1) // 2) * p ** (p - 2)
        assert discriminant(cyclotomic_prime(p)) == want


def test_discriminant_of_halved_cyclotomic_17():
    psi8 = demoivre_reduce(cyclotomic_prime(17))
    assert discriminant(psi8) == 17**7


@given(small_poly.filter(lambda P: P.degree is not None and P.degree >= 2))
@settings(max_examples=150)
def test_discriminant_matches_sylvester_oracle(P):
    n = P.degree
    r = sylvester_resultant(P, P.derivative())
    want = (-1) ** (n * (n - 1) // 2) * (r // P.lc)
    assert discriminant(P) == want


# -- signatures ---------------------------------------------------------


def test_signature_fixed_cases():
    assert signature(IntPoly((1, 0, 1))) == Signature(0, 1)
    assert signature(cyclotomic_prime(5)) == Signature(0, 2)
    assert signature(demoivre_reduce(cyclotomic_prime(11))) == Signature(5, 0)
    assert signature(IntPoly((-2, 0, 1))) == Signature(2, 0)
    assert signature(IntPoly((0, -1, 0, 1))) == Signature(3, 0)
    assert signature(IntPoly((3, 1))) == Signature(1, 0)


def test_signature_rejects_non_squarefree():
    with pytest.raises(NotSquarefree):
        signature(from_sympy((x - 1) ** 2 * (x + 2)))
    with pytest.raises(NotSquarefree):
        signature(IntPoly((0, 0, 1)))
    with pytest.raises(NotSquarefree):
        signature(from_sympy((x**2 + 1) ** 2))
    with pytest.raises(ValueError):
        signature(IntPoly((3,)))


@given(st.sets(st.integers(min_value=-40, max_value=40), min_size=1, max_size=7))
def test_signature_on_distinct_linear_products(roots):
    P = from_sympy(sympy.prod(x - r for r in roots))
    assert signature(P) == Signature(len(roots), 0)


@given(
    st.sets(st.integers(min_value=-20, max_value=20), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=6),
)
def test_signature_with_forced_complex_pairs(roots, shift):
    # x^2 + c with c > 0 contributes one complex pair and no real roots
    Q = from_sympy(sympy.prod(x - r for r in roots) * (x**2 + shift))
    if discriminant(Q) != 0:
        assert signature(Q) == Signature(len(roots), 1)


@given(small_poly.filter(lambda P: P.degree is not None and P.degree >= 1))
@settings(max_examples=100)
def test_signature_matches_sympy_real_root_count(P):
    if discriminant(P) == 0:
        return
    sig = signature(P)
    assert sig.n_real + 2 * sig.n_complex_pairs == P.degree
    assert sig.n_real == sympy.Poly(to_sympy(P).as_expr(), x).count_roots()


# -- discriminant and signature from one chain ----------------------------


@given(sparse_poly)
@settings(max_examples=200)
def test_discriminant_and_signature_match_sympy(P):
    want = sympy.discriminant(to_sympy(P))
    assume(want != 0)
    disc, sig = discriminant_and_signature(P)
    assert disc == want
    assert sig.n_real == to_sympy(P).count_roots()
    assert sig.n_real + 2 * sig.n_complex_pairs == P.degree


def test_discriminant_and_signature_of_binomials():
    # c*x^n + d: the chain drops from degree n - 1 straight to a constant.
    # disc = (-1)^(n(n-1)/2) n^n c^(n-1) d^(n-1); the real roots solve x^n = -d/c.
    for n in range(1, 13):
        for c in (1, -1, 3, -4):
            for d in (1, -1, 5, -6):
                P = IntPoly((d,) + (0,) * (n - 1) + (c,))
                want = (-1) ** (n * (n - 1) // 2) * n**n * c ** (n - 1) * d ** (n - 1)
                n_real = 1 if n & 1 else (2 if c * d < 0 else 0)
                assert discriminant_and_signature(P) == (want, Signature(n_real, (n - n_real) // 2))
        if n >= 2:
            with pytest.raises(NotSquarefree):
                discriminant_and_signature(IntPoly((0,) * n + (-3,)))
    with pytest.raises(ValueError):
        discriminant_and_signature(IntPoly((3,)))


def test_discriminant_and_signature_on_period_polynomials():
    for p in filter(is_prime, range(3, 301)):
        for e in [d for d in range(1, p) if (p - 1) % d == 0]:
            f = (p - 1) // e
            P = period_polynomial_modular(make_context(e, f)).poly
            disc, sig = discriminant_and_signature(P)
            assert (disc, sig) == (discriminant(P), signature(P)), (e, f)
            # independent checks: the parity law, and D = k^2 * (+-p^(e-1))
            assert sig.n_real == (e if f % 2 == 0 else 0), (e, f)
            index_squared(disc, field_discriminant(e, f, p))


# -- palindromic reduction ----------------------------------------------


def test_is_self_reciprocal():
    assert is_self_reciprocal(IntPoly((1, 2, 1)))
    assert is_self_reciprocal(IntPoly((1,) * 11))
    assert not is_self_reciprocal(IntPoly((1, 2, 3)))
    assert is_self_reciprocal(IntPoly(()))


def test_reduce_worked_examples():
    assert demoivre_reduce(cyclotomic_prime(11)) == IntPoly((1, 3, -3, -4, 1, 1))
    assert demoivre_reduce(cyclotomic_prime(11)).to_str() == "x^5+x^4-4x^3-3x^2+3x+1"
    assert (
        demoivre_reduce(cyclotomic_prime(17)).to_str()
        == "x^8+x^7-7x^6-6x^5+15x^4+10x^3-10x^2-4x+1"
    )
    assert demoivre_reduce(IntPoly((1, 0, 1))) == IntPoly((0, 1))


def test_reduce_errors():
    with pytest.raises(NotSelfReciprocal):
        demoivre_reduce(IntPoly((3, 2, 1)))
    with pytest.raises(OddDegree):
        demoivre_reduce(IntPoly((1, 0, 0, 1)))
    with pytest.raises(ValueError):
        demoivre_reduce(IntPoly(()))


def test_unfold_fixed_cases():
    assert demoivre_unfold(IntPoly((0, 1))) == IntPoly((1, 0, 1))
    assert demoivre_unfold(IntPoly((-2, 0, 1))) == IntPoly((1, 0, 0, 0, 1))
    assert demoivre_unfold(demoivre_reduce(cyclotomic_prime(11))) == cyclotomic_prime(11)
    with pytest.raises(ValueError):
        demoivre_unfold(IntPoly((4,)))


def test_round_trip_up_to_degree_200():
    rng = random.Random(11)
    for e in range(1, 201):
        R = IntPoly([rng.randint(-9, 9) for _ in range(e)] + [rng.randint(1, 9)])
        P = demoivre_unfold(R)
        assert is_self_reciprocal(P)
        assert P.degree == 2 * e
        assert demoivre_reduce(P) == R
    # opposite direction: even-degree palindromes built directly
    for e in range(1, 201):
        half = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(e - 1)]
        mid = rng.randint(-9, 9)
        pal = IntPoly(half + [mid] + list(reversed(half)))
        assert demoivre_unfold(demoivre_reduce(pal)) == pal


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=12))
def test_unfold_reduce_round_trip(body):
    R = IntPoly(body + [1])
    assert demoivre_reduce(demoivre_unfold(R)) == R
