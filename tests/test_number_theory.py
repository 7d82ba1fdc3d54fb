import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from periodeq.number_theory import (
    CRT_PRIME_FLOOR,
    PRIME_TEST_BOUND,
    CompositeP,
    InvalidContext,
    factorize,
    is_prime,
    make_context,
    primes_in_progression,
    primitive_root,
)

CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265]


def test_is_prime_small_range():
    for n in range(-5, 2000):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_rejects_carmichael_numbers():
    for n in CARMICHAELS:
        assert not is_prime(n)


def test_is_prime_near_word_boundary():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)
    assert is_prime(4611686018427388039)  # first prime above 2^62
    for n in range(2**62, 2**62 + 60):
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_exact_up_to_its_bound():
    # strong pseudoprime to every base 2..37 (Sorenson-Webster psi_12)
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    for n in range(PRIME_TEST_BOUND - 300, PRIME_TEST_BOUND):
        assert is_prime(n) == sympy.isprime(n), n
    with pytest.raises(ValueError):
        is_prime(PRIME_TEST_BOUND)
    with pytest.raises(CompositeP):
        make_context(1, psi12 - 1)
    with pytest.raises(InvalidContext):
        make_context(2, (PRIME_TEST_BOUND - 1) // 2)


@given(st.integers(min_value=0, max_value=10**12))
@settings(max_examples=200)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(10**9 + 7) == {10**9 + 7: 1}
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=150)
def test_factorize_reconstructs_and_is_prime(n):
    facs = factorize(n)
    prod = 1
    for q, k in facs.items():
        assert is_prime(q)
        assert k >= 1
        prod *= q**k
    assert prod == n


def _order(a, p):
    k, x = 1, a % p
    while x != 1:
        x = x * a % p
        k += 1
    return k


def test_primitive_root_is_smallest():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 191, 409]:
        g = primitive_root(p)
        assert _order(g, p) == p - 1
        for smaller in range(2, g):
            assert _order(smaller, p) != p - 1


def test_primitive_root_rejects_composites():
    with pytest.raises(CompositeP):
        primitive_root(15)


def test_make_context_examples():
    ctx = make_context(5, 2)
    assert (ctx.p, ctx.e, ctx.f, ctx.g) == (11, 5, 2, 2)

    ctx = make_context(4, 1)
    assert (ctx.p, ctx.g) == (5, 2)

    with pytest.raises(CompositeP, match="9 is not prime"):
        make_context(4, 2)


def test_make_context_rejects_bad_parameters():
    for e, f in [(0, 3), (3, 0), (-1, 2), (2, -1)]:
        with pytest.raises(InvalidContext):
            make_context(e, f)
    with pytest.raises(InvalidContext):
        make_context(1, 1)  # p = 2 has no usable root of unity ring here


def test_primes_in_progression():
    gen = primes_in_progression(11)
    qs = [next(gen) for _ in range(4)]
    assert qs == sorted(qs)
    for q in qs:
        assert q % 11 == 1
        assert q > CRT_PRIME_FLOOR
        assert sympy.isprime(q)
    with pytest.raises(ValueError):
        next(primes_in_progression(0))


def test_primes_in_progression_small_start():
    gen = primes_in_progression(5, start=10)
    assert [next(gen) for _ in range(3)] == [11, 31, 41]
