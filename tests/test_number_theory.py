import random
import time

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import periodeq.number_theory as nt
from periodeq.number_theory import (
    CRT_PRIME_FLOOR,
    MAX_P,
    PRIME_TEST_BOUND,
    SMALL_WITNESS_BOUND,
    TRIAL_LIMIT,
    CompositeP,
    InvalidContext,
    factorize,
    is_prime,
    is_primitive_root,
    make_context,
    prime_flags,
    primes_in_progression,
    primitive_root,
)

CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265]


def test_is_prime_small_range():
    for n in range(-5, 2000):
        assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10**4])
def test_prime_flags_is_is_prime_on_the_range(n):
    assert list(prime_flags(n)) == [int(is_prime(m)) for m in range(n + 1)]


def test_prime_flags_stays_inside_max_p():
    assert prime_flags(MAX_P)[2249987] and not prime_flags(MAX_P)[MAX_P]
    for n in (-1, MAX_P + 1):
        with pytest.raises(InvalidContext):
            prime_flags(n)


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
    # both are far above MAX_P, which make_context refuses first
    with pytest.raises(InvalidContext, match="MAX_P"):
        make_context(1, psi12 - 1)
    with pytest.raises(InvalidContext, match="MAX_P"):
        make_context(2, (PRIME_TEST_BOUND - 1) // 2)


def test_four_witnesses_decide_below_jaeschkes_bound(monkeypatch):
    # the least strong pseudoprimes to 2, 3, 5 and to 2, 3, 5, 7 (Jaeschke
    # 1993); the second is the bound itself, where all 13 witnesses take over
    assert 25326001 == 2251 * 11251 and not is_prime(25326001)
    assert SMALL_WITNESS_BOUND == 151 * 751 * 28351 and not is_prime(SMALL_WITNESS_BOUND)
    rng = random.Random(20260)
    ns = [rng.randrange(SMALL_WITNESS_BOUND) | 1 for _ in range(3000)]
    ns += list(range(SMALL_WITNESS_BOUND - 400, SMALL_WITNESS_BOUND, 2))
    fast = [is_prime(n) for n in ns]
    monkeypatch.setattr(nt, "_SMALL_WITNESSES", nt._MR_WITNESSES)
    assert fast == [is_prime(n) for n in ns]
    assert sum(fast) > 100


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


# the two primes above 2^40; 2 * Q1 * Q2 + 1 is an 82-bit prime
Q1, Q2 = 1099511627791, 1099511628401


def test_factorize_refuses_a_product_of_two_40_bit_primes():
    # trial division to TRIAL_LIMIT cannot split a composite with two larger
    # prime factors, and factorize refuses it; a prime cofactor is kept
    assert is_prime(2 * Q1 * Q2 + 1)
    for n in (2 * Q1 * Q2, Q1 * Q2, Q1 * Q1, 7 * 65537 * Q1, Q2 * Q1 * 3):
        with pytest.raises(ValueError, match="no prime factor up to TRIAL_LIMIT"):
            factorize(n)
    assert factorize(2 * Q1) == {2: 1, Q1: 1}
    assert factorize(7 * 65537) == {7: 1, 65537: 1}


def test_factorize_refuses_a_cofactor_beyond_the_prime_test_bound_quickly():
    # both factors of PRIME_TEST_BOUND are above TRIAL_LIMIT, so trial
    # division leaves the whole bound as the cofactor, which is refused
    low, high = 1287836182261, 2575672364521
    assert low * high == PRIME_TEST_BOUND and TRIAL_LIMIT < low < high
    assert sympy.isprime(low) and sympy.isprime(high)
    start = time.perf_counter()
    for n in (PRIME_TEST_BOUND, 7 * PRIME_TEST_BOUND):
        with pytest.raises(ValueError):
            factorize(n)
    assert time.perf_counter() - start < 1.0
    # a large n whose cofactor trial division finishes is still factored
    assert factorize(2**100) == {2: 100}
    assert factorize(3**60 * 65521) == {3: 60, 65521: 1}


# a prime above TRIAL_LIMIT, so that a product of two is a composite that
# trial division cannot finish
big_primes = st.integers(min_value=TRIAL_LIMIT, max_value=2**40).map(sympy.nextprime)


@given(st.one_of(st.integers(min_value=1, max_value=TRIAL_LIMIT**2 - 1), st.tuples(big_primes, big_primes)))
@example(65521 * 65519)
@example(TRIAL_LIMIT**2 - 1)
@example(4294967291)
@example(10**9 + 7)
@settings(max_examples=100, deadline=None)
def test_factorize_matches_sympy_below_2_32_and_refuses_two_large_factors(n):
    if isinstance(n, tuple):
        with pytest.raises(ValueError, match="no prime factor up to TRIAL_LIMIT"):
            factorize(n[0] * n[1])
        return
    facs = factorize(n)
    assert facs == sympy.factorint(n)
    assert list(facs) == sorted(facs)


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
    for n in (15, 9, 1, 0):
        with pytest.raises(CompositeP, match=f"{n} is not prime"):
            primitive_root(n)
    with pytest.raises(InvalidContext):
        primitive_root(2)
    with pytest.raises(InvalidContext, match="above MAX_P"):
        primitive_root(PRIME_TEST_BOUND)


def test_make_context_examples():
    ctx = make_context(5, 2)
    assert (ctx.p, ctx.e, ctx.f, ctx.g) == (11, 5, 2, 2)

    ctx = make_context(4, 1)
    assert (ctx.p, ctx.g) == (5, 2)

    ctx = make_context(2, 1124993)  # the largest prime <= MAX_P
    assert (ctx.p, ctx.g) == (2249987, 2)

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


def test_is_primitive_root_is_the_order_definition():
    for p in filter(is_prime, range(3, 200)):
        for g in range(-2, p + 3):
            assert is_primitive_root(g, p) == (0 < g < p and _order(g, p) == p - 1), (g, p)
    # p must be an odd prime <= MAX_P
    for n in (-7, 0, 1, 2, 4, 9, 15, 561, 1105, 100000000005083, PRIME_TEST_BOUND, PRIME_TEST_BOUND + 2):
        assert not any(is_primitive_root(g, n) for g in (-1, 0, 1, 2, 3, 5, n - 1, n, n + 1))
    # the largest prime <= MAX_P is a safe prime: p - 1 = 2 * 1124993
    assert is_primitive_root(2, 2249987) and not is_primitive_root(4, 2249987)
