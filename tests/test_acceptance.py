"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output block) and asserts the same condition, so the suite both
documents and enforces every headline claim of the package.
"""

import hashlib
import time

import pytest

from periodeq.cli import main, records_to_csv
from periodeq.intpoly import (
    IntPoly,
    cyclotomic_prime,
    demoivre_reduce,
    demoivre_unfold,
    discriminant,
    signature,
)
from periodeq.monogeneity import FieldDiscriminant, classify, index_squared
from periodeq.number_theory import is_prime, make_context, primitive_root
from periodeq.periods import PrimePeriods, period_polynomial_exact, period_polynomial_modular
from periodeq.scanner import ScanSpec, census, cubic_growth, doublet_survey, missing_e_census, scan

EXPECTED_MISSING_E_100 = (
    7, 13, 17, 19, 24, 25, 27, 31, 32, 34, 37, 38, 43, 45, 47, 49, 55, 57,
    59, 61, 62, 64, 67, 71, 73, 76, 77, 79, 80, 84, 85, 87, 91, 92, 93, 94, 97,
)

EXPECTED_DOUBLETS_330 = (6, 18, 30, 36, 78, 96, 138, 156, 198, 210, 228, 270, 306, 330)


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"acceptance criterion {num}: {desc}"


@pytest.fixture(scope="module")
def sweep_one_worker():
    t0 = time.monotonic()
    result = scan(ScanSpec(e_min=4, e_max=60, p_bound=5000, worker_count=1))
    return result, time.monotonic() - t0


@pytest.fixture(scope="module")
def small_p_polynomials():
    """Exact and modular builds for every (e, f) with p = e*f + 1 <= 300."""
    out = []
    for p in range(3, 301):
        if is_prime(p):
            for e in range(1, p):
                if (p - 1) % e == 0:
                    ctx = make_context(e, (p - 1) // e)
                    out.append(
                        (
                            ctx,
                            period_polynomial_exact(ctx).poly,
                            period_polynomial_modular(ctx).poly,
                        )
                    )
    return out


def test_01_reference_table_regenerates(capsys):
    t0 = time.monotonic()
    code = main(["table1"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    ok = code == 0 and "24 rows checked, 24 pass, 0 fail" in out and elapsed < 60
    with capsys.disabled():
        report(1, ok, f"all 24 pinned table rows regenerate exactly ({elapsed:.1f}s < 60s)")


def test_02_sweep_has_no_counterexamples(sweep_one_worker):
    result, elapsed = sweep_one_worker
    ok = result.counterexamples == () and elapsed < 1800
    report(
        2,
        ok,
        f"e in [4,60], p <= 5000: {len(result.records)} pairs, "
        f"0 counterexamples ({elapsed:.0f}s < 1800s)",
    )


def test_02_sweep_csv_keeps_its_bytes(sweep_one_worker):
    # the sha256 of `scan --e-range 4:60 --p-bound 5000`'s CSV, taken at
    # commit 8527a90
    result, _ = sweep_one_worker
    digest = hashlib.sha256(records_to_csv(result.records).encode()).hexdigest()
    assert digest == "ca3aefaa48ee2ccd418ed78935a317b0d7b5a5353c1e8ccffe4392124cb9869e"


def test_03_missing_e_census_matches():
    missing = missing_e_census(100, 2000)
    counterexamples = census(ScanSpec(4, 100, 2000)).counterexamples
    ok = missing == EXPECTED_MISSING_E_100 and len(missing) == 37 and counterexamples == ()
    report(
        3,
        ok,
        "census of e <= 100 with no monogenic f (p <= 2000) equals the frozen 37-element list, "
        "with 0 counterexamples",
    )


def _index_is_one_by_norms(e: int, f: int) -> bool:
    """k = 1 for (e, f) from the Galois norms of its periods, |N_d| = p for
    every d: the path of f >= 3, which knows nothing of the closed forms."""
    p = e * f + 1
    norms, _ = PrimePeriods(p, primitive_root(p)).norms(e)
    return all(abs(norm) == p for norm in norms)


def test_04_doublet_surveys():
    seq = doublet_survey(330)
    count_from_4 = len(doublet_survey(10**4))
    count_from_2 = len(doublet_survey(10**4, e_min=2))
    by_norms = tuple(
        e for e in range(4, 151) if all(is_prime(e * f + 1) and _index_is_one_by_norms(e, f) for f in (1, 2))
    )
    ok = (
        seq == EXPECTED_DOUBLETS_330
        and count_from_4 == 187
        and count_from_2 == 188
        and doublet_survey(150) == by_norms
    )
    report(
        4,
        ok,
        "doublet sequence to 330 matches; counting e in [4, 10^4] gives 187 "
        f"(from e=2 it is {count_from_2}, so the 187 figure uses e >= 4); "
        "for e <= 150 the doublets are the e whose pairs (e, 1) and (e, 2) both "
        "exist and have every Galois norm of their periods equal to +-p",
    )


def test_05_degree_halving_worked_examples():
    quintic = IntPoly((1, 3, -3, -4, 1, 1))
    octic = period_polynomial_modular(make_context(8, 2)).poly
    checks = [
        demoivre_reduce(cyclotomic_prime(11)) == quintic,
        demoivre_reduce(cyclotomic_prime(17)) == octic,
        demoivre_unfold(quintic) == cyclotomic_prime(11),
        demoivre_reduce(IntPoly((1, 0, 1))) == IntPoly((0, 1)),
    ]
    report(5, all(checks), "x + 1/x halving reproduces the degree 5 and 8 worked examples both ways")


def test_06_index_form_example():
    P = IntPoly((-8, -2, -1, 1))
    D = discriminant(P)
    k2, k = index_squared(D, FieldDiscriminant(-1, 503, 1))
    ok = D == -2012 and (k2, k) == (4, 2)
    report(6, ok, "x^3-x^2-2x-8 has discriminant -2012 = 2^2 * (-503), index 2")


def test_07_dual_construction_equivalence(small_p_polynomials):
    bad = [(c.e, c.f) for c, a, b in small_p_polynomials if a != b]
    report(
        7,
        not bad,
        f"exact and modular constructions agree on all {len(small_p_polynomials)} "
        "pairs with p <= 300",
    )


def test_08_signature_parity_law(small_p_polynomials):
    bad = []
    for ctx, poly, _ in small_p_polynomials:
        sig = signature(poly)
        want_real = ctx.e if ctx.f % 2 == 0 else 0
        if sig.n_real != want_real or sig.n_real + 2 * sig.n_complex_pairs != ctx.e:
            bad.append((ctx.e, ctx.f))
    report(
        8,
        not bad,
        "computed signatures obey the parity law (all roots real iff f even) for p <= 300",
    )


def test_09_quadratics_always_monogenic():
    bad = []
    for f in range(1, 5000):
        p = 2 * f + 1
        if p <= 10**4 and is_prime(p):
            rec = classify(make_context(2, f))
            if not rec.monogenic:
                bad.append(p)
    report(9, not bad, "every quadratic period polynomial with p <= 10^4 is monogenic")


def test_10_cubic_growth_curve():
    rep = cubic_growth(10**4)
    counts = [c for _, c in rep.checkpoints]
    increasing = all(a < b for a, b in zip(counts, counts[1:]))
    ok = (
        increasing
        and rep.slope is not None
        and rep.slope > 0
        and rep.slope == rep.slope  # not NaN
    )
    report(
        10,
        ok,
        f"monogenic cubic counts rise through checkpoints {rep.checkpoints} "
        f"with log-log slope {rep.slope:.3f} > 0",
    )


def test_11_worker_count_does_not_change_bytes(sweep_one_worker):
    result_w1, _ = sweep_one_worker
    result_w8 = scan(ScanSpec(e_min=4, e_max=60, p_bound=5000, worker_count=8))
    csv_w1 = records_to_csv(result_w1.records)
    csv_w8 = records_to_csv(result_w8.records)
    report(
        11,
        csv_w1 == csv_w8,
        "sweep rerun with 1 and 8 workers serializes to byte-identical CSV",
    )


def test_12_census_reaches_the_papers_degree_250():
    # e has a monogenic psi_e exactly when f = 1 or f = 2 gives a prime
    # p = e*f + 1 within the bound (the paper's theorem, shown for e <= 250)
    t0 = time.monotonic()
    missing = missing_e_census(250, 503)
    elapsed = time.monotonic() - t0
    want = tuple(
        e for e in range(4, 251)
        if not any(e * f + 1 <= 503 and is_prime(e * f + 1) for f in (1, 2))
    )
    counterexamples = census(ScanSpec(4, 250, 503)).counterexamples
    ok = missing == want and counterexamples == () and elapsed < 30
    report(
        12,
        ok,
        f"census of e <= 250 (p <= 503) misses exactly the {len(want)} e with neither "
        f"e + 1 nor 2e + 1 a prime, with 0 counterexamples ({elapsed:.1f}s < 30s)",
    )
