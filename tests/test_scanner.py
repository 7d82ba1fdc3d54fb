import hashlib
import math
import os
import pickle
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from periodeq.intpoly import IntPoly, Signature
from periodeq.monogeneity import ClassificationRecord, FieldDiscriminant, MatchKind, classify
import periodeq
from periodeq.cli import records_to_csv
from periodeq.number_theory import PRIME_TEST_BOUND, InvalidContext, is_prime, make_context
from periodeq.periods import MAX_TABLE_ENTRIES, PrimePeriods
from periodeq.scanner import (
    CubicGrowthReport,
    ScanFailure,
    ScanSpec,
    census,
    cubic_growth,
    doublet_survey,
    is_counterexample,
    missing_e_census,
    scan,
    scan_tasks,
    summarize,
)


def test_scan_spec_validation():
    with pytest.raises(InvalidContext):
        ScanSpec(5, 4, 100)
    with pytest.raises(InvalidContext):
        ScanSpec(0, 4, 100)
    with pytest.raises(InvalidContext):
        ScanSpec(4, 6, 2)
    with pytest.raises(InvalidContext):
        ScanSpec(4, 6, PRIME_TEST_BOUND)
    with pytest.raises(InvalidContext):
        ScanSpec(4, 6, 100, worker_count=0)
    with pytest.raises(InvalidContext):
        ScanSpec(4, 100, 100)  # no e >= p_bound has a pair
    # the largest p whose g table and one CRT table fit the table budget
    top = MAX_TABLE_ENTRIES // 2 + 1
    assert ScanSpec(4, 6, top).p_bound == top
    with pytest.raises(InvalidContext, match="table budget MAX_TABLE_ENTRIES"):
        ScanSpec(4, 6, top + 1)


def test_scan_tasks_enumeration():
    tasks = scan_tasks(ScanSpec(4, 6, 20))
    assert tasks == [(4, 1), (4, 3), (4, 4), (5, 2), (6, 1), (6, 2), (6, 3)]
    assert scan_tasks(ScanSpec(1, 1, 3)) == [(1, 2)]  # p = 2 is skipped, p = 3 kept


def test_small_full_scan_report():
    report = scan(ScanSpec(4, 6, 20))
    keyed = {(r.e, r.f): r for r in report.records}
    assert list(keyed) == [(4, 1), (4, 3), (4, 4), (5, 2), (6, 1), (6, 2), (6, 3)]
    assert [r.p for r in report.records] == [5, 13, 17, 11, 7, 13, 19]
    assert report.monogenic_map == {4: (1,), 5: (2,), 6: (1, 2)}
    assert report.missing_e == ()
    assert report.doublets == (6,)
    assert report.counterexamples == ()
    assert keyed[(4, 4)].k == 2 and not keyed[(4, 4)].monogenic
    assert keyed[(6, 2)].match_kind is MatchKind.REDUCED_CYCLOTOMIC
    assert summarize(report.spec, reversed(report.records), report.pairs).doublets == (6,)


def test_scan_bytes_where_the_bounds_take_fewest_primes():
    # e <= 12 with f up to 4999: the bounds of the exact build shrink the
    # CRT modulus most where f is large, and the CSV bytes must not move;
    # the digest was taken from the build with worst-case bounds
    report = scan(ScanSpec(1, 12, 5000))
    assert len(report.records) == 3256
    text = records_to_csv(report.records)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "50291a46e42361ca118fb0a24aac6d0ffcb23f264e7f58af169806b08c4253b6"
    )


def test_scan_worker_determinism():
    # in the second spec p = 61 serves nine e, all from one PrimePeriods
    for e_min, e_max, p_bound in ((4, 10, 100), (4, 60, 62)):
        tasks = scan_tasks(ScanSpec(e_min, e_max, p_bound))
        r1, r2, r8 = (scan(ScanSpec(e_min, e_max, p_bound, worker_count=w)) for w in (1, 2, 8))
        assert r1.records == r2.records == r8.records
        assert r1.missing_e == r2.missing_e == r8.missing_e
        assert r1.records == tuple(classify(make_context(e, f)) for e, f in tasks)
    assert [e for e, f in tasks if e * f + 1 == 61] == [4, 5, 6, 10, 12, 15, 20, 30, 60]


def test_fast_doublet_candidates():
    # the candidates of the primality rule are the doublets themselves
    assert doublet_survey(40) == (6, 18, 30, 36)
    assert doublet_survey(40, e_min=2) == (2, 6, 18, 30, 36)
    assert doublet_survey(17, e_min=7) == ()


def test_doublet_survey_is_the_primality_rule():
    twin = tuple(e for e in range(4, 1001) if is_prime(e + 1) and is_prime(2 * e + 1))
    assert doublet_survey(1000) == twin


def test_doublet_survey_modes_agree():
    # the primality rule agrees with classifying every pair: the doublets of a
    # scan to e = 40 are its e, with (e, 1) a direct and (e, 2) a reduced match
    report = scan(ScanSpec(4, 40, 2 * 40 + 2))
    assert doublet_survey(40) == report.doublets == (6, 18, 30, 36)
    kinds = {(r.e, r.f): r.match_kind for r in report.records if r.monogenic}
    for e in report.doublets:
        assert kinds[(e, 1)] is MatchKind.DIRECT_CYCLOTOMIC
        assert kinds[(e, 2)] is MatchKind.REDUCED_CYCLOTOMIC


def test_doublet_survey_rejects_invalid_input():
    with pytest.raises(InvalidContext):
        doublet_survey(10, e_min=50)
    with pytest.raises(InvalidContext):
        doublet_survey(10, e_min=0)


def test_doublets_start_at_e_2():
    # p = 2 has no period polynomial, so e = 1 is never a doublet
    assert doublet_survey(40, e_min=1) == doublet_survey(40, e_min=2) == (2, 6, 18, 30, 36)
    assert doublet_survey(1, e_min=1) == ()


def test_missing_e_small():
    assert missing_e_census(6, 2000) == ()
    assert missing_e_census(8, 2000) == (7,)


def test_census_over_the_extended_interval_p2000():
    # the paper's e <= 250 with primes up to 2000: e is missing exactly when
    # neither e + 1 nor 2e + 1 is prime, as at p <= 503 (acceptance 12)
    spec = ScanSpec(4, 250, 2000)
    report = census(spec)
    want = tuple(e for e in range(4, 251) if not (is_prime(e + 1) or is_prime(2 * e + 1)))
    assert report.missing_e == want
    # Gras (J. Number Theory 23, 1986, 347-353): a cyclic field of prime degree
    # l >= 5 is monogenic only as the maximal real subfield of Q(zeta_(2l+1)),
    # so a monogenic psi_e of prime e has f = 2, independently of the census rule
    prime_e = [(rec.e, rec.f) for rec in report.records if is_prime(rec.e)]
    assert all(f == 2 for _, f in prime_e), prime_e
    assert [e for e, _ in prime_e] == [l for l in range(5, 251) if is_prime(l) and is_prime(2 * l + 1)]


def test_surveys_factor_each_p_minus_1_once(monkeypatch):
    # a pair's context, its PrimePeriods and primitive_root read one cached
    # proof of p; the cubic curve is Gauss's rule on a sieve and factors none
    import periodeq.number_theory as nt

    calls = []
    factorize = nt.factorize
    monkeypatch.setattr(nt, "factorize", lambda n: calls.append(n) or factorize(n))
    nt._order_primes.cache_clear()
    cubic_growth(2000)
    assert calls == []
    missing_e_census(60, 400)
    assert sorted(calls) == sorted({e * f for e, f in scan_tasks(ScanSpec(4, 60, 400))})


@pytest.mark.parametrize("bounds", [(1, 2, 3), (1, 1, 3), (4, 60, 364), (4, 100, 260), (3, 3, 7000), (1, 60, 1000)])
def test_scan_tasks_from_the_sieve_are_the_primality_tests(bounds):
    spec = ScanSpec(*bounds)
    assert scan_tasks(spec) == [
        (e, f)
        for e in range(spec.e_min, spec.e_max + 1)
        for f in range(1, (spec.p_bound - 1) // e + 1)
        if (p := e * f + 1) >= 3 and is_prime(p)
    ]


def test_surveys_prove_each_prime_once(monkeypatch):
    # the task list comes from a sieve, and classify reads the one cached
    # proof of p behind its order test of g: is_prime sees each census prime
    # once, from _order_primes (the other calls of number_theory's own
    # is_prime test CRT primes above 2^29); the cubic curve is Gauss's rule
    # on a sieve, so it proves no prime, tests no g and writes no psi_3
    import periodeq.intpoly as intpoly_mod
    import periodeq.monogeneity as mono_mod
    import periodeq.number_theory as nt
    import periodeq.periods as periods_mod
    import periodeq.scanner as scanner_mod

    real_is_prime, real_is_root, real_cubic = nt.is_prime, nt.is_primitive_root, mono_mod.gauss_cubic
    proofs, elsewhere, cubics = [], [], []
    monkeypatch.setattr(nt, "is_prime", lambda n: proofs.append(n) or real_is_prime(n))
    for mod in (intpoly_mod, mono_mod, periods_mod, scanner_mod):
        monkeypatch.setattr(mod, "is_prime", lambda n: elsewhere.append(n) or real_is_prime(n), raising=False)
    g_tests = {"search": [], "classify": [], "periods": []}
    for mod, name in ((nt, "search"), (mono_mod, "classify"), (periods_mod, "periods")):
        tested = g_tests[name]
        monkeypatch.setattr(mod, "is_primitive_root", lambda g, p, tested=tested: tested.append(p) or real_is_root(g, p))
    monkeypatch.setattr(mono_mod, "gauss_cubic", lambda p, g: cubics.append(p) or real_cubic(p, g))
    nt._order_primes.cache_clear()
    cubic_growth(2000)
    assert proofs == elsewhere == cubics == [] and not any(g_tests.values())
    missing_e_census(60, 400)
    primes = sorted({e * f + 1 for e, f in scan_tasks(ScanSpec(4, 60, 400))})
    assert sorted(n for n in proofs if n <= 400) == primes
    assert elsewhere == []


def test_serial_import_leaves_multiprocessing_out():
    src = str(Path(periodeq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, periodeq, periodeq.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _record(e, f, monogenic, match):
    p = e * f + 1
    return ClassificationRecord(
        e=e,
        f=f,
        p=p,
        g=2,
        psi=IntPoly((1, 1)),
        poly_discriminant=1,
        field_discriminant=FieldDiscriminant(1, p, e - 1),
        k_squared=1 if monogenic else 4,
        k=1 if monogenic else 2,
        monogenic=monogenic,
        signature=Signature(0, 0),
        match_kind=match,
    )


def test_counterexample_predicate():
    # in-range combinations
    assert is_counterexample(_record(4, 3, True, MatchKind.NO_MATCH))
    assert is_counterexample(_record(4, 1, False, MatchKind.NO_MATCH))
    assert is_counterexample(_record(4, 2, False, MatchKind.NO_MATCH))
    # expected shapes
    assert not is_counterexample(_record(4, 1, True, MatchKind.DIRECT_CYCLOTOMIC))
    assert not is_counterexample(_record(4, 2, True, MatchKind.REDUCED_CYCLOTOMIC))
    assert not is_counterexample(_record(4, 3, False, MatchKind.NO_MATCH))
    # below the surveyed range nothing counts
    assert not is_counterexample(_record(3, 4, True, MatchKind.NO_MATCH))
    assert not is_counterexample(_record(2, 3, True, MatchKind.NO_MATCH))


def test_cubic_growth_small():
    report = cubic_growth(1000)
    assert isinstance(report, CubicGrowthReport)
    assert report.checkpoints == ((100, 6), (1000, 14))
    assert report.total_pairs == 80
    assert report.monogenic_total == 14
    assert report.slope is not None and report.slope > 0


def test_cubic_growth_to_10_5():
    report = cubic_growth(10**5)
    assert report.checkpoints == ((100, 6), (1000, 14), (10000, 32), (100000, 81))
    assert report.total_pairs == 4784


def test_prime_periods_are_built_only_for_pairs_that_need_periods(monkeypatch):
    import periodeq.monogeneity as mono_mod
    import periodeq.scanner as scanner_mod

    def refuse(p, g):
        raise AssertionError(f"a PrimePeriods was built for p = {p}")

    # f <= 2 writes psi down and e = 3 takes Gauss's closed form, so a prime
    # whose pairs are all such builds no table, through every survey path
    monkeypatch.setattr(scanner_mod, "PrimePeriods", refuse)
    monkeypatch.setattr(mono_mod, "PrimePeriods", refuse)
    want = scan(ScanSpec(3, 3, 2000)).records
    assert cubic_growth(2000).monogenic_total == sum(rec.monogenic for rec in want)
    # e in [50, 100] with p <= 150 has f <= 2, and so has e <= 10 with p <= 11
    assert {rec.f for rec in scan(ScanSpec(50, 100, 150)).records} == {1, 2}
    assert missing_e_census(10, 11) == scan(ScanSpec(4, 10, 11)).missing_e == (7, 8, 9)
    assert doublet_survey(330)[-2:] == (306, 330)
    monkeypatch.undo()
    # any other p builds one, at its first pair with f > 2 and e != 3
    built = []
    monkeypatch.setattr(scanner_mod, "PrimePeriods", lambda p, g: built.append(p) or PrimePeriods(p, g))
    records = scan(ScanSpec(3, 6, 200)).records
    assert records == tuple(classify(make_context(rec.e, rec.f)) for rec in records)
    assert sorted(built) == sorted({rec.p for rec in records if rec.f > 2 and rec.e != 3})
    assert len(built) < len({rec.p for rec in records})


def test_summary_path_names_the_pair_whose_norms_contradict(monkeypatch):
    # with no certificate, the census classifies (4, 3) at p = 13 from its
    # exact norms, and p does not divide N_1 + 1
    import periodeq.scanner as scanner_mod

    real = PrimePeriods.norms

    def perturbed(self, e):
        norms, at_one = real(self, e)
        return [norms[0] + 1, *norms[1:]], at_one

    monkeypatch.setattr(scanner_mod, "index_certificate", lambda periods, e: None)
    monkeypatch.setattr(PrimePeriods, "norms", perturbed)
    with pytest.raises(ScanFailure) as info:
        missing_e_census(5, 32)
    assert (info.value.e, info.value.f) == (4, 3)
    assert "N_1" in info.value.message and "not divisible" in info.value.message


def test_cubic_growth_degenerate_bound():
    report = cubic_growth(100)
    assert report.checkpoints == ((100, 6),)
    assert report.slope is None


def test_parallel_surveys_do_not_depend_on_the_start_method(monkeypatch):
    # spawned workers share no memory with the parent: every task and
    # result must cross by pickle
    import multiprocessing

    spawn = multiprocessing.get_context("spawn")
    # the scanner imports multiprocessing on its pool branch, so this patch
    # is what it finds there
    monkeypatch.setattr(multiprocessing, "get_context", lambda *args: spawn)
    spec = ScanSpec(4, 10, 100)
    assert scan(ScanSpec(4, 10, 100, worker_count=2)).records == scan(spec).records
    assert missing_e_census(20, 100, worker_count=2) == missing_e_census(20, 100)


def test_scan_failure_carries_pair():
    err = ScanFailure(5, 2, "boom")
    assert "e=5" in str(err) and "f=2" in str(err)
    again = pickle.loads(pickle.dumps(err))
    assert (again.e, again.f, again.message) == (5, 2, "boom")


def test_scan_propagates_contradictions(monkeypatch):
    import periodeq.scanner as scanner_mod

    def explode(ctx, periods=None):
        from periodeq.monogeneity import NotDivisible

        raise NotDivisible("forced")

    monkeypatch.setattr(scanner_mod, "classify", explode)
    with pytest.raises(ScanFailure) as info:
        scan(ScanSpec(5, 5, 12))
    assert (info.value.e, info.value.f) == (5, 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_summary_paths_equal_what_scan_records_give(workers):
    # census, behind the text summary, and doublets against one scan, which
    # holds every (e, 1) and (e, 2) with e <= 40
    report = scan(ScanSpec(4, 40, 400, worker_count=workers))
    counted = census(report.spec)
    assert counted.records == tuple(r for r in report.records if r.monogenic)
    assert counted.pairs == report.pairs == len(report.records)
    for name in ("monogenic_map", "missing_e", "doublets", "counterexamples"):
        assert getattr(counted, name) == getattr(report, name), name
    assert missing_e_census(40, 400, worker_count=workers) == report.missing_e
    assert missing_e_census(40, 82, worker_count=workers) == scan(ScanSpec(4, 40, 82)).missing_e
    kinds = {(r.e, r.f): r.match_kind for r in report.records if r.monogenic}
    want = tuple(
        e
        for e in range(4, 41)
        if kinds.get((e, 1)) is MatchKind.DIRECT_CYCLOTOMIC
        and kinds.get((e, 2)) is MatchKind.REDUCED_CYCLOTOMIC
    )
    assert doublet_survey(40) == want == report.doublets == (6, 18, 30, 36)
    assert doublet_survey(40, e_min=10) == (18, 30, 36)

    # the cubic curve is Gauss's rule p = m^2 + m + 7; scan takes each k
    # from Cornacchia's M through classify instead
    cubics = scan(ScanSpec(3, 3, 10**5, worker_count=workers)).records
    growth = cubic_growth(10**5, worker_count=workers)
    mono_ps = [r.p for r in cubics if r.monogenic]
    checkpoints = tuple((b, sum(p <= b for p in mono_ps)) for b in (100, 1000, 10**4, 10**5))
    assert growth.checkpoints == checkpoints
    assert (growth.total_pairs, growth.monogenic_total) == (len(cubics), len(mono_ps)) == (4784, 81)
    xs, ys = zip(*((math.log10(b), math.log10(c)) for b, c in checkpoints))
    assert growth.slope == statistics.linear_regression(xs, ys).slope
    # every bound to 400, among them the empty bounds 4..6 and the single
    # checkpoint of 100, against the records of one scan
    small = scan(ScanSpec(3, 3, 400)).records
    for b in range(4, 401):
        growth = cubic_growth(b)
        below = [r for r in small if r.p <= b]
        marks = [c for c in (100, 1000) if c < b] + [b]
        assert growth.checkpoints == tuple((c, sum(r.monogenic and r.p <= c for r in below)) for c in marks), b
        assert (growth.total_pairs, growth.monogenic_total) == (len(below), sum(r.monogenic for r in below)), b
