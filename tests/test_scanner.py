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
from periodeq.scanner import (
    CubicGrowthReport,
    ScanFailure,
    ScanMode,
    ScanSpec,
    _monogenic_records,
    cubic_growth,
    doublet_survey,
    fast_doublet_candidates,
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
    assert summarize(report.spec, reversed(report.records)).doublets == (6,)


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
    assert fast_doublet_candidates(4, 40) == [6, 18, 30, 36]
    assert fast_doublet_candidates(2, 40) == [2, 6, 18, 30, 36]
    assert fast_doublet_candidates(7, 17) == []


def test_doublet_survey_rejects_invalid_input():
    with pytest.raises(InvalidContext):
        doublet_survey(10, mode=ScanMode.FULL, worker_count=-3)
    with pytest.raises(InvalidContext):
        doublet_survey(10, e_min=50)
    with pytest.raises(InvalidContext):
        doublet_survey(10, e_min=0)


def test_doublet_survey_modes_agree():
    fast = doublet_survey(40, mode=ScanMode.FAST_DOUBLET)
    full = doublet_survey(40, mode=ScanMode.FULL)
    assert fast == full == (6, 18, 30, 36)


def test_doublets_start_at_e_2_in_both_modes():
    # p = 2 has no period polynomial, so e = 1 is never a doublet
    assert fast_doublet_candidates(1, 40) == [2, 6, 18, 30, 36]
    fast = doublet_survey(40, mode=ScanMode.FAST_DOUBLET, e_min=1)
    full = doublet_survey(40, mode=ScanMode.FULL, e_min=1)
    assert fast == full == (2, 6, 18, 30, 36)


def test_missing_e_small():
    assert missing_e_census(6, 2000) == ()
    assert missing_e_census(8, 2000) == (7,)


def test_census_over_the_extended_interval_p2000():
    # the paper's e <= 250 with primes up to 2000: e is missing exactly when
    # neither e + 1 nor 2e + 1 is prime, as at p <= 503 (acceptance 12)
    spec = ScanSpec(4, 250, 2000)
    report = summarize(spec, _monogenic_records(scan_tasks(spec), 1))
    want = tuple(e for e in range(4, 251) if not (is_prime(e + 1) or is_prime(2 * e + 1)))
    assert report.missing_e == want
    # Gras (J. Number Theory 23, 1986, 347-353): a cyclic field of prime degree
    # l >= 5 is monogenic only as the maximal real subfield of Q(zeta_(2l+1)),
    # so a monogenic psi_e of prime e has f = 2, independently of the census rule
    prime_e = [(rec.e, rec.f) for rec in report.records if is_prime(rec.e)]
    assert all(f == 2 for _, f in prime_e), prime_e
    assert [e for e, _ in prime_e] == [l for l in range(5, 251) if is_prime(l) and is_prime(2 * l + 1)]


def test_surveys_factor_each_p_minus_1_once(monkeypatch):
    # a pair's context, its PrimePeriods and primitive_root read one cached proof of p
    import periodeq.number_theory as nt

    calls = []
    factorize = nt.factorize
    monkeypatch.setattr(nt, "factorize", lambda n: calls.append(n) or factorize(n))
    for survey, spec in (
        (lambda: cubic_growth(2000), ScanSpec(3, 3, 2000)),
        (lambda: missing_e_census(60, 400), ScanSpec(4, 60, 400)),
    ):
        nt._order_primes.cache_clear()
        calls.clear()
        survey()
        assert sorted(calls) == sorted({e * f for e, f in scan_tasks(spec)})


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
    assert is_counterexample(_record(4, 1, True, MatchKind.NO_MATCH))  # match failed
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
    # census and full doublets against one scan, which holds every (e, 1)
    # and (e, 2) with e <= 40
    report = scan(ScanSpec(4, 40, 400, worker_count=workers))
    assert missing_e_census(40, 400, worker_count=workers) == report.missing_e
    assert missing_e_census(40, 82, worker_count=workers) == scan(ScanSpec(4, 40, 82)).missing_e
    kinds = {(r.e, r.f): r.match_kind for r in report.records if r.monogenic}
    want = tuple(
        e
        for e in range(4, 41)
        if kinds.get((e, 1)) is MatchKind.DIRECT_CYCLOTOMIC
        and kinds.get((e, 2)) is MatchKind.REDUCED_CYCLOTOMIC
    )
    assert doublet_survey(40, mode=ScanMode.FULL, worker_count=workers) == want == (6, 18, 30, 36)
    assert doublet_survey(40, mode=ScanMode.FULL, e_min=10, worker_count=workers) == (18, 30, 36)

    cubics = scan(ScanSpec(3, 3, 2000, worker_count=workers)).records
    growth = cubic_growth(2000, worker_count=workers)
    mono_ps = [r.p for r in cubics if r.monogenic]
    checkpoints = tuple((b, sum(p <= b for p in mono_ps)) for b in (100, 1000, 2000))
    assert growth.checkpoints == checkpoints
    assert (growth.total_pairs, growth.monogenic_total) == (len(cubics), len(mono_ps))
    xs, ys = zip(*((math.log10(b), math.log10(c)) for b, c in checkpoints))
    assert growth.slope == statistics.linear_regression(xs, ys).slope
