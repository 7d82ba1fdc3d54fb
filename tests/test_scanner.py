import pickle

import pytest

from periodeq.intpoly import IntPoly, Signature
from periodeq.monogeneity import ClassificationRecord, FieldDiscriminant, MatchKind, classify
from periodeq.number_theory import PRIME_TEST_BOUND, InvalidContext, make_context
from periodeq.scanner import (
    CubicGrowthReport,
    ScanFailure,
    ScanMode,
    ScanSpec,
    conjecture_check,
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


def test_missing_e_small():
    assert missing_e_census(6, 2000) == ()
    assert missing_e_census(8, 2000) == (7,)


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


def test_conjecture_check_small():
    assert conjecture_check(4, 10, 200) == ()


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
