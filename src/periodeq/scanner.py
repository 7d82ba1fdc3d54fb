"""Surveys over (e, f) space: full classification scans, monogenic censuses,
doublet detection, and the cubic growth curve.

A work unit is one prime p: every (e, f) pair of that p is classified from
one shared PrimePeriods.  Records are merged back into sorted (e, f) order
whatever the worker count, so any two runs of the same spec produce
byte-identical serialized output.
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

from .intpoly import NotSquarefree
from .monogeneity import ClassificationRecord, MatchKind, classify
from .number_theory import PRIME_TEST_BOUND, InternalContradiction, InvalidContext, is_prime, make_context
from .periods import PrimePeriods


class ScanMode(str, Enum):
    FULL = "full"
    FAST_DOUBLET = "fast-doublet"


class ScanFailure(RuntimeError):
    """A hard arithmetic contradiction, tagged with the (e, f) that hit it."""

    def __init__(self, e: int, f: int, message: str):
        super().__init__(e, f, message)
        self.e = e
        self.f = f
        self.message = message

    def __str__(self) -> str:
        return f"(e={self.e}, f={self.f}): {self.message}"


@dataclass(frozen=True)
class ScanSpec:
    """Parameters of one survey: e range, prime bound, parallelism."""

    e_min: int
    e_max: int
    p_bound: int
    worker_count: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.e_min <= self.e_max:
            raise InvalidContext(f"need 1 <= e_min <= e_max, got {self.e_min}..{self.e_max}")
        if not 3 <= self.p_bound < PRIME_TEST_BOUND:
            raise InvalidContext(f"p_bound {self.p_bound} is outside [3, {PRIME_TEST_BOUND})")
        if self.e_max >= self.p_bound:
            # p = e*f + 1 <= p_bound forces e < p_bound: larger e have no pairs
            raise InvalidContext(f"need e_max < p_bound, got e_max={self.e_max}, p_bound={self.p_bound}")
        if self.worker_count < 1:
            raise InvalidContext(f"worker_count must be >= 1, got {self.worker_count}")


@dataclass
class ScanReport:
    spec: ScanSpec
    records: tuple[ClassificationRecord, ...]
    monogenic_map: dict[int, tuple[int, ...]]
    missing_e: tuple[int, ...]
    doublets: tuple[int, ...]
    counterexamples: tuple[ClassificationRecord, ...]


def scan_tasks(spec: ScanSpec) -> list[tuple[int, int]]:
    """All (e, f) with e in range and p = e*f + 1 prime, p <= p_bound."""
    tasks = []
    for e in range(spec.e_min, spec.e_max + 1):
        for f in range(1, (spec.p_bound - 1) // e + 1):
            p = e * f + 1
            if p >= 3 and is_prime(p):
                tasks.append((e, f))
    return tasks


def _classify_group(tasks: list[tuple[int, int]]) -> list[ClassificationRecord]:
    """Classify pairs that share one p, from one PrimePeriods."""
    periods = None
    records = []
    for e, f in tasks:
        try:
            ctx = make_context(e, f)
            if periods is None:
                periods = PrimePeriods(ctx.p, ctx.g)
            records.append(classify(ctx, periods))
        except (InternalContradiction, NotSquarefree) as exc:
            raise ScanFailure(e, f, str(exc)) from exc
    return records


def _run_tasks(tasks: list[tuple[int, int]], worker_count: int) -> list[ClassificationRecord]:
    """Classify tasks one p at a time; records come back in tasks' order."""
    by_p: dict[int, list[tuple[int, int]]] = {}
    for e, f in tasks:
        by_p.setdefault(e * f + 1, []).append((e, f))
    groups = list(by_p.values())
    if worker_count <= 1 or len(groups) < 2:
        results = map(_classify_group, groups)
    else:
        chunk = max(1, len(groups) // (8 * worker_count))
        with multiprocessing.get_context().Pool(processes=worker_count) as pool:
            results = pool.map(_classify_group, groups, chunksize=chunk)
    by_pair = {(rec.e, rec.f): rec for records in results for rec in records}
    return [by_pair[task] for task in tasks]


def is_counterexample(rec: ClassificationRecord) -> bool:
    """Violation of: monogenic <=> f in {1, 2}, with a cyclotomic match (e >= 4)."""
    if rec.e < 4:
        return False
    should_be = rec.f in (1, 2)
    if rec.monogenic != should_be:
        return True
    return rec.monogenic and rec.match_kind is MatchKind.NO_MATCH


def fast_doublet_candidates(e_min: int, e_max: int) -> list[int]:
    """e with both e + 1 and 2e + 1 prime; equivalent to a doublet by theory."""
    return [e for e in range(e_min, e_max + 1) if is_prime(e + 1) and is_prime(2 * e + 1)]


def summarize(spec: ScanSpec, records) -> ScanReport:
    """Derive the monogenic map, missing e, doublets and counterexamples from
    the records of a full scan of spec."""
    records = tuple(records)
    mono: dict[int, list[int]] = {e: [] for e in range(spec.e_min, spec.e_max + 1)}
    for rec in records:
        if rec.monogenic:
            mono[rec.e].append(rec.f)
    monogenic_map = {e: tuple(sorted(fs)) for e, fs in mono.items()}
    first_surveyed = max(4, spec.e_min)
    missing_e = tuple(
        e for e in range(first_surveyed, spec.e_max + 1) if not monogenic_map[e]
    )
    doublets = tuple(
        e
        for e in range(first_surveyed, spec.e_max + 1)
        if 1 in monogenic_map[e] and 2 in monogenic_map[e]
    )
    counterexamples = tuple(rec for rec in records if is_counterexample(rec))
    return ScanReport(
        spec=spec,
        records=records,
        monogenic_map=monogenic_map,
        missing_e=missing_e,
        doublets=doublets,
        counterexamples=counterexamples,
    )


def scan(spec: ScanSpec) -> ScanReport:
    """Classify every pair of spec and summarize the records."""
    return summarize(spec, _run_tasks(scan_tasks(spec), spec.worker_count))


def missing_e_census(e_max: int, p_bound: int = 2000, worker_count: int = 1) -> tuple[int, ...]:
    """e in [4, e_max] for which no f with e*f + 1 = p <= p_bound is monogenic."""
    spec = ScanSpec(e_min=4, e_max=e_max, p_bound=p_bound, worker_count=worker_count)
    return scan(spec).missing_e


def doublet_survey(
    e_max: int,
    mode: ScanMode = ScanMode.FAST_DOUBLET,
    e_min: int = 4,
    worker_count: int = 1,
) -> tuple[int, ...]:
    """Doublets (f=1 and f=2 both monogenic) for e in [e_min, e_max].

    Fast mode uses the primality shortcut; full mode classifies both pairs
    and demands monogenicity plus an actual cyclotomic match.
    """
    mode = ScanMode(mode)
    if not 1 <= e_min <= e_max:
        raise InvalidContext(f"need 1 <= e_min <= e_max, got {e_min}..{e_max}")
    if worker_count < 1:
        raise InvalidContext(f"worker_count must be >= 1, got {worker_count}")
    candidates = fast_doublet_candidates(e_min, e_max)
    if mode is ScanMode.FAST_DOUBLET:
        return tuple(candidates)
    tasks = [(e, f) for e in candidates for f in (1, 2)]
    records = _run_tasks(tasks, worker_count)
    by_pair = {(rec.e, rec.f): rec for rec in records}
    out = []
    for e in candidates:
        r1, r2 = by_pair[(e, 1)], by_pair[(e, 2)]
        if (
            r1.monogenic
            and r2.monogenic
            and r1.match_kind is MatchKind.DIRECT_CYCLOTOMIC
            and r2.match_kind is MatchKind.REDUCED_CYCLOTOMIC
        ):
            out.append(e)
    return tuple(out)


@dataclass
class CubicGrowthReport:
    """Monogenic counts for e = 3 at increasing prime bounds, with a
    fitted log-log slope (None when there are not enough points)."""

    p_bound: int
    checkpoints: tuple[tuple[int, int], ...]
    total_pairs: int
    monogenic_total: int
    slope: float | None


def cubic_growth(p_bound: int, worker_count: int = 1) -> CubicGrowthReport:
    """Count monogenic cubic cases (e = 3, p = 3f + 1 <= p_bound) at
    checkpoint bounds 100, 1000, ... and fit log10(count) vs log10(bound)."""
    spec = ScanSpec(e_min=3, e_max=3, p_bound=p_bound, worker_count=worker_count)
    report = scan(spec)
    mono_ps = sorted(rec.p for rec in report.records if rec.monogenic)
    bounds = []
    b = 100
    while b < p_bound:
        bounds.append(b)
        b *= 10
    bounds.append(p_bound)
    checkpoints = tuple((b, bisect_right(mono_ps, b)) for b in bounds)
    pts = [(math.log10(b), math.log10(c)) for b, c in checkpoints if c > 0]
    slope = None
    if len(pts) >= 2:
        try:
            slope = statistics.linear_regression([x for x, _ in pts], [y for _, y in pts]).slope
        except statistics.StatisticsError:
            slope = None
    return CubicGrowthReport(
        p_bound=p_bound,
        checkpoints=checkpoints,
        total_pairs=len(report.records),
        monogenic_total=len(mono_ps),
        slope=slope,
    )


def conjecture_check(
    e_min: int, e_max: int, p_bound: int, worker_count: int = 1
) -> tuple[ClassificationRecord, ...]:
    """Full scan returning only the counterexample records (empty = conjecture holds)."""
    spec = ScanSpec(e_min=e_min, e_max=e_max, p_bound=p_bound, worker_count=worker_count)
    return scan(spec).counterexamples
