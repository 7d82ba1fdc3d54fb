"""Surveys over (e, f) space: full classification scans, monogenic censuses,
doublet detection, and the cubic growth curve.

scan_tasks lists a spec's pairs e-major, the order of every report.  A
work unit is one prime p: every (e, f) pair of that p is handled from one
shared PrimePeriods, which is dropped before the next p's is built, so a
survey holds the task list, the results and, per worker, one prime's tables.
Results are merged back into the tasks' order whatever the worker count, so
any two runs of the same spec produce byte-identical serialized output.

scan classifies every pair exactly and keeps every record; no remainder
sequence runs, since classify takes D in closed form or from the Galois
norms of the period differences.  The census, the full doublet survey and
the cubic counts need only which pairs are monogenic: they take
index_certificate's proof of k != 1 where it exists and classify the other
pairs.  Both read the same Galois norms, the certificate modulo one prime
and classify exactly, so an uncertified pair's exact D is congruent to
delta modulo that prime by construction and is not checked again.
"""

from __future__ import annotations

import functools
import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

from .monogeneity import ClassificationRecord, MatchKind, classify, index_certificate
from .number_theory import (
    PRIME_TEST_BOUND,
    InternalContradiction,
    InvalidContext,
    PrimeContext,
    is_prime,
    primitive_root,
)
from .periods import PrimePeriods


class ScanMode(str, Enum):
    FULL = "full"
    FAST_DOUBLET = "fast-doublet"


class ScanFailure(InternalContradiction):
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
    """All (e, f) with e in range and p = e*f + 1 prime, p <= p_bound, in
    scan order: e ascending, then f."""
    return [
        (e, f)
        for e in range(spec.e_min, spec.e_max + 1)
        for f in range(1, (spec.p_bound - 1) // e + 1)
        if (p := e * f + 1) >= 3 and is_prime(p)
    ]


def _per_pair(step, tasks: list[tuple[int, int]]) -> list:
    """step(ctx, periods) for pairs that share one p, from one PrimePeriods;
    a contradiction is tagged with the pair that hit it."""
    periods = None
    out = []
    for e, f in tasks:
        try:
            if periods is None:
                p = e * f + 1
                periods = PrimePeriods(p, primitive_root(p))
            out.append(step(PrimeContext(p, e, f, periods.g), periods))
        except InternalContradiction as exc:
            raise ScanFailure(e, f, str(exc)) from exc
    return out


def _classify_uncertified(ctx: PrimeContext, periods: PrimePeriods) -> ClassificationRecord | None:
    """None if index_certificate proves k != 1, else classify's record."""
    return None if index_certificate(periods, ctx.e) is not None else classify(ctx, periods)


def _run_tasks(step, tasks: list[tuple[int, int]], worker_count: int) -> list:
    """step(ctx, periods) on every task, the pairs of one p together;
    results come back in tasks' order."""
    by_p: dict[int, list[tuple[int, int]]] = {}
    for e, f in tasks:
        by_p.setdefault(e * f + 1, []).append((e, f))
    groups = list(by_p.values())
    group = functools.partial(_per_pair, step)
    if worker_count <= 1 or len(groups) < 2:
        results = map(group, groups)
    else:
        import multiprocessing  # here, so a serial run does not pay for its import

        chunk = max(1, len(groups) // (8 * worker_count))
        with multiprocessing.get_context().Pool(processes=worker_count) as pool:
            results = pool.map(group, groups, chunksize=chunk)
    by_pair = {task: out for grp, outs in zip(groups, results) for task, out in zip(grp, outs)}
    return [by_pair[task] for task in tasks]


def _monogenic_records(tasks: list[tuple[int, int]], worker_count: int) -> list[ClassificationRecord]:
    """The exact records of the monogenic pairs among tasks; every other
    pair is proven non-monogenic, by certificate or by classify."""
    results = _run_tasks(_classify_uncertified, tasks, worker_count)
    return [rec for rec in results if rec is not None and rec.monogenic]


def is_counterexample(rec: ClassificationRecord) -> bool:
    """Violation of: monogenic <=> f in {1, 2}, with a cyclotomic match (e >= 4)."""
    if rec.e < 4:
        return False
    should_be = rec.f in (1, 2)
    if rec.monogenic != should_be:
        return True
    return rec.monogenic and rec.match_kind is MatchKind.NO_MATCH


def fast_doublet_candidates(e_min: int, e_max: int) -> list[int]:
    """e >= 2 with both e + 1 and 2e + 1 prime; equivalent to a doublet by
    theory (e = 1 would need p = 2, which has no period polynomial)."""
    return [e for e in range(max(e_min, 2), e_max + 1) if is_prime(e + 1) and is_prime(2 * e + 1)]


def summarize(spec: ScanSpec, records) -> ScanReport:
    """Derive the monogenic map, missing e, doublets and counterexamples from
    the records of a full scan of spec; the monogenic records alone decide
    all but the counterexamples."""
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
    return summarize(spec, _run_tasks(classify, scan_tasks(spec), spec.worker_count))


def missing_e_census(e_max: int, p_bound: int = 2000, worker_count: int = 1) -> tuple[int, ...]:
    """e in [4, e_max] for which no f with e*f + 1 = p <= p_bound is monogenic."""
    spec = ScanSpec(e_min=4, e_max=e_max, p_bound=p_bound, worker_count=worker_count)
    return summarize(spec, _monogenic_records(scan_tasks(spec), worker_count)).missing_e


def doublet_survey(
    e_max: int,
    mode: ScanMode = ScanMode.FAST_DOUBLET,
    e_min: int = 4,
    worker_count: int = 1,
) -> tuple[int, ...]:
    """Doublets (f=1 and f=2 both monogenic) for e in [max(e_min, 2), e_max].

    Fast mode uses the primality shortcut; full mode decides both pairs
    (a certificate of k != 1, else classify) and demands monogenicity plus an
    actual cyclotomic match.
    """
    mode = ScanMode(mode)
    ScanSpec(e_min, e_max, 2 * e_max + 1, worker_count)  # (e_max, 2) has p = 2 * e_max + 1
    candidates = fast_doublet_candidates(e_min, e_max)
    if mode is ScanMode.FAST_DOUBLET:
        return tuple(candidates)
    tasks = [(e, f) for e in candidates for f in (1, 2)]
    kinds = {(rec.e, rec.f): rec.match_kind for rec in _monogenic_records(tasks, worker_count)}
    return tuple(
        e
        for e in candidates
        if kinds.get((e, 1)) is MatchKind.DIRECT_CYCLOTOMIC
        and kinds.get((e, 2)) is MatchKind.REDUCED_CYCLOTOMIC
    )


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
    tasks = scan_tasks(spec)
    mono_ps = sorted(rec.p for rec in _monogenic_records(tasks, worker_count))
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
        # the checkpoint bounds are distinct, so x is never constant
        slope = statistics.linear_regression([x for x, _ in pts], [y for _, y in pts]).slope
    return CubicGrowthReport(
        p_bound=p_bound,
        checkpoints=checkpoints,
        total_pairs=len(tasks),
        monogenic_total=len(mono_ps),
        slope=slope,
    )
