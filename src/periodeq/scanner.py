"""Surveys over (e, f) space: full classification scans, monogenic censuses,
doublets by the primality rule, and the cubic growth curve by Gauss's rule.

scan_tasks lists a spec's pairs e-major, the order of every report, with
the primes of the whole range from one sieve.  A work unit is one prime p:
every (e, f) pair of that p is handled from one shared PrimePeriods, built
at the first pair that needs one and dropped before the next p's, so a
survey holds the task list, the results and, per worker, one prime's
tables.  Only a pair that needs_periods reads one, so a
prime whose pairs are all f <= 2 or e = 3, which classify writes down in
closed form, builds no table.
Results are merged back into the tasks' order whatever the worker count, so
any two runs of the same spec produce byte-identical serialized output.

scan classifies every pair exactly and keeps every record, which CSV and
JSON need.  census keeps only the monogenic records, which decide every
summary: it takes index_certificate's proof of k != 1 where it exists and
classifies the other pairs, and every pair in closed form.  An f <= 2 pair
has k = 1 by theorem and is never certified, so a counterexample is a
monogenic f >= 3 record, which census keeps.  Both read the same Galois
norms, the certificate modulo one prime and classify exactly, so an
uncertified pair's exact D is congruent to delta modulo that prime by
construction and is not checked again.  The doublets and the cubic curve
classify nothing: each is a rule on one sieve's primes.
"""

from __future__ import annotations

import functools
import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass

from .monogeneity import ClassificationRecord, classify, index_certificate, needs_periods
from .number_theory import MAX_P, InternalContradiction, InvalidContext, PrimeContext, prime_flags, primitive_root
from .periods import PrimePeriods


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
    """Parameters of one survey: e range, prime bound, parallelism.  p_bound
    is at most MAX_P, since PrimePeriods refuses any larger p, so a spec past
    the table budget is refused before any work."""

    e_min: int
    e_max: int
    p_bound: int
    worker_count: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.e_min <= self.e_max:
            raise InvalidContext(f"need 1 <= e_min <= e_max, got {self.e_min}..{self.e_max}")
        if not 3 <= self.p_bound <= MAX_P:
            raise InvalidContext(
                f"p_bound {self.p_bound} is outside [3, MAX_P = {MAX_P}], "
                "set by the table budget MAX_TABLE_ENTRIES"
            )
        if self.e_max >= self.p_bound:
            # p = e*f + 1 <= p_bound forces e < p_bound: larger e have no pairs
            raise InvalidContext(f"need e_max < p_bound, got e_max={self.e_max}, p_bound={self.p_bound}")
        if self.worker_count < 1:
            raise InvalidContext(f"worker_count must be >= 1, got {self.worker_count}")


@dataclass
class ScanReport:
    spec: ScanSpec
    pairs: int
    records: tuple[ClassificationRecord, ...]
    monogenic_map: dict[int, tuple[int, ...]]
    missing_e: tuple[int, ...]
    doublets: tuple[int, ...]
    counterexamples: tuple[ClassificationRecord, ...]


def scan_tasks(spec: ScanSpec) -> list[tuple[int, int]]:
    """All (e, f) with e in range and p = e*f + 1 prime, 3 <= p <= p_bound,
    in scan order: e ascending, then f; the primes come from one sieve."""
    flags = prime_flags(spec.p_bound)
    return [
        (e, f)
        for e in range(spec.e_min, spec.e_max + 1)
        for f in range(1, (spec.p_bound - 1) // e + 1)
        if (p := e * f + 1) >= 3 and flags[p]
    ]


def _per_pair(step, tasks: list[tuple[int, int]]) -> list:
    """step(ctx, periods) for pairs that share one p, with one PrimePeriods
    built at the first pair that needs_periods (until then periods is None);
    a contradiction is tagged with the pair that hit it."""
    e, f = tasks[0]
    p = e * f + 1
    g = primitive_root(p)
    periods = None
    out = []
    for e, f in tasks:
        try:
            if periods is None and needs_periods(e, f):
                periods = PrimePeriods(p, g)
            out.append(step(PrimeContext(p, e, f, g), periods))
        except InternalContradiction as exc:
            raise ScanFailure(e, f, str(exc)) from exc
    return out


def _classify_uncertified(ctx: PrimeContext, periods: PrimePeriods | None) -> ClassificationRecord | None:
    """None if index_certificate proves k != 1, else classify's record; a
    pair that needs no periods goes to classify at once, as its closed form
    costs less than the certificate."""
    if needs_periods(ctx.e, ctx.f) and index_certificate(periods, ctx.e) is not None:
        return None
    return classify(ctx, periods)


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


def is_counterexample(rec: ClassificationRecord) -> bool:
    """Violation of: monogenic <=> f in {1, 2}, for e >= 4; the cyclotomic
    match of such a pair is its f (ClassificationRecord.from_index)."""
    return rec.e >= 4 and rec.monogenic != (rec.f in (1, 2))


def summarize(spec: ScanSpec, records, pairs: int) -> ScanReport:
    """Derive the monogenic map, missing e, doublets and counterexamples from
    records of spec that hold at least its monogenic pairs, of the given
    number of pairs surveyed."""
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
        pairs=pairs,
        records=records,
        monogenic_map=monogenic_map,
        missing_e=missing_e,
        doublets=doublets,
        counterexamples=counterexamples,
    )


def scan(spec: ScanSpec) -> ScanReport:
    """Classify every pair of spec and summarize the records."""
    tasks = scan_tasks(spec)
    return summarize(spec, _run_tasks(classify, tasks, spec.worker_count), len(tasks))


def census(spec: ScanSpec) -> ScanReport:
    """The summary of spec from its monogenic records, which are the report's
    records; every other pair is proven non-monogenic, by certificate or by
    classify, and counted in pairs."""
    tasks = scan_tasks(spec)
    results = _run_tasks(_classify_uncertified, tasks, spec.worker_count)
    return summarize(spec, (rec for rec in results if rec is not None and rec.monogenic), len(tasks))


def missing_e_census(e_max: int, p_bound: int = 2000, worker_count: int = 1) -> tuple[int, ...]:
    """e in [4, e_max] for which no f with e*f + 1 = p <= p_bound is monogenic."""
    return census(ScanSpec(4, e_max, p_bound, worker_count)).missing_e


def doublet_survey(e_max: int, e_min: int = 4) -> tuple[int, ...]:
    """Doublets, the e in [max(e_min, 2), e_max] whose pairs (e, 1) and (e, 2)
    are both monogenic: the e with e + 1 and 2e + 1 both prime, as psi is then
    Phi_p and its halving, each with k = 1 (psi_and_index); e = 1 would need
    p = 2, which has no period polynomial.  The primes come from one sieve to
    2 e_max + 1 <= MAX_P."""
    ScanSpec(e_min, e_max, 2 * e_max + 1)  # (e_max, 2) has p = 2 * e_max + 1
    flags = prime_flags(2 * e_max + 1)
    return tuple(e for e in range(max(e_min, 2), e_max + 1) if flags[e + 1] and flags[2 * e + 1])


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
    checkpoint bounds 100, 1000, ... and fit log10(count) vs log10(bound).

    With 4p = L^2 + 27 M^2, disc(psi_3) = p^2 M^2 (Gauss, Disquisitiones
    Arithmeticae, art. 358; periods.gauss_cubic), so k = |M| = 1 exactly
    when 4p - 27 = (2m + 1)^2.  The pairs are the primes p ≡ 1 (mod 6),
    p >= 7, and the monogenic ones the primes m^2 + m + 7, from one sieve.
    The count runs in one process; worker_count, only validated, stays for
    callers that pass it, such as the benchmark's pass."""
    ScanSpec(3, 3, p_bound, worker_count)
    flags = prime_flags(p_bound)
    mono_ps = [p for m in range(math.isqrt(p_bound) + 1) if (p := m * m + m + 7) <= p_bound and flags[p]]
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
        total_pairs=flags[7::6].count(1),
        monogenic_total=len(mono_ps),
        slope=slope,
    )
