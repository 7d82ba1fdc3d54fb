"""Workload inputs and answer oracles for the periodeq benchmark.

Nothing here imports periodeq: every expected answer comes from a sieve, a
closed-form rule about Gaussian periods, or a digest frozen from an earlier
commit, so a bug in ``classify`` cannot hide in its own oracle.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Seed-0 bounds (e_min, e_max, p_bound) of each workload.  The sweep and
# census bounds sit where a shift of SHIFT adds or drops only low-degree
# pairs: a pair's cost grows steeply with e, and near 240 or 280 (census)
# or 420 (sweep) one seed can gain a degree-60..100 pair that another lacks,
# which moved the pass time by 20% from seed to seed.
BASE_INPUTS = {
    "sweep": (4, 60, 364),
    "census": (4, 100, 260),
    "cubic": (3, 3, 7000),
}
# Other seeds move p_bound by at most this share, so a claim can be
# re-checked on inputs not used while the change was written.  The cubic
# pass costs about p_bound**2 (an O(p) build per pair), so its shift is
# kept small enough to move the pass time by 1%.
SHIFT = {"sweep": 0.02, "census": 0.02, "cubic": 0.005}

CSV_HEADER = "e,f,p,g,n_real,delta_sign,delta_exponent,k_squared,k,monogenic,match_kind,coeffs"

# missing_e_census(e_max=100, p_bound >= 201), frozen from the seed commit.
CENSUS_E100 = (
    7, 13, 17, 19, 24, 25, 27, 31, 32, 34, 37, 38, 43, 45, 47, 49, 55, 57, 59,
    61, 62, 64, 67, 71, 73, 76, 77, 79, 80, 84, 85, 87, 91, 92, 93, 94, 97,
)


def workload_inputs(name: str, seed: int) -> tuple[int, int, int]:
    """(e_min, e_max, p_bound) for a workload; seed 0 gives the base bounds.

    Only p_bound moves.  The e range fixes the degree profile: one more e
    at the top of the sweep adds its costliest pairs, about 20% of the pass.
    """
    e_min, e_max, p_bound = BASE_INPUTS[name]
    if seed == 0:
        return e_min, e_max, p_bound
    rng = random.Random(f"{name}:{seed}")
    shift = SHIFT[name]
    return e_min, e_max, round(p_bound * (1 + rng.uniform(-shift, shift)))


def prime_flags(n: int) -> bytearray:
    """Sieve of Eratosthenes: flags[m] == 1 iff m is prime, for m <= n."""
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for m in range(2, math.isqrt(n) + 1):
        if flags[m]:
            flags[m * m :: m] = bytearray(len(range(m * m, n + 1, m)))
    return flags


def expected_pairs(e_min: int, e_max: int, p_bound: int) -> list[tuple[int, int]]:
    """Every (e, f) with e in range and p = e*f + 1 a prime <= p_bound."""
    flags = prime_flags(p_bound)
    return [
        (e, f)
        for e in range(e_min, e_max + 1)
        for f in range(1, (p_bound - 1) // e + 1)
        if e * f + 1 >= 3 and flags[e * f + 1]
    ]


def expected_census(e_max: int, p_bound: int) -> tuple[int, ...]:
    """e in [4, e_max] with neither e + 1 nor 2e + 1 a prime <= p_bound.

    A period polynomial of degree e >= 4 is monogenic exactly when f is 1
    or 2, so an e is missing iff neither of those two primes is in range.
    """
    flags = prime_flags(max(p_bound, 2 * e_max + 1))

    def in_range(p: int) -> bool:
        return p <= p_bound and flags[p]

    return tuple(e for e in range(4, e_max + 1) if not in_range(e + 1) and not in_range(2 * e + 1))


def cubic_checkpoint_bounds(p_bound: int) -> list[int]:
    bounds, b = [], 100
    while b < p_bound:
        bounds.append(b)
        b *= 10
    return bounds + [p_bound]


def expected_cubic(p_bound: int) -> dict:
    """Cubic growth summary: a cubic period field is monogenic iff 4p - 27
    is a perfect square (Gras), so the counts come from the sieve alone."""
    flags = prime_flags(p_bound)
    ps = [p for p in range(7, p_bound + 1, 6) if flags[p]]  # p = 3f + 1 is 1 mod 6
    mono = [p for p in ps if math.isqrt(4 * p - 27) ** 2 == 4 * p - 27]
    checkpoints = [[b, sum(1 for p in mono if p <= b)] for b in cubic_checkpoint_bounds(p_bound)]
    pts = [(math.log10(b), math.log10(c)) for b, c in checkpoints if c > 0]
    slope = None
    if len(pts) >= 2:
        slope = statistics.linear_regression([x for x, _ in pts], [y for _, y in pts]).slope
    return {
        "checkpoints": checkpoints,
        "total_pairs": len(ps),
        "monogenic_total": len(mono),
        "slope": slope,
    }


def line_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def load_frozen() -> dict:
    """Per-record CSV line digests and the seed-0 CSV SHA-256 (see freeze.py)."""
    return json.loads((HERE / "frozen_sweep.json").read_text())


def check_sweep_line(row: list[str]) -> str | None:
    """Check one CSV record against closed-form facts; None when it holds.

    For p = e*f + 1 the degree-e period field is real iff f is even and
    totally complex otherwise, so n_real is e or 0 and the discriminant sign
    is (-1)^(e/2) for odd f.  For e >= 4 it is monogenic iff f is 1 or 2,
    and then psi is the p-th cyclotomic polynomial (f = 1) or its x + 1/x
    halving (f = 2).  The periods sum to -1, so psi = x^e + x^(e-1) + ...
    """
    e, f, p, _g, n_real, sign, exponent, k2, k = (int(v) for v in row[:9])
    monogenic, match, coeffs = row[9], row[10], [int(v) for v in row[11].split()]
    mono = f in (1, 2)
    want_match = {1: "direct", 2: "reduced"}.get(f, "none")
    checks = (
        (p == e * f + 1, "p != e*f + 1"),
        (n_real == (e if f % 2 == 0 else 0), "real-root count breaks the parity law"),
        (sign == (-1 if f % 2 and (e // 2) % 2 else 1), "wrong field discriminant sign"),
        (exponent == e - 1, "wrong field discriminant exponent"),
        (k >= 1 and k * k == k2, "k^2 != k_squared"),
        (monogenic == ("true" if mono else "false"), "counterexample: monogenic iff f in {1, 2}"),
        ((k == 1) == mono, "k == 1 disagrees with monogenic"),
        (match == want_match, "wrong cyclotomic match"),
        (len(coeffs) == e + 1 and coeffs[:2] == [1, 1], "psi is not x^e + x^(e-1) + ..."),
        (f != 1 or coeffs == [1] * (e + 1), "f = 1 but psi is not cyclotomic"),
    )
    for ok, message in checks:
        if not ok:
            return message
    return None


def check_sweep_csv(
    text: str, e_min: int, e_max: int, p_bound: int, frozen: dict, seed: int
) -> tuple[int, list[str]]:
    """Check a sweep CSV; returns (answers checked, failure messages).

    Each record is one answer, checked by check_sweep_line and against the
    frozen line digest; the pair set and, at seed 0, the whole-file SHA-256
    are one answer each.
    """
    failures: list[str] = []
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return 1, ["malformed CSV header or trailer"]
    body = lines[1:-1]
    want = expected_pairs(e_min, e_max, p_bound)
    attempted = len(want) + 1
    seen = []
    digests = frozen["lines"]
    for line, row in zip(body, csv.reader(io.StringIO("\n".join(body)))):
        key = f"{row[0]},{row[1]}"
        seen.append((int(row[0]), int(row[1])))
        problem = check_sweep_line(row)
        if problem is None and digests.get(key) != line_digest(line):
            problem = "record differs from the frozen seed-commit record"
        if problem:
            failures.append(f"(e, f) = ({key}): {problem}")
    if seen != want:
        failures.append(f"pair set differs: got {len(seen)} records, want {len(want)}")
        failures.extend(f"(e, f) = {pair}: missing record" for pair in sorted(set(want) - set(seen)))
    if seed == 0:
        attempted += 1
        if hashlib.sha256(text.encode()).hexdigest() != frozen["seed0_sha256"]:
            failures.append("seed-0 CSV SHA-256 differs from the seed commit's")
    return attempted, failures
