#!/usr/bin/env python3
"""Reproduce the headline survey numbers in one run.

Executes four experiments and prints a summary:

  1. classify every (e, f) pair with e in [4, e_max] and p = e*f + 1 <= p_bound,
     reporting how many pairs were checked and any conjecture counterexamples;
  2. census of e values that admit no monogenic period polynomial, with its
     own conjecture counterexamples;
  3. the "monogenic doublet" sequence (e with both f = 1 and f = 2 monogenic);
  4. growth of the count of monogenic cubic fields with p <= 10^k.

Writes the full sweep as CSV (and optionally JSON) when --output-dir is given.

Example:
    python scripts/run_full_survey.py --e-max 60 --p-bound 5000 --output-dir out/
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from periodeq.cli import records_to_csv, report_to_json
from periodeq.scanner import ScanSpec, census, cubic_growth, doublet_survey, scan


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--e-max", type=int, default=60)
    parser.add_argument("--p-bound", type=int, default=5000)
    parser.add_argument("--census-e-max", type=int, default=250)
    parser.add_argument("--census-p-bound", type=int, default=10**4)
    parser.add_argument("--doublet-e-max", type=int, default=10**4)
    parser.add_argument("--cubic-p-bound", type=int, default=10**4)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--output-dir", type=Path, default=None)
    parser.add_argument("--json", action="store_true", dest="write_json")
    return parser.parse_args(argv)


def print_counterexamples(records) -> None:
    for rec in records:
        print(f"  COUNTEREXAMPLE: e={rec.e} f={rec.f} p={rec.p} "
              f"monogenic={rec.monogenic} match={rec.match_kind.value}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)

    t0 = time.monotonic()
    spec = ScanSpec(e_min=4, e_max=args.e_max, p_bound=args.p_bound, worker_count=args.workers)
    result = scan(spec)
    sweep_seconds = time.monotonic() - t0
    print(f"sweep: e in [4, {args.e_max}], p <= {args.p_bound}: "
          f"{len(result.records)} pairs classified in {sweep_seconds:.1f}s")
    monogenic_total = sum(1 for r in result.records if r.monogenic)
    print(f"sweep: {monogenic_total} monogenic pairs, "
          f"{len(result.counterexamples)} conjecture counterexamples")
    print_counterexamples(result.counterexamples)

    t0 = time.monotonic()
    counted = census(ScanSpec(4, args.census_e_max, args.census_p_bound, args.workers))
    missing = counted.missing_e
    print(f"census: {len(missing)} values of e <= {args.census_e_max} admit no monogenic f "
          f"(searching p <= {args.census_p_bound}; {time.monotonic() - t0:.1f}s)")
    print(f"census: {' '.join(str(e) for e in missing)}")
    print_counterexamples(counted.counterexamples)

    t0 = time.monotonic()
    doublets = doublet_survey(args.doublet_e_max)
    print(f"doublets: {len(doublets)} values of e in [4, {args.doublet_e_max}] are monogenic "
          f"for both f=1 and f=2 ({time.monotonic() - t0:.1f}s)")
    print(f"doublets: first 14: {' '.join(str(e) for e in doublets[:14])}")

    t0 = time.monotonic()
    growth = cubic_growth(args.cubic_p_bound)
    slope = "undefined" if growth.slope is None else f"{growth.slope:.3f}"
    print(f"cubics: checkpoint counts {growth.checkpoints} "
          f"(log-log slope {slope}; {time.monotonic() - t0:.1f}s)")

    if args.output_dir is not None:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        csv_path = args.output_dir / "sweep.csv"
        csv_path.write_text(records_to_csv(result.records), encoding="utf-8")
        print(f"wrote {csv_path}")
        if args.write_json:
            json_path = args.output_dir / "sweep.json"
            json_path.write_text(report_to_json(result), encoding="utf-8")
            print(f"wrote {json_path}")

    return 3 if result.counterexamples or counted.counterexamples else 0


if __name__ == "__main__":
    raise SystemExit(main())
