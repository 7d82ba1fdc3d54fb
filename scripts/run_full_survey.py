#!/usr/bin/env python3
"""Reproduce the headline survey numbers in one run.

Runs four periodeq commands in the paper's order: the sweep and the census of
missing e (each `scan --format text`), `doublets` and `cubic-growth`.  stdout
is theirs; stderr is theirs, each followed by `$ periodeq <argv>: exit N, T s`.
Stops at the first exit 2 (invalid input) or 4 (internal contradiction) with
that code; else exits 3 if a command found counterexamples, else 0.  The
sweep's CSV: `periodeq scan --e-range 4:60 --p-bound 5000 --output FILE`.
Example: python scripts/run_full_survey.py --e-max 60 --p-bound 5000 --workers 2
"""

import argparse
import sys
import time

from periodeq import cli


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--e-max", type=int, default=60)
    parser.add_argument("--p-bound", type=int, default=5000)
    parser.add_argument("--census-e-max", type=int, default=250)
    parser.add_argument("--census-p-bound", type=int, default=10**4)
    parser.add_argument("--doublet-e-max", type=int, default=10**4)
    parser.add_argument("--cubic-p-bound", type=int, default=10**4)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    scan = ["--workers", str(args.workers), "--format", "text"]
    commands = [
        ["scan", "--e-range", f"4:{args.e_max}", "--p-bound", str(args.p_bound), *scan],
        ["scan", "--e-range", f"4:{args.census_e_max}", "--p-bound", str(args.census_p_bound), *scan],
        ["doublets", "--e-max", str(args.doublet_e_max)],
        ["cubic-growth", "--p-bound", str(args.cubic_p_bound)],
    ]
    status = 0
    for command in commands:
        start = time.perf_counter()
        code = cli.main(command)
        sys.stdout.flush()  # its output before its status line
        print(f"$ periodeq {' '.join(command)}: exit {code}, {time.perf_counter() - start:.2f} s", file=sys.stderr)
        if code in (2, 4):
            return code
        status = max(status, code)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
