"""Regenerate perfbench/frozen_sweep.json from the periodeq in ./src.

The file pins the sweep's answers: a digest of every CSV record line with
e in [4, 60] and p <= 371 (the widest bounds any seed can draw), and the
SHA-256 of the whole seed-0 CSV.  Only regenerate it from a commit whose
output is known good; the benchmark treats any difference as a wrong answer.

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from oracles import BASE_INPUTS, SHIFT, line_digest  # noqa: E402
from periodeq import ScanSpec, scan  # noqa: E402
from periodeq.cli import record_to_csv_line, records_to_csv  # noqa: E402


def main() -> None:
    e_min, e_max, p_bound = BASE_INPUTS["sweep"]
    wide = ScanSpec(e_min, e_max, round(p_bound * (1 + SHIFT["sweep"])), worker_count=2)
    records = scan(wide).records
    seed0 = [r for r in records if r.p <= p_bound]
    lines = {f"{r.e},{r.f}": line_digest(record_to_csv_line(r)) for r in records}
    frozen = {
        "bounds": [wide.e_min, wide.e_max, wide.p_bound],
        "seed0_sha256": hashlib.sha256(records_to_csv(seed0).encode()).hexdigest(),
        "lines": lines,
    }
    (HERE / "frozen_sweep.json").write_text(json.dumps(frozen, indent=0) + "\n")
    print(f"{len(lines)} record digests written")


if __name__ == "__main__":
    main()
