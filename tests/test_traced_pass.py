"""perfbench's traced pass on three small workloads: it builds records by
keyword from periodeq's public stage functions, so a change to them must
still give the product path's answers."""

import sys
from pathlib import Path

from periodeq import ScanSpec, cubic_growth, missing_e_census, scan
from periodeq.cli import records_to_csv

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from traced import traced_pass  # noqa: E402


def test_traced_sweep_writes_the_scan_csv(tmp_path):
    out = traced_pass("sweep", 4, 14, 200, tmp_path / "sweep.json")
    assert out["answer"]["csv"] == records_to_csv(scan(ScanSpec(4, 14, 200)).records)
    assert (tmp_path / "sweep.json").exists()


def test_traced_census_finds_the_missing_e(tmp_path):
    out = traced_pass("census", 4, 30, 100, tmp_path / "census.json")
    assert out["answer"] == {"missing_e": list(missing_e_census(30, 100))}


def test_traced_cubic_counts_the_monogenic_pairs(tmp_path):
    out = traced_pass("cubic", 3, 3, 2000, tmp_path / "cubic.json")
    growth = cubic_growth(2000)
    assert out["answer"] == {
        "checkpoints": [list(c) for c in growth.checkpoints],
        "total_pairs": growth.total_pairs,
        "monogenic_total": growth.monogenic_total,
    }
