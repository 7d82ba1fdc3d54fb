"""Self-tests of the benchmark: the oracles agree with periodeq at a tiny
size, and a corrupted answer is counted as a failure.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
from periodeq import ScanSpec, cubic_growth, missing_e_census, scan  # noqa: E402
from periodeq.cli import records_to_csv  # noqa: E402
from periodeq.scanner import scan_tasks  # noqa: E402

SWEEP = (4, 14, 200)


@pytest.fixture(scope="module")
def sweep_csv() -> str:
    return records_to_csv(scan(ScanSpec(*SWEEP)).records)


def sweep_answer(text: str) -> dict:
    return {"csv": text, "roundtrip_ok": True, "counterexamples": 0}


def cubic_answer(p_bound: int) -> dict:
    g = cubic_growth(p_bound)
    return {
        "checkpoints": [list(c) for c in g.checkpoints],
        "total_pairs": g.total_pairs,
        "monogenic_total": g.monogenic_total,
        "slope": g.slope,
    }


def test_inputs_are_seeded_and_close_to_the_base():
    assert oracles.workload_inputs("sweep", 0) == oracles.BASE_INPUTS["sweep"]
    for name, (e_min, e_max, p_bound) in oracles.BASE_INPUTS.items():
        for seed in range(1, 30):
            got = oracles.workload_inputs(name, seed)
            assert got == oracles.workload_inputs(name, seed)
            assert got[:2] == (e_min, e_max)
            assert abs(got[2] - p_bound) <= oracles.SHIFT[name] * p_bound + 0.5


def test_pair_oracle_matches_scan_tasks():
    for bounds in [(4, 14, 200), (3, 3, 3000), (4, 100, 500)]:
        assert oracles.expected_pairs(*bounds) == scan_tasks(ScanSpec(*bounds))


def test_oracles_accept_the_package_answers(sweep_csv):
    assert run.check_answer("sweep", SWEEP, 1, sweep_answer(sweep_csv)) == (
        len(oracles.expected_pairs(*SWEEP)) + 3, []
    )
    census = {"missing_e": list(missing_e_census(30, 100))}
    assert run.check_answer("census", (4, 30, 100), 1, census) == (27, [])
    assert run.check_answer("cubic", (3, 3, 2000), 1, cubic_answer(2000)) == (6, [])  # 3 checkpoints + 3


def test_seed0_census_oracle_is_the_frozen_list():
    assert oracles.expected_census(100, 500) == oracles.CENSUS_E100


@pytest.mark.parametrize(
    "old, new",
    [
        (",false,none,", ",true,none,"),   # monogenic flag flipped
        ('"1 1 -', '"1 1 -1'),             # one coefficient changed
    ],
)
def test_corrupted_sweep_record_is_a_failure(sweep_csv, old, new):
    bad = sweep_csv.replace(old, new, 1)
    assert bad != sweep_csv
    _, failures = run.check_answer("sweep", SWEEP, 1, sweep_answer(bad))
    assert len(failures) == 1


def test_dropped_sweep_record_and_bad_roundtrip_are_failures(sweep_csv):
    lines = sweep_csv.split("\n")
    answer = sweep_answer("\n".join(lines[:3] + lines[4:]))
    answer["roundtrip_ok"] = False
    _, failures = run.check_answer("sweep", SWEEP, 1, answer)
    assert len(failures) == 3  # pair set, the missing record, the round trip


def test_corrupted_census_and_cubic_answers_are_failures():
    census = list(missing_e_census(30, 100)) + [30]
    _, failures = run.check_answer("census", (4, 30, 100), 1, {"missing_e": census})
    assert failures == ["e = 30: census membership wrong"]
    cubic = cubic_answer(2000)
    cubic["checkpoints"][0][1] += 1
    _, failures = run.check_answer("cubic", (3, 3, 2000), 1, cubic)
    assert len(failures) == 1
