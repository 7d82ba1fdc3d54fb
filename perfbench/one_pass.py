"""One benchmark pass in a fresh interpreter (started by run.py).

    python3 perfbench/one_pass.py MODE WORKLOAD E_MIN E_MAX P_BOUND [SPANS_PATH]

MODE is ``setup`` (import and build the inputs, run the reference loop,
then stop), ``plain`` (one untraced pass through the public API, as a user's
CLI run makes it) or ``traced`` (one serial pass that calls the stage
functions of ``classify`` itself and records a span around each).  The last stdout line is a JSON
object with the timings, the answers and, for ``traced``, the layer totals.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import periodeq  # noqa: E402
import periodeq.cli as cli  # noqa: E402

# Every pass runs serially: on a 2-vCPU host whose cores are shared with
# other tenants, a 2-worker census pool waited on whichever core was slower,
# and its wall time spread across runs nearly twice as widely as serially.
WORKERS = 1


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN holds the largest child
    return max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def reference_loop() -> float:
    """Seconds taken by a fixed loop that uses no periodeq code: power tables
    modulo the smallest prime above 2**62, the arithmetic of periodeq's CRT builds.
    run.py divides pass times by it to take the host's speed at that moment
    out of them.  Of three loops tried (this one, a small-integer loop and
    schoolbook products of 500-bit integers) it tracked all three workloads'
    pass times most closely."""
    t0 = time.perf_counter()
    q, w = (1 << 62) + 135, 3
    for _ in range(10):
        tab = [1] * 20_000
        for i in range(1, 20_000):
            tab[i] = tab[i - 1] * w % q
        w = tab[-1]
    return time.perf_counter() - t0


def plain_pass(workload: str, e_min: int, e_max: int, p_bound: int) -> dict:
    """The timed pass: one closed-loop batch call through the public API,
    with the reference loop run just before and just after it."""
    before = reference_loop()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    if workload == "sweep":
        report = periodeq.scan(periodeq.ScanSpec(e_min, e_max, p_bound, worker_count=WORKERS))
        text = cli.records_to_csv(report.records)
        parsed = cli.parse_csv_records(text)
    elif workload == "census":
        missing = periodeq.missing_e_census(e_max, p_bound, worker_count=WORKERS)
    else:
        growth = periodeq.cubic_growth(p_bound, worker_count=WORKERS)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    out = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb(), "loop_s": [before, reference_loop()]}
    if workload == "sweep":
        out["answer"] = {
            "csv": text,
            "roundtrip_ok": cli.records_to_csv(parsed) == text,
            "counterexamples": len(report.counterexamples),
        }
    elif workload == "census":
        out["answer"] = {"missing_e": list(missing)}
    else:
        out["answer"] = {
            "checkpoints": [list(c) for c in growth.checkpoints],
            "total_pairs": growth.total_pairs,
            "monogenic_total": growth.monogenic_total,
            "slope": growth.slope,
        }
    out["workers"] = WORKERS
    return out


def main(argv: list[str]) -> None:
    mode, workload = argv[0], argv[1]
    e_min, e_max, p_bound = (int(v) for v in argv[2:5])
    src = (ROOT / "src").resolve()
    if src not in Path(periodeq.__file__).resolve().parents:
        raise SystemExit(f"periodeq was imported from {periodeq.__file__}, not from {src}")
    if workload not in ("sweep", "census", "cubic"):
        raise SystemExit(f"unknown workload {workload!r}")
    out = {"ready": time.monotonic(), "start": T_START}
    if mode == "plain":
        out.update(plain_pass(workload, e_min, e_max, p_bound))
    elif mode == "traced":
        from traced import traced_pass

        out.update(traced_pass(workload, e_min, e_max, p_bound, Path(argv[5])))
    elif mode == "setup":
        out["loop_s"] = [reference_loop()]
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
