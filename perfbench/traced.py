"""The traced pass: classify each pair by calling the stage functions of
``periodeq.classify`` in its order, with a span around each call.

Spans are kept in memory as (name, start_ns, end_ns, parent, e, f), with
the parent given as an index into the span list (-1 for the pass itself),
and are written out as JSON once the pass is over.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from periodeq import (
    ClassificationRecord,
    MatchKind,
    ScanSpec,
    cyclotomic_prime,
    demoivre_unfold,
    discriminant,
    field_discriminant,
    index_squared,
    make_context,
    period_polynomial_modular,
    signature,
)
from periodeq.cli import CSV_HEADER, parse_csv_records, record_to_csv_line, records_to_csv
from periodeq.periods import coefficient_bound
from periodeq.scanner import scan_tasks

from oracles import cubic_checkpoint_bounds

# Layer stages, each timed around one public call; the pass and pair spans
# only group them.
STAGES = (
    "number_theory.make_context",
    "periods.build",
    "intpoly.discriminant",
    "monogeneity.index",
    "intpoly.signature",
    "monogeneity.match",
    "scanner.scan_tasks",
    "cli.csv_write",
    "cli.csv_parse",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []

    def open(self, name: str, parent: int, e: int | None = None, f: int | None = None) -> int:
        self.spans.append([name, time.perf_counter_ns(), 0, parent, e, f])
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()

    def call(self, name: str, parent: int, e, f, fn, *args):
        t0 = time.perf_counter_ns()
        out = fn(*args)
        self.spans.append([name, t0, time.perf_counter_ns(), parent, e, f])
        return out


def _index(ctx, disc: int):
    delta = field_discriminant(ctx.e, ctx.f, ctx.p)
    return delta, index_squared(disc, delta)


def _match(ctx, psi, monogenic: bool) -> MatchKind:
    # classify's own match step is private; this is the same rule built
    # from public functions, so the benchmark does not depend on its name.
    if not monogenic:
        return MatchKind.NO_MATCH
    if ctx.f == 1:
        if psi == cyclotomic_prime(ctx.p):
            return MatchKind.DIRECT_CYCLOTOMIC
    elif ctx.p == 2 * ctx.e + 1:
        if demoivre_unfold(psi) == cyclotomic_prime(ctx.p):
            return MatchKind.REDUCED_CYCLOTOMIC
    return MatchKind.NO_MATCH


def _classify_traced(tr: Tracer, parent: int, e: int, f: int) -> ClassificationRecord:
    pair = tr.open("scanner.pair", parent, e, f)
    ctx = tr.call("number_theory.make_context", pair, e, f, make_context, e, f)
    psi = tr.call("periods.build", pair, e, f, period_polynomial_modular, ctx).poly
    disc = tr.call("intpoly.discriminant", pair, e, f, discriminant, psi)
    delta, (k2, k) = tr.call("monogeneity.index", pair, e, f, _index, ctx, disc)
    sig = tr.call("intpoly.signature", pair, e, f, signature, psi)
    monogenic = k == 1
    match = tr.call("monogeneity.match", pair, e, f, _match, ctx, psi, monogenic)
    tr.close(pair)
    return ClassificationRecord(
        e=e, f=f, p=ctx.p, g=ctx.g, psi=psi, poly_discriminant=disc,
        field_discriminant=delta, k_squared=k2, k=k, monogenic=monogenic,
        signature=sig, match_kind=match,
    )


def _serialize(tr: Tracer, parent: int, records) -> str:
    lines = [CSV_HEADER]
    lines.extend(tr.call("cli.csv_write", parent, r.e, r.f, record_to_csv_line, r) for r in records)
    text = tr.call("cli.csv_write", parent, None, None, lambda: "\n".join(lines) + "\n")
    parsed = tr.call("cli.csv_parse", parent, None, None, parse_csv_records, text)
    if records_to_csv(parsed) != text:
        raise SystemExit("traced CSV does not round-trip")
    return text


def traced_pass(workload: str, e_min: int, e_max: int, p_bound: int, spans_path: Path) -> dict:
    tr = Tracer()
    root = tr.open("pass", -1)
    spec = ScanSpec(e_min, e_max, p_bound)
    tasks = tr.call("scanner.scan_tasks", root, None, None, lambda: list(scan_tasks(spec)))
    records = [_classify_traced(tr, root, e, f) for e, f in tasks]
    if workload == "sweep":
        answer = {"csv": _serialize(tr, root, records)}
    elif workload == "census":
        mono_e = {r.e for r in records if r.monogenic}
        answer = {"missing_e": [e for e in range(4, e_max + 1) if e not in mono_e]}
    else:
        mono_ps = [r.p for r in records if r.monogenic]
        answer = {
            "checkpoints": [[b, sum(p <= b for p in mono_ps)] for b in cubic_checkpoint_bounds(p_bound)],
            "total_pairs": len(records),
            "monogenic_total": len(mono_ps),
        }
    tr.close(root)
    pass_ns = tr.spans[root][2] - tr.spans[root][1]
    if workload == "sweep":
        csv_bytes = len(answer["csv"].encode())
    else:
        # These workloads return summaries only: measure the CSV layer on
        # the same records after the pass, outside its wall time.
        probe = tr.open("cli.probe", -1)
        csv_bytes = len(_serialize(tr, probe, records).encode())
        tr.close(probe)

    metrics = _layer_metrics(tr.spans, records, pass_ns)
    metrics["cli.csv.bytes"] = csv_bytes
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "e", "f"], "spans": tr.spans}))
    return {"wall_s": pass_ns / 1e9, "answer": answer, "layers": metrics}


def _layer_metrics(spans, records, pass_ns: int) -> dict:
    dur: dict[str, list[int]] = {name: [] for name in STAGES + ("scanner.pair",)}
    stage_ns = 0
    for name, t0, t1, parent, _e, _f in spans:
        if name in dur:
            dur[name].append(t1 - t0)
        if name in STAGES and parent != -1 and spans[parent][0] != "cli.probe":
            stage_ns += t1 - t0

    def total_s(name: str) -> float:
        return sum(dur[name]) / 1e9

    def ms_stats(name: str) -> dict:
        ms = sorted(v / 1e6 for v in dur[name])
        return {
            f"{name}.calls": len(ms),
            f"{name}.s": total_s(name),
            f"{name}.ms_p50": statistics.median(ms),
            f"{name}.ms_max": ms[-1],
        }

    pair_ms = sorted(v / 1e6 for v in dur["scanner.pair"])
    k_bits = [r.k.bit_length() for r in records]
    disc_bits = [abs(r.poly_discriminant).bit_length() for r in records]
    mono = sum(r.monogenic for r in records)
    ctxs = [make_context(r.e, r.f) for r in records]
    out = {
        "number_theory.make_context.calls": len(dur["number_theory.make_context"]),
        "number_theory.make_context.s": total_s("number_theory.make_context"),
        **ms_stats("periods.build"),
        "periods.p.sum": sum(r.p for r in records),
        "periods.bound_bits.sum": sum((2 * coefficient_bound(c)).bit_length() for c in ctxs),
        "periods.coeff_bits.max": max(abs(c).bit_length() for r in records for c in r.psi.coeffs),
        **ms_stats("intpoly.discriminant"),
        **ms_stats("intpoly.signature"),
        "intpoly.degree.max": max(r.e for r in records),
        "intpoly.disc_bits.max": max(disc_bits),
        "intpoly.disc_bits.sum": sum(disc_bits),
        "monogeneity.index.calls": len(dur["monogeneity.index"]),
        "monogeneity.index.s": total_s("monogeneity.index"),
        "monogeneity.match.calls": len(dur["monogeneity.match"]),
        "monogeneity.match.s": total_s("monogeneity.match"),
        "monogeneity.k_bits.max": max(k_bits),
        "monogeneity.monogenic.count": mono,
        "monogeneity.monogenic_ratio": mono / len(records),
        "scanner.tasks.count": len(records),
        "scanner.scan_tasks.s": total_s("scanner.scan_tasks"),
        "scanner.pair_ms.p50": statistics.median(pair_ms),
        "scanner.pair_ms.p99": pair_ms[min(len(pair_ms) - 1, round(0.99 * (len(pair_ms) - 1)))],
        "scanner.pair_ms.max": pair_ms[-1],
        "scanner.pair_ms.sum": sum(pair_ms),
        "cli.csv_write.s": total_s("cli.csv_write"),
        "cli.csv_parse.s": total_s("cli.csv_parse"),
        "trace.stage_cover": stage_ns / pass_ns,
    }
    return out
