"""Command-line interface and the CSV/JSON wire formats.

Exit codes: 0 success, 2 invalid input (an --output that cannot be written
too), 3 verification mismatch, 4 internal arithmetic contradiction (a bug,
not a property of the input).

A record's wire fields are named once, by record_to_json_dict in
CSV_HEADER order, and read back only by record_from_json_dict; CSV respells
monogenic as true/false and packs the coefficient vector, highest degree
first, into one space-separated quoted field.  Integers that can exceed 64
bits (k, k^2, coefficients) are decimal strings in JSON.  CSV round-trips
byte for byte through parse_csv_records, and each record of a JSON report
through record_from_json_dict, which reads an integer only as str(n) spells
it, checks the rules on the primary fields, builds the record from (e, f, k)
with ClassificationRecord.from_index and compares the six derived fields
with it; a malformed or self-contradictory record raises ValueError.
Nothing reads a JSON report as a whole.
"""

from __future__ import annotations

import csv
import io
import json
import sys

from .intpoly import IntPoly, cyclotomic_prime, demoivre_unfold, halved_cyclotomic_prime
from .monogeneity import ClassificationRecord, MatchKind, classify, psi_and_index
from .number_theory import MAX_P, InternalContradiction, PrimeContext, is_prime, is_primitive_root, make_context
from .periods import period_polynomial_exact
from .reference_table import TABLE_ROWS, ReferenceRow
from .scanner import ScanReport, ScanSpec, census, cubic_growth, doublet_survey, scan

CSV_HEADER = "e,f,p,g,n_real,delta_sign,delta_exponent,k_squared,k,monogenic,match_kind,coeffs"
_FIELDS = CSV_HEADER.split(",")
# The largest p whose halving prints within CPython's default 4300-digit
# int-to-str limit: 4299 digits at most, where the next prime, 41177, has 4301.
REDUCE_MAX_P = 41161


# -- record serialization ----------------------------------------------


def record_to_json_dict(rec: ClassificationRecord) -> dict:
    """The wire fields of rec, in CSV_HEADER order."""
    return {
        "e": rec.e,
        "f": rec.f,
        "p": rec.p,
        "g": rec.g,
        "n_real": rec.signature.n_real,
        "delta_sign": rec.field_discriminant.sign,
        "delta_exponent": rec.field_discriminant.exponent,
        "k_squared": str(rec.k_squared),
        "k": str(rec.k),
        "monogenic": rec.monogenic,
        "match_kind": rec.match_kind.value,
        "coeffs": [str(c) for c in rec.psi.high_to_low()],
    }


def _wire_int(name: str, v) -> int:
    """An int, or a decimal string as str(n) spells it, such as "-12", as an
    int; "+1", "007", "0_4", "5 " or non-ASCII digits would not write back."""
    if type(v) is int:
        return v
    try:
        if type(v) is str and str(n := int(v)) == v:
            return n
    except ValueError:
        pass
    raise ValueError(f"{name} must be an integer, got {v!r}")


def _record_rules(n: dict, coeffs: list[int]):
    """(holds, rule) for each rule on a record's primary fields, lazily: each
    rule may assume the ones before it."""
    e, f, p, g, k = (n[name] for name in ("e", "f", "p", "g", "k"))
    yield p == e * f + 1, "p = e*f + 1"
    yield k >= 1, "k >= 1"
    yield len(coeffs) == e + 1 and coeffs[:1] == [1], "coeffs of degree e with leading coefficient 1"
    yield p <= MAX_P, f"p <= MAX_P = {MAX_P}"
    yield is_primitive_root(g, p), "g a primitive root mod the prime p"


def record_from_json_dict(d: dict) -> ClassificationRecord:
    """Build a record from its primary wire fields with
    ClassificationRecord.from_index; a malformed field, primary fields that
    contradict each other, or a derived field other than the built record's
    raise ValueError.  The rules' order test of g proves p prime, so p is
    not proven again."""
    if not isinstance(d, dict) or d.keys() != set(_FIELDS) or type(d["coeffs"]) is not list:
        raise ValueError(f"a record needs exactly the fields {CSV_HEADER}, with coeffs a list")
    if type(d["monogenic"]) is not bool:
        raise ValueError(f"monogenic must be a boolean, got {d['monogenic']!r}")
    n = {k: _wire_int(k, v) for k, v in d.items() if k not in ("monogenic", "match_kind", "coeffs")}
    e, f = n["e"], n["f"]
    coeffs = [_wire_int("coeffs", c) for c in d["coeffs"]]
    for holds, rule in _record_rules(n, coeffs):
        if not holds:
            raise ValueError(f"record (e={e}, f={f}) breaks {rule}")
    ctx, psi = PrimeContext(n["p"], e, f, n["g"]), IntPoly.from_high_to_low(coeffs)
    rec = ClassificationRecord.from_index(ctx, psi, n["k"])
    n["monogenic"], n["match_kind"] = d["monogenic"], MatchKind(d["match_kind"]).value
    built = {
        "k_squared": rec.k_squared,
        "monogenic": rec.monogenic,
        "n_real": rec.signature.n_real,
        "delta_sign": rec.field_discriminant.sign,
        "delta_exponent": rec.field_discriminant.exponent,
        "match_kind": rec.match_kind.value,
    }
    for name, value in built.items():
        if n[name] != value:
            raise ValueError(f"record (e={e}, f={f}) has {name} {n[name]}, but its (e, f, k) give {value}")
    return rec


def record_to_csv_line(rec: ClassificationRecord) -> str:
    d = record_to_json_dict(rec)
    d["monogenic"] = "true" if d["monogenic"] else "false"
    d["coeffs"] = '"' + " ".join(d["coeffs"]) + '"'
    return ",".join(map(str, d.values()))


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    lines.extend(record_to_csv_line(r) for r in records)
    return "\n".join(lines) + "\n"


def parse_csv_records(text: str) -> list[ClassificationRecord]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != _FIELDS:
        raise ValueError("missing or malformed CSV header")
    out = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(_FIELDS):
            raise ValueError(f"CSV line {line_no} has {len(row)} fields, the header {len(_FIELDS)}")
        d = dict(zip(_FIELDS, row))
        # any other spelling stays a string, which record_from_json_dict rejects
        d["monogenic"] = {"true": True, "false": False}.get(d["monogenic"], d["monogenic"])
        d["coeffs"] = d["coeffs"].split()
        out.append(record_from_json_dict(d))
    return out


def report_to_json(report: ScanReport) -> str:
    obj = {
        "spec": {
            "e_min": report.spec.e_min,
            "e_max": report.spec.e_max,
            "p_bound": report.spec.p_bound,
            "mode": "full",
        },
        "records": [record_to_json_dict(r) for r in report.records],
        "missing_e": list(report.missing_e),
        "doublets": list(report.doublets),
        "counterexamples": [record_to_json_dict(r) for r in report.counterexamples],
    }
    return json.dumps(obj, indent=2) + "\n"


# -- reference table verification --------------------------------------


def verify_reference_rows() -> list[tuple[ReferenceRow, bool, str]]:
    """Recompute each pinned row from scratch; returns (row, ok, detail)."""
    results = []
    for row in TABLE_ROWS:
        rec = classify(make_context(row.e, row.f))
        problems = []
        if rec.psi.high_to_low() != row.coeffs_high_to_low:
            problems.append("coefficients differ")
        if rec.signature.n_real != row.n_real:
            problems.append(f"n_real {rec.signature.n_real} != {row.n_real}")
        if rec.poly_discriminant != row.expected_discriminant():
            problems.append("discriminant differs")
        if not rec.monogenic:
            problems.append(f"k = {rec.k}, expected 1")
        if rec.match_kind is MatchKind.NO_MATCH:
            problems.append("no cyclotomic match")
        results.append((row, not problems, "; ".join(problems) or "ok"))
    return results


# -- subcommands --------------------------------------------------------


def _emit(text: str, path: str | None, mode: str = "w") -> None:
    if path:
        try:
            with open(path, mode) as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --output {path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _printable_halving(p: int) -> None:
    """ValueError for a halving of Phi_p with a coefficient past the int-to-str limit."""
    if p > REDUCE_MAX_P:
        raise ValueError(f"p = {p} is above REDUCE_MAX_P = {REDUCE_MAX_P}, past the int-to-str limit")


def _printable_context(e: int, f: int) -> PrimeContext:
    """make_context(e, f), refused at once for f == 2 where psi, the halving
    of Phi_p, could not be printed."""
    ctx = make_context(e, f)
    if f == 2:
        _printable_halving(ctx.p)
    return ctx


def cmd_psi(args) -> int:
    ctx = _printable_context(args.e, args.f)
    # the exact engine is the independent reference; the default is classify's psi
    poly = period_polynomial_exact(ctx).poly if args.engine == "exact" else psi_and_index(ctx)[0]
    if args.format == "text":
        print(poly.to_str())
    elif args.format == "csv":
        coeffs = " ".join(str(c) for c in poly.high_to_low())
        print("e,f,p,g,coeffs")
        print(f'{ctx.e},{ctx.f},{ctx.p},{ctx.g},"{coeffs}"')
    else:
        obj = {"e": ctx.e, "f": ctx.f, "p": ctx.p, "g": ctx.g, "coeffs": [str(c) for c in poly.high_to_low()]}
        print(json.dumps(obj, indent=2))
    return 0


def cmd_classify(args) -> int:
    rec = classify(_printable_context(args.e, args.f))
    if args.format == "text":
        # D as k^2 * delta, as D can pass the int-to-str digit limit
        delta = rec.field_discriminant
        delta_text = f"{'-' if delta.sign < 0 else '+'}{delta.p}^{delta.exponent}"
        print(
            f"e={rec.e} f={rec.f} p={rec.p} g={rec.g}\n"
            f"psi = {rec.psi.to_str()}\n"
            f"poly discriminant D = {rec.k_squared} * {delta_text}\n"
            f"field discriminant = {delta_text}\n"
            f"k^2 = {rec.k_squared}, k = {rec.k}\n"
            f"monogenic: {'yes' if rec.monogenic else 'no'}\n"
            f"signature: {rec.signature.n_real} real, {rec.signature.n_complex_pairs} complex pairs\n"
            f"match: {rec.match_kind.value}"
        )
    elif args.format == "csv":
        print(records_to_csv([rec]), end="")
    else:
        print(json.dumps(record_to_json_dict(rec), indent=2))
    return 0


def cmd_reduce(args) -> int:
    _printable_halving(args.p)
    print(halved_cyclotomic_prime(args.p).to_str())
    return 0


def cmd_unfold(args) -> int:
    unfolded = demoivre_unfold(psi_and_index(make_context(args.e, args.f))[0])
    print(unfolded.to_str())
    q = 2 * args.e + 1
    if is_prime(q) and unfolded == cyclotomic_prime(q):
        print(f"matches the cyclotomic polynomial of {q}", file=sys.stderr)
    return 0


def _parse_e_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def cmd_scan(args) -> int:
    e_min, e_max = _parse_e_range(args.e_range)
    spec = ScanSpec(e_min, e_max, args.p_bound, args.workers)
    # appending nothing refuses an unwritable path before the work and truncates no file
    _emit("", args.output, "a")
    # the summary needs only the monogenic records; csv and json need every record
    report = census(spec) if args.format == "text" else scan(spec)
    if args.format == "csv":
        _emit(records_to_csv(report.records), args.output)
    elif args.format == "json":
        _emit(report_to_json(report), args.output)
    else:
        lines = [
            f"scanned e in [{spec.e_min}, {spec.e_max}], p <= {spec.p_bound}, "
            f"mode=full: {report.pairs} pairs",
            f"monogenic pairs: {len(report.records)}",
            f"missing e: {' '.join(map(str, report.missing_e)) or 'none'}",
            f"doublets: {' '.join(map(str, report.doublets)) or 'none'}",
            f"counterexamples: {len(report.counterexamples)}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    for rec in report.counterexamples:
        print(
            f"counterexample: e={rec.e} f={rec.f} p={rec.p} k={rec.k} match={rec.match_kind.value}",
            file=sys.stderr,
        )
    return 3 if report.counterexamples else 0


def cmd_doublets(args) -> int:
    found = doublet_survey(args.e_max, e_min=args.e_min)
    print(" ".join(map(str, found)))
    print(f"count for {args.e_min} <= e <= {args.e_max}: {len(found)}")
    if args.e_min > 2:
        wide = len(found) + len(doublet_survey(args.e_min - 1, e_min=2))  # sieves to 2 e_min - 1 only
        print(f"count for 2 <= e <= {args.e_max}: {wide}", file=sys.stderr)
    return 0


def cmd_cubic_growth(args) -> int:
    report = cubic_growth(args.p_bound)
    print(f"e=3, p = 3f + 1 <= {report.p_bound}: {report.total_pairs} pairs, "
          f"{report.monogenic_total} monogenic")
    for bound, count in report.checkpoints:
        print(f"p <= {bound}: {count} monogenic")
    if report.slope is not None:
        print(f"log-log slope: {report.slope:.4f}")
    else:
        print("log-log slope: undefined (not enough checkpoints)")
    return 0


def cmd_table1(args) -> int:
    results = verify_reference_rows()
    failures = 0
    for row, ok, detail in results:
        status = "PASS" if ok else f"FAIL ({detail})"
        print(f"e={row.e:<3d} p={row.p:<3d} {status}")
        if not ok:
            failures += 1
    print(f"{len(results)} rows checked, {len(results) - failures} pass, {failures} fail")
    return 3 if failures else 0


def build_parser():
    import argparse  # here, so importing periodeq.cli does not pay for it
    parser = argparse.ArgumentParser(
        prog="periodeq",
        description="Exact Gaussian period equations and monogeneity surveys",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default="text", choices=("text", "csv", "json")):
        p.add_argument("--format", default=default, choices=choices)

    p = sub.add_parser("psi", help="construct one period polynomial")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--engine", default="modular", choices=("modular", "exact"))
    add_format(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("classify", help="classify one (e, f) pair")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reduce", help="halve the p-th cyclotomic polynomial via x + 1/x")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("unfold", help="unfold a period polynomial through x + 1/x")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.set_defaults(func=cmd_unfold)

    p = sub.add_parser("scan", help="survey a rectangle of (e, f) pairs")
    p.add_argument("--e-range", required=True, help="e.g. 4:60")
    p.add_argument("--p-bound", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", default=None)
    add_format(p, default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("doublets", help="e where both f=1 and f=2 are monogenic")
    p.add_argument("--e-max", type=int, required=True)
    p.add_argument("--e-min", type=int, default=4)
    p.set_defaults(func=cmd_doublets)

    p = sub.add_parser("cubic-growth", help="monogenic growth curve for e = 3")
    p.add_argument("--p-bound", type=int, required=True)
    p.set_defaults(func=cmd_cubic_growth)

    p = sub.add_parser("table1", help="regenerate and verify the reference table")
    p.set_defaults(func=cmd_table1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalContradiction as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
