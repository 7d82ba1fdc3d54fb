"""Command-line interface and the CSV/JSON wire formats.

Exit codes: 0 success, 2 invalid input (an --output that cannot be written
too), 3 verification mismatch, 4 internal arithmetic contradiction (a bug,
not a property of the input).

A record's wire fields are named once, by record_to_json_dict in CSV_HEADER
order, and read back only by record_from_json_dict; CSV respells monogenic
as true/false and packs the coefficient vector, highest degree first, into
one space-separated quoted field.  Integers that can exceed 64 bits (k, k^2,
coefficients) are decimal strings in JSON.  Every printed integer is spelled
by intpoly.int_str, past the int-to-str digit limit too.  CSV round-trips
byte for byte through parse_csv_records, the inverse of record_to_csv_line,
and each record of a JSON report through record_from_json_dict, which reads
an integer only as int_str spells it (a coefficient list in one pass where
it can), checks the rules on the primary fields, builds the record from
(e, f, k) with ClassificationRecord.from_index and compares the six derived
fields with it; a malformed or self-contradictory record raises ValueError,
quoting at most 40 characters of a value.  No reader takes a JSON report whole.
"""

from __future__ import annotations

import json
import re
import sys

from .intpoly import IntPoly, cyclotomic_prime, demoivre_unfold, halved_cyclotomic_prime, int_str, int_strs
from .monogeneity import ClassificationRecord, MatchKind, classify, psi_and_index
from .number_theory import MAX_P, InternalContradiction, PrimeContext, is_prime, is_primitive_root, make_context
from .periods import period_polynomial_exact
from .reference_table import TABLE_ROWS, ReferenceRow
from .scanner import ScanReport, ScanSpec, census, cubic_growth, doublet_survey, scan

CSV_HEADER = "e,f,p,g,n_real,delta_sign,delta_exponent,k_squared,k,monogenic,match_kind,coeffs"
_FIELDS = CSV_HEADER.split(",")
# str(n) for ints n, one per space: a "-" only before a nonzero digit, no leading zero
_CANONICAL = re.compile(r"(-?[1-9][0-9]*|0)( (-?[1-9][0-9]*|0))*")
_DERIVED = ("k_squared", "monogenic", "n_real", "delta_sign", "delta_exponent", "match_kind")


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
        "k_squared": int_str(rec.k_squared),
        "k": int_str(rec.k),
        "monogenic": rec.monogenic,
        "match_kind": rec.match_kind.value,
        "coeffs": int_strs(rec.psi.high_to_low()),
    }


def _wire_int(name: str, v) -> int:
    """An int, or a decimal string as int_str spells it, such as "-12", as an
    int; "+1", "007", "0_4", "5 ", "1e9" or non-ASCII digits would not write
    back.  Past the digit limit, decimal reads ASCII digits after an optional "-"."""
    if type(v) is int:
        return v
    try:
        if type(v) is str and str(n := int(v)) == v:
            return n
    except ValueError:
        if v.isascii() and v[v[:1] == "-":].isdigit():
            from decimal import Decimal
            if int_str(n := int(Decimal(v))) == v:
                return n
    raise ValueError(f"{name} must be an integer, got {_head(v, repr) if type(v) is str else repr(v)}")


def _wire_ints(values: list) -> list:
    """[_wire_int("coeffs", v) for v in values], in one pass when the values
    are strings spelled as str spells an int, tested at once on their join."""
    try:
        if _CANONICAL.fullmatch(" ".join(values)):
            return list(map(int, values))
    except (TypeError, ValueError):  # a value that is not a string, or one past the digit limit
        pass
    return [_wire_int("coeffs", v) for v in values]


def _head(text: str, spell=str) -> str:
    """spell(text), or past 40 characters spell of its first 40 and text's length."""
    return spell(text) if len(text) <= 40 else f"{spell(text[:40])}... ({len(text)} characters)"


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
    e, f, p, g, k = n["e"], n["f"], n["p"], n["g"], n["k"]
    coeffs = _wire_ints(d["coeffs"])
    # the rules on the primary fields, in order: each may assume the ones before it
    rule = ("p = e*f + 1" if p != e * f + 1
            else "k >= 1" if k < 1
            else "coeffs of degree e with leading coefficient 1" if len(coeffs) != e + 1 or coeffs[:1] != [1]
            else f"p <= MAX_P = {MAX_P}" if p > MAX_P
            else "g a primitive root mod the prime p" if not is_primitive_root(g, p) else None)
    if rule:
        raise ValueError(f"record (e={e}, f={f}) breaks {rule}")
    rec = ClassificationRecord.from_index(PrimeContext(p, e, f, g), IntPoly.from_high_to_low(coeffs), k)
    n["monogenic"], n["match_kind"] = d["monogenic"], MatchKind(d["match_kind"]).value
    delta = rec.field_discriminant
    for name, value in zip(_DERIVED, (rec.k_squared, rec.monogenic, rec.signature.n_real, delta.sign,
                                      delta.exponent, rec.match_kind.value)):
        if n[name] != value:
            raise ValueError(f"record (e={e}, f={f}) has {name} {_head(int_str(n[name]))}, but its (e, f, k) give {_head(int_str(value))}")
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
    """The records of records_to_csv's text, read as record_to_csv_line writes
    them: "\n" ends a line, "," a field, and the last field quotes the
    coefficients one space apart.  Blank lines are skipped; else ValueError."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    out = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        row = line.split(",")
        if len(row) != len(_FIELDS):
            raise ValueError(f"CSV line {line_no} has {len(row)} fields, the header {len(_FIELDS)}")
        d = dict(zip(_FIELDS, row))
        # any other spelling stays a string, which record_from_json_dict rejects
        d["monogenic"] = {"true": True, "false": False}.get(d["monogenic"], d["monogenic"])
        body = d["coeffs"][1:-1]
        if f'"{body}"' != d["coeffs"]:
            raise ValueError(f"CSV line {line_no} has coeffs {_head(d['coeffs'], repr)}, not one quoted field")
        d["coeffs"] = body.split(" ")
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


def cmd_psi(args) -> int:
    ctx = make_context(args.e, args.f)
    # the exact engine is the independent reference; the default is classify's psi
    poly = period_polynomial_exact(ctx).poly if args.engine == "exact" else psi_and_index(ctx)[0]
    if args.format == "text":
        print(poly.to_str())
    elif args.format == "csv":
        coeffs = " ".join(int_strs(poly.high_to_low()))
        print("e,f,p,g,coeffs")
        print(f'{ctx.e},{ctx.f},{ctx.p},{ctx.g},"{coeffs}"')
    else:
        obj = {"e": ctx.e, "f": ctx.f, "p": ctx.p, "g": ctx.g, "coeffs": int_strs(poly.high_to_low())}
        print(json.dumps(obj, indent=2))
    return 0


def cmd_classify(args) -> int:
    rec = classify(make_context(args.e, args.f))
    if args.format == "text":
        # D as k^2 * delta, as D can pass the int-to-str digit limit
        delta = rec.field_discriminant
        delta_text = f"{'-' if delta.sign < 0 else '+'}{delta.p}^{delta.exponent}"
        k_squared = int_str(rec.k_squared)
        print(
            f"e={rec.e} f={rec.f} p={rec.p} g={rec.g}\n"
            f"psi = {rec.psi.to_str()}\n"
            f"poly discriminant D = {k_squared} * {delta_text}\n"
            f"field discriminant = {delta_text}\n"
            f"k^2 = {k_squared}, k = {int_str(rec.k)}\n"
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
            f"counterexample: e={rec.e} f={rec.f} p={rec.p} k={int_str(rec.k)} match={rec.match_kind.value}",
            file=sys.stderr,
        )
    return 3 if report.counterexamples else 0


def cmd_doublets(args) -> int:
    ScanSpec(args.e_min, args.e_max, 2 * args.e_max + 1)  # doublet_survey's check of --e-min
    every = doublet_survey(args.e_max, e_min=1)  # one sieve, to 2 e_max + 1, for both counts
    found = [e for e in every if e >= args.e_min]
    print(" ".join(map(str, found)))
    print(f"count for {args.e_min} <= e <= {args.e_max}: {len(found)}")
    if args.e_min > 2:
        print(f"count for 2 <= e <= {args.e_max}: {len(every)}", file=sys.stderr)
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
