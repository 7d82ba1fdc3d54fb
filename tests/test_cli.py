import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodeq.cli import (
    CSV_HEADER,
    main,
    parse_csv_records,
    record_from_json_dict,
    record_to_json_dict,
    records_to_csv,
    report_to_json,
    verify_reference_rows,
)
from periodeq.intpoly import IntPoly, Signature
from periodeq.monogeneity import (
    ClassificationRecord,
    FieldDiscriminant,
    MatchKind,
    classify,
    field_discriminant,
)
from periodeq.number_theory import is_prime, make_context, primitive_root
from periodeq.reference_table import TABLE_ROWS, ReferenceRow
from periodeq.scanner import ScanSpec, scan, scan_tasks, summarize

QUINTIC = "x^5+x^4-4x^3-3x^2+3x+1"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- basic commands -------------------------------------------------------


def test_psi_text(capsys):
    code, out, err = run(capsys, ["psi", "--e", "5", "--f", "2"])
    assert code == 0
    assert out.strip() == QUINTIC


def test_psi_exact_engine_agrees(capsys):
    code, out, _ = run(capsys, ["psi", "--e", "5", "--f", "2", "--engine", "exact"])
    assert code == 0
    assert out.strip() == QUINTIC


def test_psi_rejects_composite(capsys):
    code, out, err = run(capsys, ["psi", "--e", "4", "--f", "2"])
    assert code == 2
    assert "9 is not prime" in err


def test_psi_rejects_bad_shape(capsys):
    code, _, err = run(capsys, ["psi", "--e", "0", "--f", "2"])
    assert code == 2


def test_psi_over_the_table_budget_exits_2_before_any_table(capsys, monkeypatch):
    import periodeq.periods as periods_mod

    def no_table(base, mod, n):
        raise AssertionError(f"a table of {n} entries was built")

    monkeypatch.setattr(periods_mod, "_power_table", no_table)
    start = time.perf_counter()
    code, out, err = run(capsys, ["psi", "--e", "2", "--f", "8388629"])  # p = 16777259
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "table budget MAX_TABLE_ENTRIES" in err


def test_classify_rejects_p_beyond_primality_bound(capsys):
    from periodeq.number_theory import PRIME_TEST_BOUND

    code, _, err = run(capsys, ["classify", "--e", "1", "--f", str(PRIME_TEST_BOUND - 1)])
    assert code == 2
    assert "primality range" in err


def test_psi_json(capsys):
    code, out, _ = run(capsys, ["psi", "--e", "5", "--f", "2", "--format", "json"])
    obj = json.loads(out)
    assert obj["p"] == 11 and obj["g"] == 2
    assert obj["coeffs"] == ["1", "1", "-4", "-3", "3", "1"]


def test_psi_csv(capsys):
    code, out, _ = run(capsys, ["psi", "--e", "5", "--f", "2", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "e,f,p,g,coeffs"
    assert lines[1] == '5,2,11,2,"1 1 -4 -3 3 1"'


def test_classify_text(capsys):
    code, out, _ = run(capsys, ["classify", "--e", "5", "--f", "2"])
    assert code == 0
    assert "monogenic: yes" in out
    assert "match: reduced" in out
    assert QUINTIC in out


def test_classify_csv_round_trip(capsys):
    code, out, _ = run(capsys, ["classify", "--e", "4", "--f", "4", "--format", "csv"])
    assert code == 0
    records = parse_csv_records(out)
    assert len(records) == 1
    assert records[0] == classify(make_context(4, 4))


def test_classify_json_round_trip(capsys):
    code, out, _ = run(capsys, ["classify", "--e", "6", "--f", "3", "--format", "json"])
    rec = record_from_json_dict(json.loads(out))
    assert rec == classify(make_context(6, 3))


def test_reduce(capsys):
    code, out, _ = run(capsys, ["reduce", "--p", "11"])
    assert code == 0
    assert out.strip() == QUINTIC


def test_reduce_rejects_composite_and_even(capsys):
    code, _, err = run(capsys, ["reduce", "--p", "12"])
    assert code == 2
    assert "12 is not prime" in err
    code, _, err = run(capsys, ["reduce", "--p", "2"])
    assert code == 2  # x + 1 has odd degree


def test_unfold(capsys):
    code, out, err = run(capsys, ["unfold", "--e", "5", "--f", "2"])
    assert code == 0
    assert out.strip() == "x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1"
    assert "matches the cyclotomic polynomial of 11" in err


def test_unfold_without_cyclotomic_match(capsys):
    # x^4 * psi(x + 1/x) is a degree-8 palindrome but not a cyclotomic polynomial
    code, out, err = run(capsys, ["unfold", "--e", "4", "--f", "3"])
    assert code == 0
    assert out.strip().startswith("x^8+")
    assert "matches the cyclotomic polynomial" not in err


# -- serialization --------------------------------------------------------


def make_report():
    return scan(ScanSpec(4, 6, 20))


def test_csv_byte_round_trip():
    report = make_report()
    text = records_to_csv(report.records)
    assert text.splitlines()[0] == CSV_HEADER
    parsed = parse_csv_records(text)
    assert tuple(parsed) == report.records
    assert records_to_csv(parsed) == text


def test_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_csv_records("nope\n1,2\n")


def assert_json_records_round_trip(report, text):
    # each record of the JSON text of report reads back through
    # record_from_json_dict; the records give back its bytes and its summary
    again = summarize(report.spec, [record_from_json_dict(d) for d in json.loads(text)["records"]])
    assert again.records == report.records
    assert report_to_json(again) == text
    assert (again.missing_e, again.doublets) == (report.missing_e, report.doublets)


def test_json_byte_round_trip():
    report = make_report()
    assert_json_records_round_trip(report, report_to_json(report))


def test_json_big_integers_as_strings():
    rec = classify(make_context(6, 3))
    d = record_to_json_dict(rec)
    assert d["k_squared"] == "5929"
    assert d["k"] == "77"
    assert all(isinstance(c, str) for c in d["coeffs"])
    assert record_from_json_dict(d) == rec


BIG = 2**200


def draw_record(draw, e, f):
    """A record of (e, f) that keeps every wire rule: a primitive root g, the
    field discriminant's sign and exponent, a monic psi of degree e, k >= 1
    with monogenic iff k = 1, and Gauss's n_real: e for even f, 0 for odd f."""
    p = e * f + 1
    t = draw(st.integers(1, p - 1))
    while math.gcd(t, p - 1) != 1:
        t += 1
    n_real = e if f % 2 == 0 else 0
    k = draw(st.one_of(st.just(1), st.integers(1, BIG)))
    coeffs = [1] + draw(st.lists(st.integers(-BIG, BIG), min_size=e, max_size=e))
    delta = field_discriminant(e, f, p)
    return ClassificationRecord(
        e=e,
        f=f,
        p=p,
        g=pow(primitive_root(p), t, p),
        psi=IntPoly.from_high_to_low(coeffs),
        poly_discriminant=k * k * delta.value(),
        field_discriminant=delta,
        k_squared=k * k,
        k=k,
        monogenic=k == 1,
        signature=Signature(n_real=n_real, n_complex_pairs=(e - n_real) // 2),
        match_kind=draw(st.sampled_from(MatchKind)),
    )


@st.composite
def records(draw):
    e = draw(st.integers(1, 12))
    f = draw(st.integers(1, 10**6))
    while e * f + 1 < 3 or not is_prime(e * f + 1):
        f += 1
    return draw_record(draw, e, f)


@st.composite
def reports(draw):
    """The records of every pair of a small spec, in scan order."""
    e_min = draw(st.integers(1, 8))
    e_max = draw(st.integers(e_min, e_min + 4))
    spec = ScanSpec(e_min, e_max, draw(st.integers(max(e_max + 1, 3), 60)))
    return summarize(spec, [draw_record(draw, e, f) for e, f in scan_tasks(spec)])


@settings(max_examples=30, deadline=None)
@given(st.lists(records(), max_size=4), reports())
def test_fuzz_csv_and_json_round_trip(recs, report):
    text = records_to_csv(recs)
    parsed = parse_csv_records(text)
    assert parsed == recs
    assert records_to_csv(parsed) == text

    assert_json_records_round_trip(report, report_to_json(report))


def csv_row(**changes):
    """The CSV of classify(4, 1) with some fields replaced."""
    line = records_to_csv([classify(make_context(4, 1))]).splitlines()[1]
    fields = dict(zip(CSV_HEADER.split(","), line.split(",")))
    fields.update(changes)
    return CSV_HEADER + "\n" + ",".join(fields.values()) + "\n"


def json_record(**changes):
    d = record_to_json_dict(classify(make_context(4, 1)))
    d.update(changes)
    return d


def test_csv_row_helper_parses():
    assert parse_csv_records(csv_row()) == [classify(make_context(4, 1))]


@pytest.mark.parametrize("count", [10, 11, 13])
def test_csv_row_with_wrong_field_count_is_rejected(count):
    row = (csv_row().splitlines()[1].split(",") * 2)[:count]
    with pytest.raises(ValueError, match=f"line 2 has {count} fields"):
        parse_csv_records(CSV_HEADER + "\n" + ",".join(row) + "\n")


@pytest.mark.parametrize(
    "field, value", [("e", 4.5), ("p", True), ("k", "4.5"), ("k_squared", "0x10"), ("g", None)]
)
def test_json_non_integer_field_is_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        record_from_json_dict(json_record(**{field: value}))


@pytest.mark.parametrize("coeff", [1.5, "x", "", "1 0", True])
def test_json_non_integer_coefficient_is_rejected(coeff):
    with pytest.raises(ValueError, match="coeffs"):
        record_from_json_dict(json_record(coeffs=["1", coeff]))


@pytest.mark.parametrize("field", ["e", "n_real", "k"])
def test_csv_non_integer_field_is_rejected(field):
    with pytest.raises(ValueError, match=field):
        parse_csv_records(csv_row(**{field: "4.5"}))


def test_json_decimal_string_is_read_as_int():
    assert record_from_json_dict(json_record(p="5", e="4", k=1)) == classify(make_context(4, 1))


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_json_monogenic_must_be_a_boolean(value):
    with pytest.raises(ValueError, match="monogenic"):
        record_from_json_dict(json_record(monogenic=value))
    rec = json.loads(report_to_json(make_report()))["records"][0]
    with pytest.raises(ValueError, match="monogenic"):
        record_from_json_dict(dict(rec, monogenic=value))


@pytest.mark.parametrize("value", ["True", "yes", "1", ""])
def test_csv_monogenic_must_be_true_or_false(value):
    with pytest.raises(ValueError, match="monogenic"):
        parse_csv_records(csv_row(monogenic=value))


@pytest.mark.parametrize("value", ["cyclotomic", "DIRECT", "", None])
def test_unknown_match_kind_is_rejected(value):
    with pytest.raises(ValueError, match="MatchKind"):
        record_from_json_dict(json_record(match_kind=value))
    if value is not None:
        with pytest.raises(ValueError, match="MatchKind"):
            parse_csv_records(csv_row(match_kind=value))


@pytest.mark.parametrize(
    "changes, rule",
    [
        ({"p": 7}, "p = e\\*f \\+ 1"),
        ({"k": "0", "k_squared": "0", "monogenic": False}, "k >= 1"),
        ({"k": "-2", "monogenic": False}, "k >= 1"),
        ({"k_squared": "2"}, "k\\^2 = k_squared"),
        ({"monogenic": False}, "monogenic iff k = 1"),
        ({"k": "2", "k_squared": "4"}, "monogenic iff k = 1"),
        ({"n_real": 6}, "n_real = e if f is even, else 0"),
        ({"n_real": -2}, "n_real = e if f is even, else 0"),
        ({"n_real": 1}, "n_real = e if f is even, else 0"),
        ({"delta_exponent": 4}, "delta_exponent = e - 1"),
        ({"delta_sign": -1}, "delta_sign of the field discriminant"),
        ({"coeffs": ["1", "1", "1", "1"]}, "coeffs of degree e"),
        ({"coeffs": ["2", "1", "1", "1", "1"]}, "coeffs of degree e with leading coefficient 1"),
        ({"coeffs": ["0", "1", "1", "1", "1", "1"]}, "coeffs of degree e"),
        ({"g": 4}, "g a primitive root mod the prime p"),
        ({"g": 7}, "g a primitive root mod the prime p"),
        # (4, 1) is totally complex: an n_real of the right parity is still wrong
        ({"n_real": 2}, "n_real = e if f is even, else 0"),
        ({"n_real": 4}, "n_real = e if f is even, else 0"),
    ],
)
def test_self_contradictory_record_is_rejected(changes, rule):
    # classify(4, 1) is monogenic: p = 5, k = 1, n_real = 0
    with pytest.raises(ValueError, match=f"\\(e=4, f=1\\) breaks {rule}"):
        record_from_json_dict(json_record(**changes))


def test_report_with_self_contradictory_record_is_rejected():
    obj = json.loads(report_to_json(scan(ScanSpec(4, 4, 17))))
    rec = next(r for r in obj["records"] if r["f"] == 4)
    assert (rec["k"], rec["monogenic"]) == ("2", False)
    with pytest.raises(ValueError, match="breaks monogenic iff k = 1"):
        record_from_json_dict(dict(rec, monogenic=True, n_real=7))
    # (4, 4) is totally real (n_real 4): 2 and 0 keep the parity of e yet break Gauss's rule
    for n_real in (7, 2, 0):
        with pytest.raises(ValueError, match="\\(e=4, f=4\\) breaks n_real = e if f is even, else 0"):
            record_from_json_dict(dict(rec, n_real=n_real))


@pytest.mark.parametrize(
    "p, g",
    [
        (100000000005083, 2),  # a safe prime: p - 1 = 2 * 50000000002541
        # 82 bits: p - 1 = 2 * q1 * q2 with q1, q2 the two primes above 2^40
        (2417851640636633232984383, 5),
    ],
)
def test_record_with_a_large_p_is_checked_quickly(p, g):
    # psi_2 = x^2 + x + (p + 1)/4 for p ≡ 3 (mod 4), in the shape of classify(2, 3)
    d = record_to_json_dict(classify(make_context(2, 3)))
    d.update(f=(p - 1) // 2, p=p, g=g, coeffs=["1", "1", str((p + 1) // 4)])
    start = time.perf_counter()
    rec = record_from_json_dict(d)
    assert (rec.p, rec.g) == (p, g)
    with pytest.raises(ValueError, match="g a primitive root mod the prime p"):
        record_from_json_dict(dict(d, g=4))
    assert time.perf_counter() - start < 10.0


def test_json_record_of_wrong_shape_is_rejected():
    d = json_record()
    del d["k"]
    with pytest.raises(ValueError, match="exactly the fields"):
        record_from_json_dict(d)
    with pytest.raises(ValueError, match="exactly the fields"):
        record_from_json_dict(json_record(poly_discriminant="0"))
    with pytest.raises(ValueError, match="exactly the fields"):
        record_from_json_dict([])
    with pytest.raises(ValueError, match="coeffs a list"):
        record_from_json_dict(json_record(coeffs="1 1 1 1 1"))


# -- scan command ----------------------------------------------------------


def test_scan_csv_stdout(capsys):
    code, out, _ = run(capsys, ["scan", "--e-range", "4:6", "--p-bound", "20"])
    assert code == 0
    records = parse_csv_records(out)
    assert [(r.e, r.f) for r in records] == [(4, 1), (4, 3), (4, 4), (5, 2), (6, 1), (6, 2), (6, 3)]


def test_scan_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(
        capsys,
        ["scan", "--e-range", "4:6", "--p-bound", "20", "--output", str(target)],
    )
    assert code == 0
    assert out == ""
    assert parse_csv_records(target.read_text())


def test_scan_text_summary(capsys):
    code, out, _ = run(
        capsys,
        ["scan", "--e-range", "4:6", "--p-bound", "20", "--format", "text"],
    )
    assert code == 0
    assert "doublets: 6" in out
    assert "counterexamples: 0" in out


def test_scan_json(capsys):
    code, out, _ = run(
        capsys,
        ["scan", "--e-range", "4:6", "--p-bound", "20", "--format", "json"],
    )
    assert code == 0
    report = make_report()
    assert_json_records_round_trip(report, out)
    assert report.doublets == (6,)


@pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt")])
def test_scan_golden_bytes(capsys, fmt, suffix):
    code, out, _ = run(
        capsys,
        ["scan", "--e-range", "4:6", "--p-bound", "20", "--format", fmt],
    )
    assert code == 0
    assert out == (GOLDEN / f"scan_e4-6_p20.{suffix}").read_text()


def test_scan_single_e_range(capsys):
    code, out, _ = run(capsys, ["scan", "--e-range", "5", "--p-bound", "20"])
    assert code == 0
    assert [(r.e, r.f) for r in parse_csv_records(out)] == [(5, 2)]


def test_scan_invalid_range(capsys):
    code, _, err = run(capsys, ["scan", "--e-range", "9:4", "--p-bound", "100"])
    assert code == 2


def test_scan_e_max_at_or_above_p_bound_exits_2(capsys):
    code, _, err = run(capsys, ["scan", "--e-range", "4:1000000", "--p-bound", "100"])
    assert code == 2
    assert "e_max < p_bound" in err


def test_scan_counterexample_exit(monkeypatch, capsys):
    import periodeq.scanner as scanner_mod
    from periodeq.intpoly import IntPoly, Signature
    from periodeq.monogeneity import ClassificationRecord, FieldDiscriminant, MatchKind

    def fake_classify(ctx, periods=None):
        return ClassificationRecord(
            e=ctx.e,
            f=ctx.f,
            p=ctx.p,
            g=ctx.g,
            psi=IntPoly((1, 1)),
            poly_discriminant=ctx.p ** (ctx.e - 1),
            field_discriminant=FieldDiscriminant(1, ctx.p, ctx.e - 1),
            k_squared=1,
            k=1,
            monogenic=True,
            signature=Signature(0, 0),
            match_kind=MatchKind.NO_MATCH,
        )

    monkeypatch.setattr(scanner_mod, "classify", fake_classify)
    code, out, err = run(capsys, ["scan", "--e-range", "4:4", "--p-bound", "20", "--format", "text"])
    assert code == 3
    assert "counterexample" in err


def test_scan_internal_contradiction_exits_4(monkeypatch, capsys):
    from periodeq.periods import PrimePeriods

    real = PrimePeriods.norms

    def perturbed(self, e):
        norms, at_one = real(self, e)
        return [norms[0] + 1, *norms[1:]], at_one

    # (5, 2) matches the halving of Phi_11 and never takes the norms; (5, 6)
    # does, and p = 31 divides N_1 but not N_1 + 1
    monkeypatch.setattr(PrimePeriods, "norms", perturbed)
    code, out, err = run(capsys, ["scan", "--e-range", "5:5", "--p-bound", "32"])
    assert code == 4
    assert "(e=5, f=6)" in err and "N_1" in err and "not divisible" in err


def test_scan_zero_norm_exits_4(monkeypatch, capsys):
    from periodeq.periods import PrimePeriods

    real = PrimePeriods._periods_mod

    def all_minus_one(self, e, bound):
        etas, mod = real(self, e, bound)
        return ([mod - 1] * e if self.p == 31 else etas), mod

    # periods of p = 31 all equal to -1: psi = (x + 1)^5 still passes the
    # psi(1) tie, and every norm N_d is zero
    monkeypatch.setattr(PrimePeriods, "_periods_mod", all_minus_one)
    code, out, err = run(capsys, ["scan", "--e-range", "5:5", "--p-bound", "32"])
    assert code == 4
    assert "(e=5, f=6)" in err and "zero" in err


def test_scan_closed_form_contradiction_exits_4(monkeypatch, capsys):
    import periodeq.monogeneity as mono_mod

    real = mono_mod.field_discriminant

    def wrong_sign(e, f, p):
        delta = real(e, f, p)
        return FieldDiscriminant(-delta.sign, delta.p, delta.exponent)

    # the closed form D = +11^4 of (5, 2) against a delta of -11^4
    monkeypatch.setattr(mono_mod, "field_discriminant", wrong_sign)
    code, out, err = run(capsys, ["scan", "--e-range", "5:5", "--p-bound", "12"])
    assert code == 4
    assert "(e=5, f=2)" in err and "negative" in err


# -- doublets / cubic growth / table --------------------------------------


def test_doublets_command(capsys):
    code, out, err = run(capsys, ["doublets", "--e-max", "40"])
    assert code == 0
    assert out.splitlines()[0] == "6 18 30 36"
    assert "count for 4 <= e <= 40: 4" in out
    assert "count for 2 <= e <= 40: 5" in err


def test_doublets_full_mode(capsys):
    code, out, _ = run(capsys, ["doublets", "--e-max", "40", "--mode", "full"])
    assert code == 0
    assert out.splitlines()[0] == "6 18 30 36"


def test_doublets_full_mode_from_e_min_1(capsys):
    code, out, _ = run(capsys, ["doublets", "--e-max", "40", "--e-min", "1", "--mode", "full"])
    assert code == 0
    assert out.splitlines() == ["2 6 18 30 36", "count for 1 <= e <= 40: 5"]


def test_doublets_invalid_input_exits_2(capsys):
    code, _, err = run(capsys, ["doublets", "--e-max", "10", "--mode", "full", "--workers", "-3"])
    assert code == 2
    assert "worker_count" in err
    code, out, err = run(capsys, ["doublets", "--e-max", "10", "--e-min", "50"])
    assert code == 2
    assert out == ""


def test_cubic_growth_command(capsys):
    code, out, _ = run(capsys, ["cubic-growth", "--p-bound", "1000"])
    assert code == 0
    assert "p <= 100: 6 monogenic" in out
    assert "p <= 1000: 14 monogenic" in out
    assert "log-log slope: 0.36" in out


def test_cubic_growth_exits_4_on_a_wrong_exact_norm(monkeypatch, capsys):
    from periodeq.monogeneity import index_certificate
    from periodeq.periods import PrimePeriods

    # (3, 4) at p = 13 has k = 1 and no match, so no certificate settles it
    # and the summary path takes its exact norms
    ctx = make_context(3, 4)
    assert index_certificate(PrimePeriods(13, ctx.g), 3) is None
    rec = classify(ctx)
    assert (rec.k, rec.match_kind) == (1, MatchKind.NO_MATCH)
    real = PrimePeriods.norms

    def perturbed(self, e):
        norms, at_one = real(self, e)
        return ([norms[0] + 1, *norms[1:]] if self.p == 13 else norms), at_one

    monkeypatch.setattr(PrimePeriods, "norms", perturbed)
    code, out, err = run(capsys, ["cubic-growth", "--p-bound", "20"])
    assert code == 4
    assert out == ""
    assert "(e=3, f=4)" in err and "N_1" in err and "not divisible" in err


def test_table_verification_passes(capsys):
    code, out, _ = run(capsys, ["table1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(TABLE_ROWS) + 1
    assert all("PASS" in line for line in lines[:-1])
    assert lines[-1].endswith("24 pass, 0 fail")


def test_table_verification_catches_corruption(capsys, monkeypatch):
    import periodeq.cli as cli_mod

    good = TABLE_ROWS[1]
    bad_coeffs = (2,) + good.coeffs_high_to_low[1:]
    bad = ReferenceRow(good.e, good.p, good.n_real, good.disc_sign, bad_coeffs)
    monkeypatch.setattr(cli_mod, "TABLE_ROWS", (bad,))
    results = verify_reference_rows()
    assert not results[0][1]
    assert "coefficients differ" in results[0][2]

    code, out, _ = run(capsys, ["table1"])
    assert code == 3
    assert "FAIL" in out


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_required_argument_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["psi", "--e", "5"])
    assert info.value.code == 2
