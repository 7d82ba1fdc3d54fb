import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodeq import scanner
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
    MatchKind,
    classify,
    field_discriminant,
)
from periodeq.number_theory import MAX_P, InternalContradiction, is_prime, make_context, primitive_root
from periodeq.periods import PrimePeriods
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


@pytest.mark.parametrize("command, e, f", [("psi", 2002, 1), ("psi", 12006, 1), ("psi", 1019, 2), ("unfold", 1019, 2)])
def test_psi_and_unfold_write_f_up_to_2_down_as_classify_does(capsys, monkeypatch, command, e, f):
    import periodeq.monogeneity as mono_mod
    import periodeq.periods as periods_mod
    from periodeq.intpoly import demoivre_unfold

    # p = 12007 is past the table budget for a CRT build of Phi_p; the other
    # two took seconds of tables before psi and unfold shared classify's psi
    code, out, _ = run(capsys, ["classify", "--e", str(e), "--f", str(f), "--format", "json"])
    assert code == 0
    coeffs = json.loads(out)["coeffs"]

    def refuse(p, g):
        raise AssertionError(f"a PrimePeriods was built for p = {p}")

    for mod in (mono_mod, periods_mod):
        monkeypatch.setattr(mod, "PrimePeriods", refuse)
    if command == "psi":
        code, out, _ = run(capsys, ["psi", "--e", str(e), "--f", str(f), "--format", "json"])
        assert code == 0 and json.loads(out)["coeffs"] == coeffs
    else:
        code, out, err = run(capsys, ["unfold", "--e", str(e), "--f", str(f)])
        psi = IntPoly.from_high_to_low([int(c) for c in coeffs])
        assert code == 0 and out == demoivre_unfold(psi).to_str() + "\n"
        assert f"matches the cyclotomic polynomial of {2 * e + 1}" in err


def test_classify_rejects_p_beyond_primality_bound(capsys):
    from periodeq.number_theory import PRIME_TEST_BOUND

    code, _, err = run(capsys, ["classify", "--e", "1", "--f", str(PRIME_TEST_BOUND - 1)])
    assert code == 2
    assert "above MAX_P = 2250001" in err


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


def test_classify_text_writes_d_as_k_squared_times_delta(capsys):
    code, out, _ = run(capsys, ["classify", "--e", "6", "--f", "3"])
    assert code == 0
    assert "poly discriminant D = 5929 * -19^5\nfield discriminant = -19^5\n" in out
    # D = -1451^1449 has 4582 digits, past the int-to-str limit
    code, out, _ = run(capsys, ["classify", "--e", "1450", "--f", "1"])
    assert code == 0
    assert "poly discriminant D = 1 * -1451^1449\n" in out


def test_classify_text_past_the_int_to_str_limit_writes_nothing(capsys):
    # p = 41177 > REDUCE_MAX_P: a coefficient of the halving has 4301 digits,
    # so the pair is refused as reduce refuses p, before the halving is built
    for argv in (["classify"], ["classify", "--format", "json"], ["psi"], ["psi", "--engine", "exact"]):
        start = time.perf_counter()
        code, out, err = run(capsys, [*argv, "--e", "20588", "--f", "2"])
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "", argv
        assert "p = 41177 is above REDUCE_MAX_P = 41161, past the int-to-str limit" in err, argv


def test_classify_f1_past_the_crt_table_budget(capsys):
    # p = 12007: a CRT build of Phi_p would take 375 tables, over MAX_TABLE_ENTRIES
    code, out, _ = run(capsys, ["classify", "--e", "12006", "--f", "1", "--format", "csv"])
    assert code == 0
    assert parse_csv_records(out) == [classify(make_context(12006, 1))]


def test_classify_over_the_table_budget_exits_2_before_its_tables(capsys, monkeypatch):
    # p = 20011: the bound of (6670, 3) asks for more CRT primes than the
    # budget holds tables for; the primes are counted before any table past
    # the g table and the residue prime's is built
    import periodeq.periods as periods_mod

    built = []
    real = periods_mod._power_table
    monkeypatch.setattr(periods_mod, "_power_table", lambda base, mod, n: built.append(mod) or real(base, mod, n))
    start = time.perf_counter()
    code, out, err = run(capsys, ["classify", "--e", "6670", "--f", "3"])
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert "p = 20011 would need 225 tables of 20010 entries, over the table budget" in err
    assert len(built) == 2


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


# the first prime past MAX_P = 2250001 is 2250013 = 2 * 1125006 + 1
PAST_MAX_P = ["--e", "2", "--f", "1125006"]


def past_max_p_record(**changes):
    """The JSON record of classify(4, 1) moved to (e, f) = (2, 1125006): every
    rule before p <= MAX_P holds."""
    return json_record(e=2, f=1125006, p=2250013, coeffs=["1", "1", "1"], **changes)


@pytest.mark.parametrize(
    "call, bound",
    [
        (lambda: main(["classify", *PAST_MAX_P]), "above MAX_P = 2250001"),
        (lambda: main(["psi", *PAST_MAX_P, "--engine", "modular"]), "above MAX_P = 2250001"),
        (lambda: main(["psi", *PAST_MAX_P, "--engine", "exact"]), "above MAX_P = 2250001"),
        (lambda: main(["unfold", *PAST_MAX_P]), "above MAX_P = 2250001"),
        (lambda: main(["reduce", "--p", "41177"]), "above REDUCE_MAX_P = 41161"),
        (
            lambda: parse_csv_records(csv_row(e="2", f="1125006", p="2250013", coeffs='"1 1 1"')),
            "breaks p <= MAX_P = 2250001",
        ),
        (lambda: record_from_json_dict(past_max_p_record()), "breaks p <= MAX_P = 2250001"),
        (lambda: PrimePeriods(2250013, 2), "over the table budget MAX_TABLE_ENTRIES"),
        (lambda: primitive_root(2250013), "above MAX_P = 2250001"),
    ],
    ids=["classify", "psi-modular", "psi-exact", "unfold", "reduce", "csv", "json", "PrimePeriods", "primitive_root"],
)
def test_first_p_past_each_bound_is_refused_at_once(capsys, call, bound):
    start = time.perf_counter()
    try:
        code = call()
    except ValueError as exc:  # InvalidContext is a ValueError
        message = str(exc)
    else:
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        message = captured.err
    assert time.perf_counter() - start < 1.0
    assert bound in message


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
    again = summarize(report.spec, [record_from_json_dict(d) for d in json.loads(text)["records"]], report.pairs)
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
        # the reader derives the kind from f, as classify does
        match_kind={1: MatchKind.DIRECT_CYCLOTOMIC, 2: MatchKind.REDUCED_CYCLOTOMIC}.get(
            f, MatchKind.NO_MATCH
        ),
    )


@st.composite
def records(draw):
    e = draw(st.integers(1, 12))
    f = draw(st.integers(1, (MAX_P - 1) // e))
    while e * f + 1 < 3 or not is_prime(e * f + 1):
        f = f % ((MAX_P - 1) // e) + 1  # the next f, back to 1 past the last with p <= MAX_P
    return draw_record(draw, e, f)


@st.composite
def reports(draw):
    """The records of every pair of a small spec, in scan order."""
    e_min = draw(st.integers(1, 8))
    e_max = draw(st.integers(e_min, e_min + 4))
    spec = ScanSpec(e_min, e_max, draw(st.integers(max(e_max + 1, 3), 60)))
    tasks = scan_tasks(spec)
    return summarize(spec, [draw_record(draw, e, f) for e, f in tasks], len(tasks))


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


@pytest.mark.parametrize(
    "field, value",
    [("e", "0_4"), ("f", "+1"), ("p", "5 "), ("g", "02"), ("n_real", "-0"), ("delta_sign", "+1"),
     ("delta_exponent", " 3"), ("k_squared", "\u0661"), ("k", "01")],
)
def test_non_canonical_wire_integer_is_rejected(field, value):
    # only str(n) writes back to the same bytes, in CSV and in JSON
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        parse_csv_records(csv_row(**{field: value}))
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        record_from_json_dict(json_record(**{field: value}))


@pytest.mark.parametrize("coeff", ["+1", "01", "1_0", "\uff11"])
def test_non_canonical_coefficient_is_rejected(coeff):
    with pytest.raises(ValueError, match="^coeffs must be an integer"):
        parse_csv_records(csv_row(coeffs=f'"1 {coeff} 1 1 1"'))
    with pytest.raises(ValueError, match="^coeffs must be an integer"):
        record_from_json_dict(json_record(coeffs=["1", coeff, "1", "1", "1"]))


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


def test_match_kind_that_contradicts_f_is_rejected():
    # 4,1,5,2,0,1,3,1,1,true,none,"1 1 1 1 1": Phi_5 with k = 1 and no match
    row = csv_row(match_kind="none")
    assert row.splitlines()[1] == '4,1,5,2,0,1,3,1,1,true,none,"1 1 1 1 1"'
    reason = "has match_kind none, but its \\(e, f, k\\) give direct"
    with pytest.raises(ValueError, match=f"\\(e=4, f=1\\) {reason}"):
        parse_csv_records(row)
    # (4, 3) is not monogenic and has no cyclotomic shape, whatever it claims
    d = record_to_json_dict(classify(make_context(4, 3)))
    assert d["match_kind"] == "none"
    for kind in ("direct", "reduced"):
        reason = f"has match_kind {kind}, but its \\(e, f, k\\) give none"
        with pytest.raises(ValueError, match=f"\\(e=4, f=3\\) {reason}"):
            record_from_json_dict(dict(d, match_kind=kind))


# the derived wire field in which each rule on (e, f, k) shows
DERIVED_FIELD = {
    "k\\^2 = k_squared": "k_squared",
    "monogenic iff k = 1": "monogenic",
    "n_real = e if f is even, else 0": "n_real",
    "delta_exponent = e - 1": "delta_exponent",
    "delta_sign of the field discriminant": "delta_sign",
    "match_kind of f": "match_kind",
}


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
        # (4, 1) is Phi_5 itself: a valid kind other than direct contradicts f
        ({"match_kind": "none"}, "match_kind of f"),
        ({"match_kind": "reduced"}, "match_kind of f"),
    ],
)
def test_self_contradictory_record_is_rejected(changes, rule):
    # classify(4, 1) is monogenic: p = 5, k = 1, n_real = 0; a rule on the
    # primary fields is named as it is broken, the others by the derived
    # field, with its wire value, that differs from the record of (e, f, k)
    field = DERIVED_FIELD.get(rule)
    if field:
        reason = f"has {field} {json_record(**changes)[field]}, but its \\(e, f, k\\) give "
    else:
        reason = f"breaks {rule}"
    with pytest.raises(ValueError, match=f"\\(e=4, f=1\\) {reason}"):
        record_from_json_dict(json_record(**changes))


def test_record_of_negative_degree_breaks_the_coeffs_rule():
    # p = (-1)(-4) + 1 = 5, and e = -1 asks for no coefficients, so none leads
    with pytest.raises(ValueError, match="\\(e=-1, f=-4\\) breaks coeffs of degree e with leading coefficient 1"):
        record_from_json_dict(json_record(e=-1, f=-4, n_real=-1, coeffs=[]))


def test_report_with_self_contradictory_record_is_rejected():
    obj = json.loads(report_to_json(scan(ScanSpec(4, 4, 17))))
    rec = next(r for r in obj["records"] if r["f"] == 4)
    assert (rec["k"], rec["monogenic"]) == ("2", False)
    # monogenic is compared before n_real, so it is the field named
    with pytest.raises(ValueError, match="has monogenic True, but its \\(e, f, k\\) give False"):
        record_from_json_dict(dict(rec, monogenic=True, n_real=7))
    # (4, 4) is totally real (n_real 4): 2 and 0 keep the parity of e yet break Gauss's rule
    for n_real in (7, 2, 0):
        with pytest.raises(ValueError, match=f"\\(e=4, f=4\\) has n_real {n_real}, but its \\(e, f, k\\) give 4"):
            record_from_json_dict(dict(rec, n_real=n_real))
    # both values of a k_squared that differs from k^2 = 4
    with pytest.raises(ValueError, match="\\(e=4, f=4\\) has k_squared 9, but its \\(e, f, k\\) give 4"):
        record_from_json_dict(dict(rec, k_squared="9"))


@pytest.mark.parametrize(
    "p, g",
    [
        (100000000005083, 2),  # a safe prime: p - 1 = 2 * 50000000002541
        # 82 bits: p - 1 = 2 * q1 * q2 with q1, q2 the two primes above 2^40
        (2417851640636633232984383, 5),
    ],
)
def test_record_with_a_large_p_is_checked_quickly(p, g):
    # psi_2 = x^2 + x + (p + 1)/4 for p ≡ 3 (mod 4), in the shape of classify(2, 3);
    # no record of the package has p above MAX_P, and the reader refuses one
    # before it tests g, so p - 1 is never factored
    d = record_to_json_dict(classify(make_context(2, 3)))
    d.update(f=(p - 1) // 2, p=p, g=g, coeffs=["1", "1", str((p + 1) // 4)])
    start = time.perf_counter()
    for rec in (d, dict(d, g=4)):
        with pytest.raises(ValueError, match="\\(e=2, f=\\d+\\) breaks p <= MAX_P = 2250001"):
            record_from_json_dict(rec)
    assert time.perf_counter() - start < 1.0


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


def test_scan_to_a_missing_directory_exits_2(tmp_path, capsys):
    # the path is refused before the scan, which takes most of a second
    target = tmp_path / "missing" / "out.csv"
    start = time.perf_counter()
    code, out, err = run(capsys, ["scan", "--e-range", "4:60", "--p-bound", "2000", "--output", str(target)])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


def test_scan_that_exits_4_leaves_an_existing_output_as_it_was(tmp_path, monkeypatch, capsys):
    def no_norms(self, e):
        raise InternalContradiction("norms refused")

    target = tmp_path / "out.csv"
    target.write_text("kept\n")
    monkeypatch.setattr(PrimePeriods, "norms", no_norms)
    code, out, err = run(capsys, ["scan", "--e-range", "5:5", "--p-bound", "32", "--output", str(target)])
    assert code == 4 and "norms refused" in err
    assert target.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--e-range", "4:4", "--p-bound", str(10**15)],
        ["cubic-growth", "--p-bound", str(10**15)],
        ["doublets", "--e-max", str(10**12)],
        ["doublets", "--e-min", "2", "--e-max", str(10**12)],
    ],
)
def test_survey_past_the_table_budget_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "table budget MAX_TABLE_ENTRIES" in err


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


def _text_of_every_record(report):
    """The text summary as written from the records of every pair."""
    spec = report.spec
    lines = [
        f"scanned e in [{spec.e_min}, {spec.e_max}], p <= {spec.p_bound}, "
        f"mode=full: {len(report.records)} pairs",
        f"monogenic pairs: {sum(1 for r in report.records if r.monogenic)}",
        f"missing e: {' '.join(map(str, report.missing_e)) or 'none'}",
        f"doublets: {' '.join(map(str, report.doublets)) or 'none'}",
        f"counterexamples: {len(report.counterexamples)}",
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "e_min, e_max, p_bound, workers",
    [(4, 6, 20, 1), (1, 60, 1000, 1), (3, 3, 7000, 1), (4, 100, 260, 1), (100, 100, 5000, 1), (4, 60, 364, 2)],
)
def test_scan_text_is_the_summary_of_every_record(capsys, e_min, e_max, p_bound, workers):
    # the text summary reads the monogenic records alone; it prints what a
    # scan of every pair gives, also at 100/5000, whose csv form stops at
    # the int-to-str limit
    argv = ["scan", "--e-range", f"{e_min}:{e_max}", "--p-bound", str(p_bound), "--workers", str(workers)]
    code, out, err = run(capsys, [*argv, "--format", "text"])
    report = scan(ScanSpec(e_min, e_max, p_bound, workers))
    assert (code, out, err) == (3 if report.counterexamples else 0, _text_of_every_record(report), "")


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

    # a world with no certificate, which would otherwise settle (4, 3) first
    monkeypatch.setattr(scanner_mod, "index_certificate", lambda periods, e: None)
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


def test_scan_text_names_the_pair_whose_norms_contradict(monkeypatch, capsys):
    # with no certificate, the text summary classifies (4, 3) at p = 13 from
    # its exact norms, and p does not divide N_1 + 1
    import periodeq.scanner as scanner_mod
    from periodeq.periods import PrimePeriods

    real = PrimePeriods.norms

    def perturbed(self, e):
        norms, at_one = real(self, e)
        return [norms[0] + 1, *norms[1:]], at_one

    monkeypatch.setattr(scanner_mod, "index_certificate", lambda periods, e: None)
    monkeypatch.setattr(PrimePeriods, "norms", perturbed)
    code, out, err = run(capsys, ["scan", "--e-range", "4:5", "--p-bound", "32", "--format", "text"])
    assert code == 4 and out == ""
    assert "(e=4, f=3)" in err and "N_1" in err and "not divisible" in err


def test_scan_text_settles_a_pair_over_the_table_budget_by_certificate(capsys):
    # (6670, 3), p = 20011, is the one pair: its certificate needs only the
    # residue prime, while its exact k needs more CRT tables than the budget
    code, out, err = run(capsys, ["scan", "--e-range", "6670", "--p-bound", "20012", "--format", "text"])
    assert code == 0 and err == ""
    assert "mode=full: 1 pairs\nmonogenic pairs: 0\nmissing e: 6670\n" in out
    start = time.perf_counter()
    code, out, err = run(capsys, ["scan", "--e-range", "6670", "--p-bound", "20012", "--format", "csv"])
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert "p = 20011 would need 225 tables of 20010 entries, over the table budget" in err


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


# -- doublets / cubic growth / table --------------------------------------


def test_doublets_command(capsys):
    code, out, err = run(capsys, ["doublets", "--e-max", "40"])
    assert code == 0
    assert out.splitlines()[0] == "6 18 30 36"
    assert "count for 4 <= e <= 40: 4" in out
    assert "count for 2 <= e <= 40: 5" in err


def test_doublets_sieve_to_2_e_max_plus_1_once(capsys, monkeypatch):
    # the count from e = 2 adds the doublets below e_min, from a sieve to 2 e_min - 1
    sieves = []
    real = scanner.prime_flags

    def counted(n):
        sieves.append(n)
        return real(n)

    monkeypatch.setattr(scanner, "prime_flags", counted)
    code, out, err = run(capsys, ["doublets", "--e-max", "10000"])
    assert code == 0
    assert out.splitlines()[1:] == ["count for 4 <= e <= 10000: 187"]
    assert err == "count for 2 <= e <= 10000: 188\n"
    assert sieves == [20001, 7]


def test_doublets_from_e_min_1(capsys):
    code, out, _ = run(capsys, ["doublets", "--e-max", "40", "--e-min", "1"])
    assert code == 0
    assert out.splitlines() == ["2 6 18 30 36", "count for 1 <= e <= 40: 5"]


def test_doublets_full_mode(capsys):
    # the full mode is deleted: the doublets are the primality rule, no mode
    # chooses another and no worker runs it; the cubic curve, Gauss's rule,
    # has no workers either
    for argv in (
        ["doublets", "--e-max", "40", "--mode", "full"],
        ["doublets", "--e-max", "40", "--workers", "2"],
        ["cubic-growth", "--p-bound", "1000", "--workers", "2"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_doublets_invalid_input_exits_2(capsys):
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
    import periodeq.monogeneity as mono_mod

    # (3, 4) at p = 13 has k = 1 and no match; classify takes it from Gauss's
    # closed form, whose M = |N_1| / p is perturbed there, so psi_3's
    # discriminant p^2 contradicts it
    rec = classify(make_context(3, 4))
    assert (rec.k, rec.match_kind) == (1, MatchKind.NO_MATCH)
    real = mono_mod.gauss_cubic

    def perturbed(p, g):
        psi, m = real(p, g)
        return psi, m + (p == 13)

    monkeypatch.setattr(mono_mod, "gauss_cubic", perturbed)
    # cubic-growth counts by Gauss's rule and classifies nothing, so the
    # contradiction is reached through scan and classify
    for argv in (["scan", "--e-range", "3", "--p-bound", "20"], ["classify", "--e", "3", "--f", "4"]):
        code, out, err = run(capsys, argv)
        assert code == 4
        assert out == ""
        assert "(e=3, f=4)" in err and "index 1" in err and "M = 2" in err


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
