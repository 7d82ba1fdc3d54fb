import json
from pathlib import Path

import pytest

from periodeq.cli import (
    CSV_HEADER,
    main,
    parse_csv_records,
    record_from_json_dict,
    record_to_json_dict,
    records_to_csv,
    report_from_json,
    report_to_json,
    verify_reference_rows,
)
from periodeq.monogeneity import classify
from periodeq.number_theory import make_context
from periodeq.reference_table import TABLE_ROWS, ReferenceRow
from periodeq.scanner import ScanSpec, scan

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


def test_json_byte_round_trip():
    report = make_report()
    text = report_to_json(report)
    again = report_from_json(text)
    assert again.records == report.records
    assert again.missing_e == report.missing_e
    assert again.doublets == report.doublets
    assert report_to_json(again) == text


def test_json_big_integers_as_strings():
    rec = classify(make_context(6, 3))
    d = record_to_json_dict(rec)
    assert d["k_squared"] == "5929"
    assert d["k"] == "77"
    assert all(isinstance(c, str) for c in d["coeffs"])
    assert record_from_json_dict(d) == rec


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
    report = report_from_json(out)
    assert report.doublets == (6,)


@pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt")])
def test_scan_golden_bytes(capsys, fmt, suffix):
    code, out, _ = run(
        capsys,
        ["scan", "--e-range", "4:6", "--p-bound", "20", "--format", fmt],
    )
    assert code == 0
    assert out == (GOLDEN / f"scan_e4-6_p20.{suffix}").read_text()


def test_json_report_of_other_mode_is_rejected():
    obj = json.loads(report_to_json(make_report()))
    obj["spec"]["mode"] = "fast-doublet"
    with pytest.raises(ValueError, match="fast-doublet"):
        report_from_json(json.dumps(obj))


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
    import periodeq.monogeneity as mono_mod
    from periodeq.number_theory import InternalContradiction

    def explode(psi):
        raise InternalContradiction("forced")

    monkeypatch.setattr(mono_mod, "discriminant_and_signature", explode)
    code, out, err = run(capsys, ["scan", "--e-range", "5:5", "--p-bound", "12"])
    assert code == 4
    assert "(e=5, f=2)" in err and "forced" in err


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
    results = verify_reference_rows([bad])
    assert not results[0][1]
    assert "coefficients differ" in results[0][2]

    monkeypatch.setattr(cli_mod, "TABLE_ROWS", (bad,))
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
