import re
import runpy
from pathlib import Path

from periodeq import scanner
from periodeq.monogeneity import ClassificationRecord, classify

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_full_survey.py"


def test_small_survey_runs_with_a_single_cubic_checkpoint(capsys):
    main = runpy.run_path(str(SCRIPT), run_name="run_full_survey")["main"]
    argv = [
        "--e-max", "6", "--p-bound", "50",
        "--census-e-max", "6", "--census-p-bound", "50",
        "--doublet-e-max", "40", "--cubic-p-bound", "50",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "log-log slope undefined" in out
    assert "doublets: first 14: 6 18 30 36" in out


def _census_and_cubic_lines(out):
    # the lines without their timings
    lines = [line for line in out.splitlines() if line.startswith(("census:", "cubics:"))]
    return [re.sub(r"\d+\.\ds\)", "", line) for line in lines]


def test_workers_reach_the_census_and_the_cubics(capsys, monkeypatch):
    seen = []

    def spy(name):
        original = getattr(scanner, name)

        def call(*args, **kwargs):
            # census takes its worker count in its spec, cubic_growth by keyword
            seen.append((name, args[0].worker_count if name == "census" else kwargs.get("worker_count")))
            return original(*args, **kwargs)

        monkeypatch.setattr(scanner, name, call)

    for name in ("census", "cubic_growth"):
        spy(name)
    main = runpy.run_path(str(SCRIPT), run_name="run_full_survey")["main"]
    argv = [
        "--e-max", "6", "--p-bound", "50",
        "--census-e-max", "30", "--census-p-bound", "200",
        "--doublet-e-max", "40", "--cubic-p-bound", "1000",
    ]
    outs = []
    for workers in ("1", "2"):
        assert main([*argv, "--workers", workers]) == 0
        outs.append(_census_and_cubic_lines(capsys.readouterr().out))
    assert len(outs[0]) == 3
    assert outs[0] == outs[1]
    # the cubic curve is Gauss's rule, counted in one process
    assert seen == [
        ("census", 1), ("cubic_growth", None),
        ("census", 2), ("cubic_growth", None),
    ]


def test_a_census_counterexample_is_printed_and_exits_3(capsys, monkeypatch):
    # the census alone sees (4, 3) at p = 13 as monogenic, a monogenic f >= 3
    # record; the sweep classifies it as it is
    real = scanner._classify_uncertified

    def forged(ctx, periods):
        rec = real(ctx, periods)
        if (ctx.e, ctx.f) != (4, 3):
            return rec
        return ClassificationRecord.from_index(ctx, classify(ctx, periods).psi, 1)

    monkeypatch.setattr(scanner, "_classify_uncertified", forged)
    main = runpy.run_path(str(SCRIPT), run_name="run_full_survey")["main"]
    argv = [
        "--e-max", "6", "--p-bound", "50",
        "--census-e-max", "6", "--census-p-bound", "50",
        "--doublet-e-max", "40", "--cubic-p-bound", "50",
    ]
    assert main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "sweep: 4 monogenic pairs, 0 conjecture counterexamples" in lines
    census_lines = [i for i, line in enumerate(lines) if line.startswith("census:")]
    assert lines[census_lines[-1] + 1] == "  COUNTEREXAMPLE: e=4 f=3 p=13 monogenic=True match=none"
    assert sum("COUNTEREXAMPLE" in line for line in lines) == 1
