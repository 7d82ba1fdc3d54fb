import runpy
from pathlib import Path

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
