import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from periodeq import cli, scanner
from periodeq.monogeneity import ClassificationRecord, classify
from periodeq.number_theory import InternalContradiction

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_full_survey.py"
SMALL = [
    "--e-max", "6", "--p-bound", "50",
    "--census-e-max", "30", "--census-p-bound", "200",
    "--doublet-e-max", "40", "--cubic-p-bound", "50",
]
# the four commands the script runs on SMALL, in its order
COMMANDS = [
    ["scan", "--e-range", "4:6", "--p-bound", "50", "--workers", "1", "--format", "text"],
    ["scan", "--e-range", "4:30", "--p-bound", "200", "--workers", "1", "--format", "text"],
    ["doublets", "--e-max", "40"],
    ["cubic-growth", "--p-bound", "50"],
]


def survey(capsys, argv):
    main = runpy.run_path(str(SCRIPT), run_name="run_full_survey")["main"]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def status_lines(err):
    return re.findall(r"^\$ periodeq (.*): exit (\d), \d+\.\d\d s$", err, re.M)


def test_small_survey_runs_with_a_single_cubic_checkpoint(capsys):
    # stdout is the four commands' stdout, byte for byte, in order
    want = ""
    for argv in COMMANDS:
        assert cli.main(argv) == 0
        want += capsys.readouterr().out
    code, out, err = survey(capsys, SMALL)
    assert code == 0
    assert out == want
    assert "log-log slope: undefined (not enough checkpoints)" in out
    assert "6 18 30 36\ncount for 4 <= e <= 40: 4\n" in out
    assert status_lines(err) == [(" ".join(argv), "0") for argv in COMMANDS]


def test_workers_reach_the_census_and_the_cubics(capsys, monkeypatch):
    workers_seen, cubic_calls = [], []
    real_census, real_cubic = cli.census, cli.cubic_growth

    def census(spec):
        workers_seen.append(spec.worker_count)
        return real_census(spec)

    def cubic_growth(*args, **kwargs):
        cubic_calls.append((args, kwargs))
        return real_cubic(*args, **kwargs)

    monkeypatch.setattr(cli, "census", census)
    monkeypatch.setattr(cli, "cubic_growth", cubic_growth)
    outs = []
    for workers in ("1", "2"):
        code, out, _ = survey(capsys, [*SMALL, "--workers", workers])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    # the sweep and the census are census runs; Gauss's rule counts in one process
    assert workers_seen == [1, 1, 2, 2]
    assert cubic_calls == [((50,), {})] * 2


def test_a_census_counterexample_is_printed_and_exits_3(capsys, monkeypatch):
    # the census alone (the sweep stops below p = 13) sees (4, 3) at p = 13
    # as monogenic, a monogenic f >= 3 record
    real = scanner._classify_uncertified

    def forged(ctx, periods):
        rec = real(ctx, periods)
        if (ctx.e, ctx.f) != (4, 3):
            return rec
        return ClassificationRecord.from_index(ctx, classify(ctx, periods).psi, 1)

    monkeypatch.setattr(scanner, "_classify_uncertified", forged)
    argv = ["--e-max", "6", "--p-bound", "12", *SMALL[4:]]
    code, out, err = survey(capsys, argv)
    assert code == 3
    assert out.count("counterexamples: 0\n") == 1 and out.count("counterexamples: 1\n") == 1
    assert "counterexample: e=4 f=3 p=13 k=1 match=none" in err.splitlines()
    assert err.count("counterexample:") == 1
    # a counterexample does not stop the run
    assert [code for _, code in status_lines(err)] == ["0", "3", "0", "0"]


@pytest.mark.parametrize(
    "extra, ran",
    [(["--cubic-p-bound", "3000000"], 4), (["--workers", "0"], 1)],
    ids=["cubic-p-bound", "workers"],
)
def test_invalid_input_exits_2_without_a_traceback(extra, ran):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *SMALL, *extra], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert any(line.startswith("error: ") for line in done.stderr.splitlines())
    # the run stops at the command that refused its input
    assert [code for _, code in status_lines(done.stderr)] == ["0"] * (ran - 1) + ["2"]


def test_a_contradiction_exits_4_and_names_the_pair(capsys, monkeypatch):
    def contradiction(ctx, periods):
        if (ctx.e, ctx.f) == (4, 3):
            raise InternalContradiction("forged")
        return None

    monkeypatch.setattr(scanner, "_classify_uncertified", contradiction)
    code, out, err = survey(capsys, SMALL)
    assert code == 4
    assert "internal contradiction: (e=4, f=3): forged" in err.splitlines()
    assert "Traceback" not in err
    assert status_lines(err) == [(" ".join(COMMANDS[0]), "4")]
    assert out == ""
