"""Smoke test of the experiment scripts in scripts/, run in-process at small
sizes."""

import runpy
import sys
from pathlib import Path

import pytest

from omcool.results import read_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, files, rows", [
    ("chain_cooling.py", ["--n", "3", "--points", "4"], ["chain_n3.csv", "chain_n3.svg"], 4),
    ("taxonomy_report.py", ["--kappa", "0.05:1.0:2"], ["taxonomy.csv"], 28),
], ids=["chain_cooling", "taxonomy_report"])
def test_script_writes_its_tables(tmp_path, monkeypatch, capsys, script, args, files, rows):
    monkeypatch.setattr(sys, "argv", [script, *args, "--outdir", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert "wrote" in capsys.readouterr().out
    for name in files:
        path = tmp_path / name
        assert path.exists()
        if name.endswith(".csv"):
            assert len(read_csv(path).rows) == rows
        else:
            assert path.read_text().startswith("<svg")


def test_chain_cooling_reports_an_unstable_chain(tmp_path, monkeypatch, capsys):
    """At N = 128 the default chain is unstable, so its occupations are
    empty; the detuning sweep still has a stable point to draw."""
    script = "chain_cooling.py"
    monkeypatch.setattr(sys, "argv", [script, "--n", "128", "--points", "2",
                                      "--outdir", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert "unstable" in capsys.readouterr().out
    assert len(read_csv(tmp_path / "chain_n128.csv").rows) == 2
    assert (tmp_path / "chain_n128.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("script, args, message", [
    ("chain_cooling.py", ["--n", "1"], "--n must be >= 2, got 1"),
    ("chain_cooling.py", ["--points", "0"], "--points must be >= 1, got 0"),
    ("chain_cooling.py", ["--jobs", "0"], "--jobs must be >= 1, got 0"),
])
def test_script_rejects_bad_argument(tmp_path, monkeypatch, capsys, script, args, message):
    outdir = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [script, *args, "--outdir", str(outdir)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("kappa", ["1:2", "0.05:1:0", "nan:1:3"])
def test_taxonomy_report_rejects_bad_kappa(tmp_path, monkeypatch, capsys, kappa):
    script = "taxonomy_report.py"
    monkeypatch.setattr(sys, "argv", [script, "--kappa", kappa, "--outdir", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exc.value.code == 2
    reason = {"1:2": "bad range spec", "0.05:1:0": "needs at least one point",
              "nan:1:3": "min and max must be finite"}[kappa]
    err = capsys.readouterr().err
    assert "--kappa: " in err and reason in err
    assert not (tmp_path / "taxonomy.csv").exists()


def test_taxonomy_report_accepts_negative_kappa_range(tmp_path, monkeypatch, capsys):
    """A range starting with '-' reaches the decay check instead of being
    taken for an option."""
    script = "taxonomy_report.py"
    monkeypatch.setattr(sys, "argv", [script, "--kappa", "-1:1:3", "--outdir", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exc.value.code == 2
    assert "--kappa: cavity c0: decay must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "taxonomy.csv").exists()
