"""`qlbn sweep`, run as `python -m qlbn sweep` and in process, over the built-in dataset."""

from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from conftest import ROOT, src_env
from qlbn import cli
from qlbn.scenarios import load_builtin, predict_unknown

# SHA-256 of the default 81-step sweep over the built-in Average scenario;
# stdout and the --out file hold the same bytes.
SWEEP_81_DIGEST = "22af86d4ae31ef57bb67d7bc56e851b4fa1a0d4842fa65b4e2a643ad06f54a03"


def run_sweep(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qlbn", "sweep", *args],
        capture_output=True, text=True, cwd=ROOT, env=src_env(),
    )


def test_sweep_rows_end_with_the_heuristic_pick():
    result = run_sweep("--steps", "5")
    assert result.returncode == 0, result.stderr
    header, *rows = csv.reader(result.stdout.splitlines())
    assert header == ["degree", "prediction", "fit_error", "source"]
    assert [row[3] for row in rows] == ["sweep"] * 5 + ["heuristic"]
    assert [row[0] for row in rows[:5]] == ["-1.0", "-0.5", "0.0", "0.5", "1.0"]
    average = next(s for s in load_builtin().scenarios if s.name == "Average")
    record = predict_unknown(average)
    degree, prediction, fit, _ = rows[-1]
    assert degree == repr(record.degree.value)
    assert prediction == repr(record.quantum_prediction)
    assert fit == repr(record.fit_error_quantum)


def test_unknown_scenario_name_exits_one():
    result = run_sweep("--name", "Nope")
    assert result.returncode == 1
    assert "no scenario named 'Nope'" in result.stderr
    assert result.stdout == ""


def test_bad_steps_exit_one():
    result = run_sweep("--steps", "1")
    assert result.returncode == 1
    assert result.stderr == "error: --steps must be at least 2\n"
    assert result.stdout == ""


def test_sweep_bytes_are_pinned(tmp_path: Path):
    result = run_sweep("--steps", "81")
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == SWEEP_81_DIGEST
    out = tmp_path / "sweep.csv"
    result = run_sweep("--steps", "81", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"wrote {out} (81 sweep rows plus the heuristic row)\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_81_DIGEST


def test_unwritable_out_path_exits_one(tmp_path: Path):
    out = tmp_path / "missing" / "sweep.csv"
    result = run_sweep("--steps", "3", "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert not out.parent.exists()


def test_cancelled_mass_leaves_empty_cells(tmp_path: Path):
    """The fully ignorant condition cancels all mass at degree -1, which is
    also the degree the heuristic picks."""
    path = tmp_path / "ignorant.json"
    path.write_text(json.dumps([{
        "name": "Ignorant", "p_defect_given_defect": 0.5,
        "p_defect_given_cooperate": 0.5, "observed_unknown": 0.5,
    }]))
    result = run_sweep("--scenario", str(path), "--name", "Ignorant", "--steps", "3")
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "degree,prediction,fit_error,source\n"
        "-1.0,,,sweep\n"
        "0.0,0.5,0.0,sweep\n"
        "1.0,0.5,0.0,sweep\n"
        "-1.0,,,heuristic\n"
    )


def test_sweep_enumerates_once(amplitude_enumerations, capsys):
    """All 81 sweep degrees and the heuristic's pick share one set of products."""
    assert cli.main(["sweep", "--steps", "81"]) == 0
    assert amplitude_enumerations == ["P2"]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SWEEP_81_DIGEST


def test_singular_pair_is_an_inference_error(tmp_path: Path):
    """Alpha + beta = 1 for P2=Defect leaves the heuristic's degree undefined: an
    `error:` line and exit 2, as `qlbn predict` reports it, and no rows."""
    path = tmp_path / "singular.json"
    path.write_text(json.dumps([{
        "name": "Singular", "p_defect_given_defect": 0.98,
        "p_defect_given_cooperate": 0.18, "observed_unknown": 0.5,
    }]))
    result = run_sweep("--scenario", str(path), "--name", "Singular", "--steps", "3")
    assert result.returncode == 2
    assert result.stderr.startswith("error: |alpha + beta - 1|")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_sweep_parses_no_network_document(capsys, no_network_parse):
    assert cli.main(["sweep", "--steps", "81"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SWEEP_81_DIGEST
