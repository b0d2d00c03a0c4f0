"""scripts/degree_sweep.py run as a script, over the built-in dataset."""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from pathlib import Path

from qlbn.scenarios import load_builtin, predict_unknown

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "degree_sweep.py"


def run_sweep(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
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
