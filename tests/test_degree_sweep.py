"""`qlbn sweep`, run as `python -m qlbn sweep` and in process, over the built-in dataset."""

from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ROOT, decimal_from_products, src_env, ulps
from qlbn import cli
from qlbn.quantum import amplitudes_from_network, completion_magnitudes
from qlbn.scenarios import (
    PLAYER_TWO, Scenario, load_builtin, predict_unknown, scenario_to_network,
)

# SHA-256 of the default 81-step sweep over the built-in Average scenario;
# stdout and the --out file hold the same bytes.
SWEEP_81_DIGEST = "22af86d4ae31ef57bb67d7bc56e851b4fa1a0d4842fa65b4e2a643ad06f54a03"


def run_sweep(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qlbn", "sweep", *args],
        capture_output=True, text=True, cwd=ROOT, env=src_env(),
    )


@pytest.mark.parametrize(
    "scenario", load_builtin().scenarios,
    ids=lambda s: s.name.replace(",", "").replace(" ", "-"),
)
def test_sweep_rows_end_with_the_heuristic_pick(scenario: Scenario):
    result = run_sweep("--name", scenario.name, "--steps", "5")
    assert result.returncode == 0, result.stderr
    header, *rows = csv.reader(result.stdout.splitlines())
    assert header == ["degree", "prediction", "fit_error", "source"]
    assert [row[3] for row in rows] == ["sweep"] * 5 + ["heuristic"]
    assert [row[0] for row in rows[:5]] == ["-1.0", "-0.5", "0.0", "0.5", "1.0"]
    record = predict_unknown(scenario)
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


def test_near_cancelling_rows_print_their_posterior(tmp_path: Path):
    """Rows whose conditionals nearly match print the degree -1 prediction within a
    few ulps of the exact posterior of their products; neither row is left empty."""
    rows = [("Near", 0.700001), ("Nearer", 0.700000001)]
    path = tmp_path / "near.json"
    path.write_text(json.dumps([{
        "name": name, "p_defect_given_defect": 0.7,
        "p_defect_given_cooperate": cooperate, "observed_unknown": 0.5,
    } for name, cooperate in rows]))
    for name, cooperate in rows:
        result = run_sweep("--scenario", str(path), "--name", name, "--steps", "3")
        assert result.returncode == 0, result.stderr
        degree, prediction, _, source = next(csv.reader(result.stdout.splitlines()[1:]))
        assert (degree, source) == ("-1.0", "sweep")
        net = scenario_to_network(Scenario(name, 0.7, cooperate, 0.5))
        products = completion_magnitudes(amplitudes_from_network(net), PLAYER_TWO, {})
        exact, _ = decimal_from_products(products, -1.0)
        assert prediction, name
        assert ulps(float(prediction), exact["Defect"]) <= 4, (name, prediction)


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


def test_a_repeated_name_is_refused_by_the_reader(tmp_path: Path, capsys):
    """Two rows named X leave no one condition to sweep and no one record to key, so
    sweep and predict both refuse the file with the reader's message."""
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps([
        {"name": "X", "p_defect_given_defect": 0.9, "p_defect_given_cooperate": 0.8,
         "observed_unknown": 0.5},
        {"name": "X", "p_defect_given_defect": 0.6, "p_defect_given_cooperate": 0.7,
         "observed_unknown": 0.5},
    ]))
    for argv in (["sweep", "--name", "X", "--steps", "3"], ["predict", "--format", "csv"]):
        assert cli.main([*argv, "--scenario", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: scenario name 'X' is repeated\n")
