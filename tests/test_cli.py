"""Command-line behavior: outputs, exit codes, and file emission."""

from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import chain_doc, src_env
from qlbn import cli
from qlbn.cli import main
from qlbn.scenarios import GoldenCheck, ReproductionResult, load_builtin, run_reproduction

ROOT = Path(__file__).resolve().parent.parent
GAME_NET = str(ROOT / "data" / "networks" / "prisoners_average.json")
SERVERS_NET = str(ROOT / "data" / "networks" / "data_servers.json")
SPLIT_BBA = str(ROOT / "data" / "bba" / "split_pair.json")
CERTAIN_BBA = str(ROOT / "data" / "bba" / "single_certain.json")
SCENARIOS = str(ROOT / "data" / "scenarios" / "literature_games.json")


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropy:
    def test_split_assignment_reports_deng_only(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--bba", SPLIT_BBA)
        assert code == 0
        assert out == "deng=1.79248\n"

    def test_certain_singleton_prints_plain_zero(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--bba", CERTAIN_BBA)
        assert code == 0
        assert out == "shannon=0.00000 deng=0.00000\n"

    def test_bayesian_assignment_reports_both(self, capsys, tmp_path):
        path = tmp_path / "bba.json"
        path.write_text(json.dumps({"frame": ["a", "b"], "masses": {"a": 0.5, "b": "0.5"}}))
        code, out, _ = run_cli(capsys, "entropy", "--bba", str(path))
        assert code == 0
        assert out == "shannon=1.00000 deng=1.00000\n"

    def test_comma_keys_accumulate(self, capsys, tmp_path):
        path = tmp_path / "bba.json"
        path.write_text(
            json.dumps({"frame": ["a", "b"], "masses": {"a,b": 0.5, "b, a": 0.5}})
        )
        code, out, _ = run_cli(capsys, "entropy", "--bba", str(path))
        assert code == 0
        assert out.startswith("deng=")

    def test_bad_mass_total(self, capsys, tmp_path):
        path = tmp_path / "bba.json"
        path.write_text(json.dumps({"frame": ["a"], "masses": {"a": 0.4}}))
        code, _, err = run_cli(capsys, "entropy", "--bba", str(path))
        assert code == 1
        assert "error:" in err and "sum to" in err

    def test_missing_file(self, capsys, tmp_path):
        missing = str(tmp_path / "none.json")
        not_text = tmp_path / "binary.json"
        not_text.write_bytes(b"\xff\xfe")
        for argv, path in (
            (["entropy", "--bba", missing], missing),
            (["predict", "--scenario", missing], missing),
            (["infer", "--network", missing, "--query", "A"], missing),
            (["entropy", "--bba", str(not_text)], not_text),
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 1
            assert f"cannot read {path}" in err

    def test_wrong_shape(self, capsys, tmp_path):
        path = tmp_path / "bba.json"
        for content, message in (
            ("[1, 2]", "expected an object with 'frame' and 'masses'"),
            ('{"frame": ["a", "b"], "masses": [1]}', "unexpected structure"),
        ):
            path.write_text(content)
            code, _, err = run_cli(capsys, "entropy", "--bba", str(path))
            assert code == 1
            assert f"{path}: {message}" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            # true used to count as mass 1: this file printed shannon=0.00000 and exited 0
            ({"frame": ["a", "b"], "masses": {"a": True, "b": 0}},
             "mass True for 'a' is not a number"),
            # a string used to load as its characters: "ab" as the labels a and b
            ({"frame": "ab", "masses": {"a": 0.5, "b": 0.5}},
             "the frame needs a list of labels, got 'ab'"),
            ({"frame": ["a", "b"], "masses": {"a": "half", "b": 0.5}},
             "mass 'half' for 'a' is not a number"),
            ({"frame": ["a", "b"], "masses": {"a": None, "b": 1}},
             "mass None for 'a' is not a number"),
        ],
        ids=["bool mass", "string frame", "word mass", "null mass"],
    )
    def test_rejected_values(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bba.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "entropy", "--bba", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {message}\n"


class TestInferClassical:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "infer", "--network", GAME_NET, "--query", "P2")
        assert code == 0
        assert out.splitlines() == ["Defect     0.80500", "Cooperate  0.19500"]

    def test_evidence_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "infer", "--network", SERVERS_NET, "--query", "S2",
            "--evidence", "S1=T",
        )
        assert code == 0
        assert out.splitlines()[0] == "T  0.70000"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "infer", "--network", SERVERS_NET, "--query", "S2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["query"] == "S2"
        assert payload["distribution"]["T"] == pytest.approx(0.66, abs=1e-12)

    def test_csv_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "infer", "--network", SERVERS_NET, "--query", "S2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "outcome,probability"
        values = {lb: float(v) for lb, v in (ln.split(",") for ln in lines[1:])}
        assert values["T"] + values["F"] == pytest.approx(1.0, abs=1e-15)

    def test_malformed_evidence(self, capsys):
        code, _, err = run_cli(
            capsys, "infer", "--network", SERVERS_NET, "--query", "S2",
            "--evidence", "S1",
        )
        assert code == 1
        assert "VAR=OUTCOME" in err

    def test_duplicate_evidence(self, capsys):
        code, _, err = run_cli(
            capsys, "infer", "--network", SERVERS_NET, "--query", "S2",
            "--evidence", "S1=T", "--evidence", "S1=F",
        )
        assert code == 1
        assert "twice" in err

    def test_unknown_outcome(self, capsys):
        code, _, err = run_cli(
            capsys, "infer", "--network", SERVERS_NET, "--query", "S2",
            "--evidence", "S1=Maybe",
        )
        assert code == 1
        assert "'Maybe'" in err

    def test_query_in_evidence(self, capsys):
        code, _, err = run_cli(
            capsys, "infer", "--network", SERVERS_NET, "--query", "S1",
            "--evidence", "S1=T",
        )
        assert code == 1
        assert "already appears" in err

    def test_zero_probability_evidence_is_an_inference_error(self, capsys, tmp_path):
        doc = json.loads(Path(SERVERS_NET).read_text())
        doc["cpts"]["S1"][0]["dist"] = {"T": 1.0, "F": 0.0}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "infer", "--network", str(path), "--query", "S2",
            "--evidence", "S1=F",
        )
        assert code == 2
        assert "probability zero" in err


class TestInferQuantum:
    def test_fixed_degree_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "infer", "--network", GAME_NET, "--query", "P2",
            "--mode", "quantum", "--degree", "fixed:-0.9420",
        )
        assert code == 0
        assert out.splitlines()[0] == "Defect     0.69266"

    def test_auto_degree_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "infer", "--network", GAME_NET, "--query", "P2",
            "--mode", "quantum",
        )
        assert code == 0
        assert out.splitlines()[0] == "Defect     0.69250"

    def test_degree_zero_matches_classical(self, capsys):
        code, quantum_out, _ = run_cli(
            capsys, "infer", "--network", GAME_NET, "--query", "P2",
            "--mode", "quantum", "--degree", "zero", "--format", "json",
        )
        assert code == 0
        code, classical_out, _ = run_cli(
            capsys, "infer", "--network", GAME_NET, "--query", "P2",
            "--format", "json",
        )
        assert code == 0
        quantum = json.loads(quantum_out)
        classical = json.loads(classical_out)["distribution"]
        for om in quantum["outcomes"]:
            assert om["probability"] == pytest.approx(
                classical[om["outcome"]], abs=1e-12
            )

    def test_json_carries_mass_decomposition(self, capsys):
        code, out, _ = run_cli(
            capsys, "infer", "--network", GAME_NET, "--query", "P2",
            "--mode", "quantum", "--degree", "fixed:-0.9420", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        defect = payload["outcomes"][0]
        assert defect["outcome"] == "Defect"
        assert defect["unnormalized"] == pytest.approx(
            defect["classical_part"] + defect["interference_part"], abs=0.0
        )

    def test_csv_round_trips_masses(self, capsys):
        code, out, _ = run_cli(
            capsys, "infer", "--network", GAME_NET, "--query", "P2",
            "--mode", "quantum", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",") == [
            "outcome", "classical_part", "interference_part",
            "unnormalized", "clamped", "probability",
        ]
        first = lines[1].split(",")
        assert float(first[3]) == float(first[1]) + float(first[2])

    def test_verbose_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "infer", "--network", GAME_NET, "--query", "P2",
            "--mode", "quantum", "--verbose",
        )
        assert code == 0
        assert "vector Defect: alpha=0.60828 beta=0.65955 distance=0.41685" in out
        assert "degree: raw=-0.94210 value=-0.94210 (auto)" in out
        assert "mass Defect: classical=" in out
        assert "normalizer=" in out

    def test_verbose_with_full_evidence(self, capsys):
        code, out, _ = run_cli(
            capsys, "infer", "--network", GAME_NET, "--query", "P2",
            "--evidence", "P1=Defect", "--mode", "quantum", "--verbose",
        )
        assert code == 0
        assert "vectors: unavailable for this structure" in out
        assert "degree: raw=0.00000 value=0.00000 (auto)" in out
        assert out.splitlines()[-2:] == ["Defect     0.87000", "Cooperate  0.13000"]

    def test_verbose_singular_distance_keeps_fixed_degree_result(self, capsys, tmp_path):
        # P2=Defect's outcome vector is (0.3, 0.7): alpha + beta = 1, a singular distance.
        doc = {
            "variables": [
                {"name": "P1", "outcomes": ["Cooperate", "Defect"]},
                {"name": "P2", "outcomes": ["Defect", "Cooperate"]},
            ],
            "edges": [["P1", "P2"]],
            "cpts": {
                "P1": [{"given": {}, "dist": {"Cooperate": 0.5, "Defect": 0.5}}],
                "P2": [
                    {"given": {"P1": "Cooperate"}, "dist": {"Defect": 0.18, "Cooperate": 0.82}},
                    {"given": {"P1": "Defect"}, "dist": {"Defect": 0.98, "Cooperate": 0.02}},
                ],
            },
        }
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(doc))
        base = ("infer", "--network", str(path), "--query", "P2", "--mode", "quantum")
        for degree in ("fixed:0.3", "zero"):
            code, plain, _ = run_cli(capsys, *base, "--degree", degree)
            assert code == 0
            code, verbose, _ = run_cli(capsys, *base, "--degree", degree, "--verbose")
            assert code == 0
            assert "vector Defect: alpha=0.30000 beta=0.70000 distance=singular" in verbose
            assert verbose.endswith(plain)
        code, _, plain_err = run_cli(capsys, *base)
        assert code == 2
        code, _, verbose_err = run_cli(capsys, *base, "--verbose")
        assert code == 2
        assert verbose_err == plain_err
        assert "|alpha + beta - 1|" in plain_err

    def test_negative_degree_without_pairs_prints_positive_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "infer", "--network", SERVERS_NET, "--query", "S2",
            "--evidence", "S1=T", "--mode", "quantum", "--degree", "fixed:-0.5",
            "--format", "json",
        )
        assert code == 0
        parts = [om["interference_part"] for om in json.loads(out)["outcomes"]]
        assert parts == [0.0, 0.0]
        assert '"interference_part": 0.0,' in out
        assert "-0.0" not in out

    def test_unknown_query_is_named_before_counting_unobserved(self, capsys):
        code, _, err = run_cli(
            capsys, "infer", "--network", SERVERS_NET, "--query", "ZZ",
            "--mode", "quantum",
        )
        assert code == 1
        assert "no variable named 'ZZ'" in err

    def test_fixed_degree_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "infer", "--network", GAME_NET, "--query", "P2",
            "--mode", "quantum", "--degree", "fixed:1.5",
        )
        assert code == 1
        assert "outside [-1, 1]" in err

    def test_unparseable_degree(self, capsys):
        code, _, err = run_cli(
            capsys, "infer", "--network", GAME_NET, "--query", "P2",
            "--mode", "quantum", "--degree", "fixed:lots",
        )
        assert code == 1
        assert "cannot parse degree" in err

    def test_unknown_degree_policy(self, capsys):
        code, _, err = run_cli(
            capsys, "infer", "--network", GAME_NET, "--query", "P2",
            "--mode", "quantum", "--degree", "sometimes",
        )
        assert code == 1
        assert "not auto, zero, or fixed" in err

    def test_non_binary_network_rejected(self, capsys, tmp_path):
        doc = {
            "variables": [{"name": "X", "outcomes": ["a", "b", "c"]}],
            "edges": [],
            "cpts": {"X": [{"given": {}, "dist": {"a": 0.2, "b": 0.3, "c": 0.5}}]},
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "infer", "--network", str(path), "--query", "X",
            "--mode", "quantum",
        )
        assert code == 1
        assert "two-outcome" in err

    def test_auto_degree_with_two_unobserved_is_an_inference_error(
        self, capsys, tmp_path
    ):
        doc = {
            "variables": [
                {"name": "A", "outcomes": ["T", "F"]},
                {"name": "B", "outcomes": ["T", "F"]},
                {"name": "C", "outcomes": ["T", "F"]},
            ],
            "edges": [],
            "cpts": {
                "A": [{"given": {}, "dist": {"T": 0.6, "F": 0.4}}],
                "B": [{"given": {}, "dist": {"T": 0.5, "F": 0.5}}],
                "C": [{"given": {}, "dist": {"T": 0.3, "F": 0.7}}],
            },
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "infer", "--network", str(path), "--query", "A",
            "--mode", "quantum",
        )
        assert code == 2
        assert "exactly one" in err


class TestInferChecksAndEnumeration:
    """Bad input is named before the structure is weighed, the structure before
    anything is enumerated, and each query enumerates its amplitude products once."""

    @pytest.mark.parametrize("evidence, message", [
        ("B=T", "query 'B' already appears in the evidence"),
        ("Z=T", "no variable named 'Z'"),
    ])
    @pytest.mark.parametrize("degree", ["auto", "fixed:0.3"])
    def test_bad_evidence_is_a_validation_error(self, capsys, tmp_path, evidence, message,
                                                 degree):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc(["A", "B", "C"])))
        result = run_cli(
            capsys, "infer", "--network", str(path), "--query", "B", "--evidence", evidence,
            "--mode", "quantum", "--degree", degree,
        )
        assert result == (1, "", f"error: {message}\n")

    def test_auto_degree_refuses_many_unobserved_before_enumerating(
        self, capsys, tmp_path, no_enumeration
    ):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc([f"X{i}" for i in range(40)])))
        code, out, err = run_cli(
            capsys, "infer", "--network", str(path), "--query", "X0", "--mode", "quantum",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: query 'X0' leaves 39 unobserved variables ['X1', ")

    @pytest.mark.parametrize("extra", [
        (), ("--verbose",), ("--degree", "fixed:0.3", "--verbose"),
    ])
    def test_quantum_infer_enumerates_once(self, capsys, amplitude_enumerations, extra):
        code, _, _ = run_cli(
            capsys, "infer", "--network", GAME_NET, "--query", "P2", "--mode", "quantum", *extra,
        )
        assert code == 0
        assert amplitude_enumerations == ["P2"]

    def test_singular_auto_degree_prints_nothing(self, capsys, tmp_path, amplitude_enumerations):
        # P2=Defect's outcome vector is (0.3, 0.7): alpha + beta = 1, a singular distance.
        doc = json.loads(Path(GAME_NET).read_text())
        doc["cpts"]["P2"] = [
            {"given": {"P1": "Cooperate"}, "dist": {"Defect": 0.18, "Cooperate": 0.82}},
            {"given": {"P1": "Defect"}, "dist": {"Defect": 0.98, "Cooperate": 0.02}},
        ]
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "infer", "--network", str(path), "--query", "P2", "--mode", "quantum",
            "--verbose",
        )
        assert (code, out) == (2, "")
        assert "|alpha + beta - 1|" in err
        assert amplitude_enumerations == ["P2"]

    def test_reproduce_enumerates_once_per_scenario(self, capsys, amplitude_enumerations):
        code, _, _ = run_cli(capsys, "reproduce")
        assert code == 0
        assert amplitude_enumerations == ["P2"] * 5


class TestInferCsvQuoting:
    LABELS = ["yes, surely", 'no "way"']

    @pytest.fixture
    def net_path(self, tmp_path) -> str:
        yes, no = self.LABELS
        doc = {
            "variables": [
                {"name": "A", "outcomes": self.LABELS},
                {"name": "B", "outcomes": ["T", "F"]},
            ],
            "edges": [["A", "B"]],
            "cpts": {
                "A": [{"given": {}, "dist": {yes: 0.25, no: 0.75}}],
                "B": [
                    {"given": {"A": yes}, "dist": {"T": 0.5, "F": 0.5}},
                    {"given": {"A": no}, "dist": {"T": 0.9, "F": 0.1}},
                ],
            },
        }
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_labels_with_commas_and_quotes_stay_one_field(self, capsys, net_path, mode):
        code, out, _ = run_cli(
            capsys, "infer", "--network", net_path, "--query", "A", "--mode", mode,
            "--degree", "fixed:0.3", "--format", "csv",
        )
        assert code == 0
        header, *rows = csv.reader(out.splitlines())
        assert [len(row) for row in rows] == [len(header)] * 2
        assert [row[0] for row in rows] == self.LABELS


class TestPredictAndCompare:
    def test_predict_table(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--scenario", SCENARIOS)
        assert code == 0
        assert out.splitlines()[0].startswith("scenario")
        assert "(mean fit error)" in out

    def test_predict_csv_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "predict", "--scenario", SCENARIOS, "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",")[0] == "scenario"
        assert len(lines) == 7  # header + five scenarios + mean row

    def test_predict_rejects_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        code, _, err = run_cli(capsys, "predict", "--scenario", str(path))
        assert code == 1
        assert "no scenarios" in err

    def test_compare_defaults_to_builtin_dataset(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["records"]) == 5
        assert set(payload["mean_fit_literature"]) == {"qpdt", "dynamic_heuristic"}

    def test_builtin_dataset_is_parsed_once_per_command(self, capsys, monkeypatch):
        calls = []

        def counting_load_builtin():
            calls.append(1)
            return load_builtin()

        for module in ("qlbn.cli", "qlbn.scenarios"):
            monkeypatch.setattr(f"{module}.load_builtin", counting_load_builtin)
        for argv in (["reproduce"], ["compare"], ["compare", "--scenario", SCENARIOS]):
            calls.clear()
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
            assert len(calls) == 1, argv

    def test_compare_accepts_scenario_file(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--scenario", SCENARIOS, "--format", "table"
        )
        assert code == 0
        assert "QPDT" in out


class TestReproduce:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce")
        assert code == 0
        assert "golden checks" in out
        assert out.count("PASS") == 9
        assert "FAIL" not in out

    def test_out_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "series"
        code, _, _ = run_cli(capsys, "reproduce", "--out", str(out_dir))
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "model_comparison.csv",
            "observed_vs_predicted.csv",
            "report.txt",
            "table2.csv",
            "table3.csv",
        ]
        table2 = (out_dir / "table2.csv").read_text().splitlines()
        assert len(table2) == 7
        assert "golden checks" in (out_dir / "report.txt").read_text()

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(g["passed"] for g in payload["goldens"])
        assert len(payload["published_models"]) == 5

    def test_mismatch_exits_three(self, capsys, monkeypatch, tmp_path):
        real = run_reproduction()
        doctored = ReproductionResult(
            comparison=real.comparison,
            table3=real.table3,
            goldens=(GoldenCheck("doctored check", 1.0, 0.0, 1e-6),),
        )
        monkeypatch.setattr("qlbn.cli.run_reproduction", lambda: doctored)
        out_dir = tmp_path / "series"
        code, out, err = run_cli(capsys, "reproduce", "--out", str(out_dir))
        assert code == 3
        assert "FAIL  doctored check" in out
        assert "error:" in err
        # the series files are still written for inspection
        assert (out_dir / "report.txt").exists()


    def test_out_path_is_a_file(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.write_text("")
        code, _, err = run_cli(capsys, "reproduce", "--out", str(target))
        assert code == 1
        assert f"error: cannot write {target}" in err


class TestModuleInvocation:
    def test_reproduce_is_deterministic(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "qlbn", "reproduce"],
                capture_output=True, cwd=ROOT, env=src_env(),
            )
            for _ in range(2)
        ]
        assert all(r.returncode == 0 for r in runs)
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout  # nonempty

    def test_usage_error_exits_one(self):
        for args in (["infer"], ["sweep", "--steps", "abc"]):
            result = subprocess.run(
                [sys.executable, "-m", "qlbn", *args],
                capture_output=True, cwd=ROOT, env=src_env(),
            )
            assert result.returncode == 1, args
            assert b"error:" in result.stderr

    def test_unknown_command_exits_one(self):
        result = subprocess.run(
            [sys.executable, "-m", "qlbn", "transmogrify"],
            capture_output=True, cwd=ROOT, env=src_env(),
        )
        assert result.returncode == 1

    def test_help_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "qlbn", "--help"],
            capture_output=True, text=True, cwd=ROOT, env=src_env(),
        )
        assert result.returncode == 0
        assert "reproduce" in result.stdout
        block = cli.__doc__.split("Commands:\n", 1)[1].split("\n\n", 1)[0]
        documented = [line.split()[0] for line in block.splitlines()]
        for command in cli._COMMANDS:
            assert command in result.stdout, command
            assert command in documented, command


# SHA-256 of every rendered output, recorded before the renderers were merged
# into one rows-and-columns model; any byte of drift fails here.
DIGEST_COMMANDS = {
    "reproduce": ["reproduce"],
    "compare": ["compare"],
    "compare-scenario": ["compare", "--scenario", SCENARIOS],
    "predict": ["predict", "--scenario", SCENARIOS],
    "infer-quantum-verbose": [
        "infer", "--network", GAME_NET, "--query", "P2", "--mode", "quantum", "--verbose",
    ],
    "infer-quantum-zero": [
        "infer", "--network", GAME_NET, "--query", "P2", "--mode", "quantum",
        "--degree", "zero",
    ],
    "infer-evidence": [
        "infer", "--network", SERVERS_NET, "--query", "S2", "--evidence", "S1=T",
    ],
}
STDOUT_DIGESTS = {
    "reproduce-table":
        "fff8099382e49ee86b736e6bba091371f108e1a69a2c91151ddf9b6e50d22886",
    "reproduce-csv":
        "5b4fb9c620cf9e244f150a4056c905d025e74c5ca358fe1199b8f15911340f53",
    "reproduce-json":
        "f8d83888a45acfdb06eb174df62dffa3d2d268ecda49db33b3372c5f22b6b9cf",
    "compare-table":
        "7d9fe8158e3815406eaac61549e2a4064a34ff1f8d8969fe20728ce2e744eaf3",
    "compare-csv":
        "ebe33103f777b7f758f352a929770b969d2a3754e1fc109fb7795eebd65b355b",
    "compare-json":
        "cbab372b84b1f3457972b04b2b04f033139217c7315742a6adba7778b184fd8d",
    "compare-scenario-table":
        "7d9fe8158e3815406eaac61549e2a4064a34ff1f8d8969fe20728ce2e744eaf3",
    "compare-scenario-csv":
        "ebe33103f777b7f758f352a929770b969d2a3754e1fc109fb7795eebd65b355b",
    "compare-scenario-json":
        "cbab372b84b1f3457972b04b2b04f033139217c7315742a6adba7778b184fd8d",
    "predict-table":
        "43dcd30daf84a1cb2951f70a52cf51da51fbbd5c8ab343d09723bc170dacdba4",
    "predict-csv":
        "ed5db5cb7a01a0d6d4ba61c061891f3dc7f364e5d5f71ed50d6fb1617d17ce16",
    "predict-json":
        "fde5e0a4794ac10d993defcde433bef23553cd4de0e496620fa79132ea0c3d35",
    "infer-quantum-verbose-table":
        "4d490c510cea8263b0e6928138bb036c6980ff375b486b26ff72ff4a1cc85660",
    "infer-quantum-verbose-csv":
        "e6f334d256b79bd9aefc76b5d66e19c3f445d2212946e6599da166387eaad598",
    "infer-quantum-verbose-json":
        "98951e13a62e3cda90c1137592ef084d3af0872cf66c0705d8587b29c39331d0",
    "infer-quantum-zero-table":
        "812891f7575e212cac873bc3f31a7673398ba0c4ad2e6458b9a4a3cad6ca25b9",
    "infer-quantum-zero-csv":
        "1ae146f71664ec4a04818a7cc5c4df0b9eba84dc3a80a175a932f133f812dad2",
    "infer-quantum-zero-json":
        "2ee219339b684596a4e07926e58493db5db7ccac3178fe41c3e9380688fddbf8",
    "infer-evidence-table":
        "de908dcee71ec7158fb8ef1612739e77eec530ca93144c289c04c4895af8ea14",
    "infer-evidence-csv":
        "40cd999f389cc300b3b8ec9bd20ec286f683612fb66e3c43d1cc474685cbea9d",
    "infer-evidence-json":
        "873647016eb45ab8339624be79be15983d3ea942bceb81f2f284de482c69c745",
}
OUT_FILE_DIGESTS = {
    "model_comparison.csv":
        "e26b9c4b29025b2c20f529acdaf43f38356a5a62e5d0f0c2d4b43f1a8b70f0bf",
    "observed_vs_predicted.csv":
        "2bb52dadbbbd4403d7cf6bfde45f0c308d0b3b48420b43074b2b52a1a988515c",
    "report.txt":
        "fff8099382e49ee86b736e6bba091371f108e1a69a2c91151ddf9b6e50d22886",
    "table2.csv":
        "ebe33103f777b7f758f352a929770b969d2a3754e1fc109fb7795eebd65b355b",
    "table3.csv":
        "06bf4b0eaf47d21b12c6f9b57b5cf71795def7b8f86af876cf6f5b1345a8493f",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestByteIdentity:
    @pytest.mark.parametrize("key", sorted(STDOUT_DIGESTS))
    def test_stdout_digest(self, capsys, key):
        label, _, fmt = key.rpartition("-")
        code, out, _ = run_cli(capsys, *DIGEST_COMMANDS[label], "--format", fmt)
        assert code == 0
        assert sha256(out.encode()) == STDOUT_DIGESTS[key]

    def test_out_files_digest_and_report_matches_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reproduce", "--out", str(tmp_path))
        assert code == 0
        digests = {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()}
        assert digests == OUT_FILE_DIGESTS
        assert (tmp_path / "report.txt").read_text() == out
