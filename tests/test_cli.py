"""Command-line behavior: outputs, exit codes, and file emission."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    CLAMPING_DOC, chain_doc, refuse_json_constant, src_env, tiny_evidence_doc, uniform_chain_doc,
)
from qlbn import cli
from qlbn.cli import main
from qlbn.scenarios import (Scenario, load_builtin, load_scenarios, run_comparison,
                            run_reproduction)

ROOT = Path(__file__).resolve().parent.parent
GAME_NET = str(ROOT / "data" / "networks" / "prisoners_average.json")
SERVERS_NET = str(ROOT / "data" / "networks" / "data_servers.json")
SPLIT_BBA = str(ROOT / "data" / "bba" / "split_pair.json")
CERTAIN_BBA = str(ROOT / "data" / "bba" / "single_certain.json")
SCENARIOS = str(ROOT / "data" / "scenarios" / "literature_games.json")
SAMPLE_ROWS = json.loads(Path(SCENARIOS).read_text())

# Evidence B=T so unlikely that the quantum total mass has no finite reciprocal.
OVERFLOWING_DOC = {
    "variables": [{"name": "A", "outcomes": ["T", "F"]},
                  {"name": "B", "outcomes": ["T", "F"]}],
    "edges": [],
    "cpts": {"A": [{"given": {}, "dist": {"T": 0.5, "F": 0.5}}],
             "B": [{"given": {}, "dist": {"T": 5e-324, "F": 1.0}}]},
}


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
        """Every spelling of {a, b} adds to one focal set of mass 1: log2(3) bits."""
        path = tmp_path / "bba.json"
        for masses in ({"a,b": 0.5, "b, a": 0.5},
                       {"a,b": 0.5, "b, a": 0.25, " a ,b": 0.25}):
            path.write_text(json.dumps({"frame": ["a", "b"], "masses": masses}))
            code, out, _ = run_cli(capsys, "entropy", "--bba", str(path))
            assert code == 0
            assert out == "deng=1.58496\n"

    def test_a_focal_set_past_the_float_range(self, capsys, tmp_path):
        """2^1100 - 1 has no float; dividing the mass by it once ended in an OverflowError
        traceback."""
        labels = [f"x{i}" for i in range(1100)]
        path = tmp_path / "bba.json"
        path.write_text(json.dumps({"frame": labels, "masses": {",".join(labels): 1}}))
        assert run_cli(capsys, "entropy", "--bba", str(path)) == (0, "deng=1100.00000\n", "")

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
            # json.dumps writes the JSON literal Infinity, which json.loads reads back
            ({"frame": ["a", "b"], "masses": {"a": float("inf")}},
             "mass inf for ('a',) is outside [0, 1]"),
        ],
        ids=["bool mass", "string frame", "word mass", "null mass", "infinite mass"],
    )
    def test_rejected_values(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bba.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "entropy", "--bba", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {message}\n"

    def test_frame_errors_come_before_mass_errors(self, capsys, tmp_path):
        path = tmp_path / "bba.json"
        path.write_text(json.dumps({"frame": ["a", "a"], "masses": {"a": "half"}}))
        code, out, err = run_cli(capsys, "entropy", "--bba", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: frame elements must be unique, got ('a', 'a')\n"


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

    def test_json_stays_valid_when_the_normalizer_overflows(self, capsys, tmp_path):
        """A total mass below 2**-1024 has no finite reciprocal, and JSON has no
        Infinity: the normalizer is null and the probabilities still normalize."""
        path = tmp_path / "net.json"
        path.write_text(json.dumps(OVERFLOWING_DOC))
        code, out, _ = run_cli(
            capsys, "infer", "--network", str(path), "--query", "A", "--evidence", "B=T",
            "--mode", "quantum", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out, parse_constant=refuse_json_constant)
        assert payload["normalizer"] is None
        assert [om["probability"] for om in payload["outcomes"]] == [0.5, 0.5]

    @pytest.mark.parametrize("degree", ["auto", "fixed:0.3"])
    def test_evidence_below_the_smallest_float_gets_a_quantum_answer(
        self, capsys, tmp_path, degree
    ):
        """Evidence of probability 1e-400: quantum mode scales the products its sums
        read, while classical mode, whose products underflow as they are multiplied,
        still refuses it."""
        path = tmp_path / "net.json"
        path.write_text(json.dumps(tiny_evidence_doc("BC")))
        query = ["infer", "--network", str(path), "--query", "A", "--evidence", "B=T",
                 "--evidence", "C=T"]
        code, out, err = run_cli(capsys, *query, "--mode", "quantum", "--degree", degree)
        assert (code, out, err) == (0, "T  0.50000\nF  0.50000\n", "")
        code, out, err = run_cli(capsys, *query)
        assert (code, out) == (2, "")
        assert err == "error: evidence {'B': 'T', 'C': 'T'} has probability zero\n"

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

    def test_verbose_fixed_degree_with_two_unobserved(self, capsys, tmp_path):
        """A fixed degree needs no pairs, so two unobserved variables are answered and
        the trace says the vectors are unavailable."""
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc(["A", "B", "C"])))
        code, out, err = run_cli(
            capsys, "infer", "--network", str(path), "--query", "A",
            "--mode", "quantum", "--degree", "fixed:0.3", "--verbose",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == [
            "vectors: unavailable for this structure",
            "degree: raw=0.30000 value=0.30000 (fixed:0.3)",
        ]
        assert [line.split()[0] for line in out.splitlines()[-2:]] == ["T", "F"]

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

    @pytest.mark.parametrize("degree", ["auto", "zero", "fixed:0.3"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_verbose_trace_goes_to_stderr_for_csv_and_json(self, capsys, fmt, degree):
        base = ("infer", "--network", GAME_NET, "--query", "P2", "--mode", "quantum",
                "--degree", degree)
        code, plain, _ = run_cli(capsys, *base, "--format", fmt)
        assert code == 0
        code, out, err = run_cli(capsys, *base, "--format", fmt, "--verbose")
        assert code == 0
        assert out == plain
        if fmt == "csv":
            assert next(csv.reader(out.splitlines()))[0] == "outcome"
        else:
            assert json.loads(out)["query"] == "P2"
        prefixes = ["vector Defect: ", "vector Cooperate: ", "degree: raw=",
                    "mass Defect: ", "mass Cooperate: ", "normalizer="]
        lines = err.splitlines()
        assert len(lines) == len(prefixes)
        assert all(line.startswith(p) for line, p in zip(lines, prefixes))
        assert f"({degree})" in lines[2]
        # The table prints the same trace lines to stdout, ahead of the table.
        _, table, _ = run_cli(capsys, *base)
        _, table_verbose, _ = run_cli(capsys, *base, "--verbose")
        assert table_verbose == err + table

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

    @pytest.mark.parametrize(
        "options",
        ["zero", "auto", "fixed:0.3", "zero --verbose", "auto --verbose", "fixed:0.3 --verbose"],
    )
    def test_zero_probability_evidence_is_not_blamed_on_interference(
        self, capsys, tmp_path, options
    ):
        """Nothing reaches stdout, not even the --verbose trace, before the error."""
        doc = chain_doc(["A", "B", "C"])
        doc["cpts"]["A"][0]["dist"] = {"T": 0.0, "F": 1.0}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "infer", "--network", str(path), "--query", "C", "--evidence", "A=T",
            "--mode", "quantum", "--degree", *options.split(),
        )
        assert (code, out) == (2, "")
        assert err == "error: the evidence has probability zero, so query 'C' has no posterior\n"

    def test_cancelled_mass_names_the_feasible_bound(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(uniform_chain_doc(list("ABCD"))))
        code, out, err = run_cli(
            capsys, "infer", "--network", str(path), "--query", "A",
            "--mode", "quantum", "--degree", "fixed:-0.5", "--verbose",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: interference cancelled all mass for query 'A'")
        assert err.endswith("; the degree's feasible bound is -0.14285714285714288\n")

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
        assert "at most one" in err


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


class TestInferFormatsAgree:
    """The table and the CSV of `infer` project the rows of the document that
    `--format json` prints: each CSV cell is the repr of its JSON value (a string as
    is), and each table row shows its JSON outcome and probability."""

    CASES = {
        "game classical": (GAME_NET, ["--query", "P2"]),
        "servers evidence classical": (SERVERS_NET, ["--query", "S1", "--evidence", "S2=F"]),
        "game auto": (GAME_NET, ["--query", "P2", "--mode", "quantum"]),
        "servers fixed": (SERVERS_NET, ["--query", "S2", "--mode", "quantum",
                                        "--degree", "fixed:-0.5"]),
        "overflowing normalizer": (OVERFLOWING_DOC, [
            "--query", "A", "--evidence", "B=T", "--mode", "quantum"]),
        "clamped outcome": (CLAMPING_DOC, [
            "--query", "B", "--mode", "quantum", "--degree", "fixed:-0.5", "--verbose"]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_table_and_csv_rows_are_the_json_values(self, capsys, tmp_path, case):
        network, args = self.CASES[case]
        if isinstance(network, dict):
            path = tmp_path / "net.json"
            path.write_text(json.dumps(network))
            network = str(path)
        outputs = {}
        for fmt in ("json", "csv", "table"):
            code, outputs[fmt], _ = run_cli(
                capsys, "infer", "--network", network, *args, "--format", fmt
            )
            assert code == 0
        doc = json.loads(outputs["json"])
        if "distribution" in doc:
            assert set(doc) == {"query", "distribution"}
            rows = [{"outcome": o, "probability": p} for o, p in doc["distribution"].items()]
        else:
            assert set(doc) == {"query", "normalizer", "outcomes"}
            rows = doc["outcomes"]
        reader = csv.DictReader(io.StringIO(outputs["csv"]))
        assert reader.fieldnames == list(rows[0])
        body = list(reader)
        assert len(body) == len(rows)
        for cells, row in zip(body, rows):
            for key, value in row.items():
                assert cells[key] == (value if isinstance(value, str) else repr(value))
        # --verbose puts its trace before the table on stdout; the table ends it.
        lines = outputs["table"].splitlines()[-len(rows):]
        width = max(len(row["outcome"]) for row in rows)
        assert lines == [f"{row['outcome'].ljust(width)}  {row['probability']:.5f}"
                         for row in rows]
        if case == "clamped outcome":
            assert [row["clamped"] for row in rows] == [False, True]
            assert [cells["clamped"] for cells in body] == ["False", "True"]
        if case == "overflowing normalizer":
            assert doc["normalizer"] is None


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

    @pytest.mark.parametrize(
        "content, message",
        [
            ('[{"name": "X", "p_defect_given_defect": 0.5, "p_defect_given_cooperate": 0.5,'
             ' "observed_unknown": NaN}]',
             "scenario 0: 'X': observed_unknown = nan is outside [0, 1]"),
            ("[1]", "scenario 0: expected an object, got 1"),
            ('[{"name": "X", "p_defect_given_defect": 0.5, "p_defect_given_cooperate": 0.5,'
             ' "observed_unknown": 0.5}, {"name": "Y", "p_defect_given_defect": "0.8x",'
             ' "p_defect_given_cooperate": 0.5, "observed_unknown": 0.5}]',
             "scenario 1: cannot parse number '0.8x'"),
            ('[{"name": "X", "p_defect_given_defect": 0.5, "p_defect_given_cooperate": 0.5,'
             ' "observed_unknown": 0}]',
             "scenario 0: 'X': observed_unknown = 0.0 leaves the relative fit errors undefined"),
            ('[{"name": "X", "p_defect_given_defect": 0.5, "p_defect_given_cooperate": 0.5,'
             ' "observed_unknown": 1e-320}]',
             "scenario 0: 'X': observed_unknown = 1e-320 leaves the relative fit errors "
             "undefined"),
            # no prediction reads the payoff matrix a note quotes
            ('[{"name": "X", "p_defect_given_defect": 0.5, "p_defect_given_cooperate": 0.5,'
             ' "observed_unknown": 0.5, "payoff_note": 5}]',
             "scenario 0: missing keys [], unknown keys ['payoff_note']"),
            *((f'[{{"name": {name}, "p_defect_given_defect": 0.5,'
               ' "p_defect_given_cooperate": 0.5, "observed_unknown": 0.5}]',
               f"scenario 0: scenario name {shown} is not a string")
              for name, shown in (("5", "5"), ("null", "None"), ("[1]", "[1]"))),
            ('[{"name": "X", "p_defect_given_defect": 0.9, "p_defect_given_cooperate": 0.8,'
             ' "observed_unknown": 0.5}, {"name": "X", "p_defect_given_defect": 0.5,'
             ' "p_defect_given_cooperate": 0.5, "observed_unknown": 0.5}]',
             "scenario name 'X' is repeated"),
            # once counted the row's published fits twice in compare's literature means
            (json.dumps([*SAMPLE_ROWS, SAMPLE_ROWS[2]]),
             "scenario name 'Busemeyer et al., 2006a' is repeated"),
        ],
        ids=["nan observed", "row not an object", "bad decimal", "zero observed",
             "subnormal observed", "int note", "int name", "null name", "list name",
             "repeated name", "repeated sample row"],
    )
    def test_predict_rejected_files(self, capsys, tmp_path, content, message):
        """Every command that reads a scenario file refuses it with the reader's message."""
        path = tmp_path / "scenarios.json"
        path.write_text(content)
        for command in ("predict", "compare", "sweep"):
            code, out, err = run_cli(capsys, command, "--scenario", str(path))
            assert (code, out) == (1, ""), command
            assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("key", Scenario._fields)
    def test_every_scenario_key_reaches_the_prediction_document(self, capsys, tmp_path, key):
        """A key that no output reads is a key the format should not carry."""
        base = Scenario("Average", 0.87, 0.74, 0.64)._asdict()
        value = base[key]
        changed = {**base, key: value / 2 if isinstance(value, float) else f"{value}, changed"}
        documents = []
        for row in (base, changed):
            path = tmp_path / "scenarios.json"
            path.write_text(json.dumps([row]))
            code, out, err = run_cli(capsys, "predict", "--scenario", str(path), "--format",
                                     "json")
            assert (code, err) == (0, "")
            documents.append(json.loads(out))
        assert documents[0] != documents[1]

    def test_compare_defaults_to_builtin_dataset(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["records"]) == 5
        assert set(payload["mean_fit_literature"]) == {"qpdt", "dynamic_heuristic"}

    def test_compare_prints_the_builtin_literature_cells(self, capsys):
        """The records that print published columns print their
        load_builtin().literature() cells, each {"prediction", "fit"}."""
        code, out, _ = run_cli(capsys, "compare", "--format", "json")
        assert code == 0
        literature = load_builtin().literature()
        printed = {r["scenario"]: r["literature"] for r in json.loads(out)["records"]}
        assert {name: cells for name, cells in printed.items() if cells} == literature
        assert {tuple(cell) for cells in literature.values() for cell in cells.values()} == {
            ("prediction", "fit")
        }

    def test_builtin_dataset_is_parsed_once_per_command(self, capsys, monkeypatch):
        calls = []

        def counting_load_builtin():
            calls.append(1)
            return load_builtin()

        monkeypatch.setattr("qlbn.scenarios.load_builtin", counting_load_builtin)
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


# A well-posed row, then the fully ignorant one, whose interference cancels all mass.
OK_ROW = {"name": "ok", "p_defect_given_defect": 0.9, "p_defect_given_cooperate": 0.8,
          "observed_unknown": 0.5}
IGNORANT_ROW = {"name": "ignorant", "p_defect_given_defect": 0.5,
                "p_defect_given_cooperate": 0.5, "observed_unknown": 0.5}
IGNORANT_ERROR = ("interference cancelled all mass for query 'P2' (unnormalized [0.0, 0.0]); "
                  "the degree's feasible bound is -1.0")


class TestAFailedRow:
    """One row that has no prediction leaves the others reported, then exits 2."""

    def _run(self, capsys, tmp_path, rows: list[dict], *argv: str) -> tuple[int, str, str]:
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(rows))
        return run_cli(capsys, *argv, "--scenario", str(path))

    @pytest.mark.parametrize("command", ["predict", "compare"])
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_the_other_rows_print_as_a_run_without_it(self, capsys, tmp_path, command, fmt):
        code, out, err = self._run(capsys, tmp_path, [OK_ROW, IGNORANT_ROW], command,
                                   "--format", fmt)
        assert code == 2
        assert err == f"error: no prediction for scenario 'ignorant': {IGNORANT_ERROR}\n"
        alone = self._run(capsys, tmp_path, [OK_ROW], command, "--format", fmt)
        assert alone[0] == 0
        if fmt == "json":
            report = json.loads(out, parse_constant=refuse_json_constant)
            assert report == {**json.loads(alone[1]), "records": report["records"],
                              "failures": [{"scenario": "ignorant", "error": IGNORANT_ERROR}]}
            assert report["records"][0] == json.loads(alone[1])["records"][0]
            assert list(report)[-1] == "failures"
        else:
            # the failed row, every predicted cell blank, sits before the one row's mean
            lines, failed = alone[1].splitlines(), out.splitlines()[-2]
            assert out.splitlines() == lines[:-1] + [failed] + lines[-1:]
            assert (failed.split() == ["ignorant", "0.50000"] + ["-"] * 5 if fmt == "table"
                    else failed == "ignorant,0.5,,,,,")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_a_lone_failed_row_prints_its_own_error(self, capsys, tmp_path, fmt):
        code, out, err = self._run(capsys, tmp_path, [IGNORANT_ROW], "predict", "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {IGNORANT_ERROR}\n")

    def test_reproduce_stops_when_a_builtin_row_fails(self, capsys, monkeypatch, tmp_path):
        """Its goldens need every prediction, so nothing prints."""
        doc = json.loads((ROOT / "src" / "qlbn" / "data" / "literature.json").read_text())
        doc["scenarios"][1].update(p_defect_given_defect=0.5, p_defect_given_cooperate=0.5)
        path = tmp_path / "literature.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr("qlbn.scenarios._LITERATURE", path)
        code, out, err = run_cli(capsys, "reproduce")
        assert (code, out) == (2, "")
        assert err == (f"error: no prediction for scenario 'Li and Taplin, 2002': "
                       f"{IGNORANT_ERROR}\n")


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

    def test_json_published_models_are_the_table3_rows(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--format", "json")
        assert code == 0
        table3 = run_reproduction()["published_models"]
        assert json.loads(out)["published_models"] == table3

    def test_table3_files_are_the_json_published_models(self, capsys, tmp_path):
        """Each table3.csv and model_comparison.csv cell is the repr of the value that
        `reproduce --format json` prints under published_models (a string as is)."""
        code, out, _ = run_cli(capsys, "reproduce", "--format", "json", "--out", str(tmp_path))
        assert code == 0
        published = json.loads(out)["published_models"]
        models = list(published[0]["models"])
        assert models == ["qpdt", "dynamic_heuristic"]

        def cell(value) -> str:
            return value if isinstance(value, str) else repr(value)

        table3 = csv.DictReader(io.StringIO((tmp_path / "table3.csv").read_text()))
        assert table3.fieldnames == [
            "condition", "observed",
            *(f"{m}_{part}" for m in models for part in ("prediction", "fit")),
            "prediction", "prediction_fit", "basis",
        ]
        comparison = csv.DictReader(io.StringIO((tmp_path / "model_comparison.csv").read_text()))
        assert comparison.fieldnames == ["condition", "observed", *models, "belief_degree"]
        rows, bars = list(table3), list(comparison)
        assert len(rows) == len(bars) == len(published) == 5
        for row, bar, doc in zip(rows, bars, published):
            for key in ("condition", "observed", "prediction", "prediction_fit", "basis"):
                assert row[key] == cell(doc[key])
            for m in models:
                assert row[f"{m}_prediction"] == cell(doc["models"][m]["prediction"])
                assert row[f"{m}_fit"] == cell(doc["models"][m]["fit"])
                assert bar[m] == cell(doc["models"][m]["prediction"])
            assert [bar["condition"], bar["observed"], bar["belief_degree"]] == [
                cell(doc["condition"]), cell(doc["observed"]), cell(doc["prediction"])
            ]
        assert {doc["basis"] for doc in published} == {"computed", "published"}

    def test_mismatch_exits_three(self, capsys, monkeypatch, tmp_path):
        doctored = {**run_reproduction(), "goldens": [
            {"label": "doctored check", "expected": 1.0, "actual": 0.0, "tolerance": 1e-6,
             "passed": False},
        ]}
        monkeypatch.setattr("qlbn.scenarios.run_reproduction", lambda: doctored)
        out_dir = tmp_path / "series"
        code, out, err = run_cli(capsys, "reproduce", "--out", str(out_dir))
        assert code == 3
        assert "FAIL  doctored check: expected 1.0 +- 1e-06, got 0.000000" in out
        assert err == (
            "error: golden check failed: doctored check: expected 1.0 +- 1e-06, got 0.0\n"
        )
        # the series files are still written for inspection
        assert (out_dir / "report.txt").exists()


    def test_empty_comparison_rows_name_the_packaged_file(self, capsys, monkeypatch, tmp_path):
        doc = json.loads((ROOT / "src" / "qlbn" / "data" / "literature.json").read_text())
        path = tmp_path / "literature.json"
        path.write_text(json.dumps({**doc, "comparison_rows": []}))
        monkeypatch.setattr("qlbn.scenarios._LITERATURE", path)
        code, out, err = run_cli(capsys, "reproduce")
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: comparison_rows is empty\n"

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda rows: rows[1].update(scenario="Nobody"),
             "comparison row 'Li and Taplin, 2002 experiment 2' links 'Nobody', "
             "which no scenario names"),
            (lambda rows: rows[2]["models"].pop("qpdt"),
             "comparison row 'Li and Taplin, 2002 experiment 3' lacks the models ['qpdt']"),
            (lambda rows: rows[0]["models"].update(qpdt=[0.5]),
             "unexpected structure: list index out of range"),
            (lambda rows: rows[4].update(scenario="Busemeyer et al., 2006a"),
             "comparison rows 'Busemeyer et al., 2006a' and 'Hristova and Grinberg, 2008' "
             "both link 'Busemeyer et al., 2006a'"),
        ],
        ids=["unknown link", "missing model", "one-number cell", "repeated link"],
    )
    def test_malformed_comparison_rows_name_the_packaged_file(
        self, capsys, monkeypatch, tmp_path, change, message
    ):
        doc = json.loads((ROOT / "src" / "qlbn" / "data" / "literature.json").read_text())
        change(doc["comparison_rows"])
        path = tmp_path / "literature.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr("qlbn.scenarios._LITERATURE", path)
        for argv in (["reproduce"], ["reproduce", "--format", "csv"], ["compare"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == f"error: {path}: {message}\n"

    def test_repeated_scenario_name_names_the_packaged_file(self, capsys, monkeypatch, tmp_path):
        """A second row under a published scenario's name would have its computed values
        checked against the first row's published ones."""
        doc = json.loads((ROOT / "src" / "qlbn" / "data" / "literature.json").read_text())
        doc["scenarios"].insert(1, {**doc["scenarios"][0], "p_defect_given_defect": 0.5,
                                    "p_defect_given_cooperate": 0.4})
        path = tmp_path / "literature.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr("qlbn.scenarios._LITERATURE", path)
        for argv in (["reproduce"], ["compare"], ["sweep"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == f"error: {path}: scenario name 'Shafir and Tversky, 1992' is repeated\n"

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: doc["comparison_rows"][0]["models"]["qpdt"].__setitem__(1, "x"),
             "comparison row 'Li and Taplin, 2002 experiment 1': qpdt fit: "
             "cannot parse number 'x'"),
            (lambda doc: doc["scenarios"][4].update(reported_prediction=None),
             "scenario 'Average': reported_prediction: expected a number, got None"),
            (lambda doc: doc["scenarios"][0].update(name=["Shafir and Tversky, 1992"]),
             "scenario 0: scenario name ['Shafir and Tversky, 1992'] is not a string"),
            (lambda doc: doc["comparison_rows"][1].update(observed=None),
             "comparison row 'Li and Taplin, 2002 experiment 2': observed: "
             "expected a number, got None"),
            (lambda doc: doc["scenarios"][1].update(payoff_note=5),
             "scenario 1: missing keys [], unknown keys ['payoff_note']"),
        ],
        ids=["string fit", "null published prediction", "list name", "null observed",
             "int row note"],
    )
    def test_a_malformed_published_value_names_the_packaged_file(
        self, capsys, monkeypatch, tmp_path, change, message
    ):
        """Each once ended reproduce or compare in a TypeError traceback, or, for the
        null observed rate, let reproduce exit 0."""
        doc = json.loads((ROOT / "src" / "qlbn" / "data" / "literature.json").read_text())
        change(doc)
        path = tmp_path / "literature.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr("qlbn.scenarios._LITERATURE", path)
        for argv in (["reproduce"], ["compare"], ["sweep"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == f"error: {path}: {message}\n"

    def test_a_packaged_row_reads_as_a_scenario_file_row(self, capsys, monkeypatch, tmp_path):
        """A row's own prior reaches its record; it was once dropped, so the first
        classical prediction stayed at the default prior's 0.905."""
        doc = json.loads((ROOT / "src" / "qlbn" / "data" / "literature.json").read_text())
        doc["scenarios"][0].update(prior_defect=0.9)
        path = tmp_path / "literature.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr("qlbn.scenarios._LITERATURE", path)
        code, out, err = run_cli(capsys, "compare", "--format", "json")
        assert (code, err) == (0, "")
        first = json.loads(out)["records"][0]
        assert first["classical"] == pytest.approx(0.9 * 0.97 + 0.1 * 0.84)

    def test_an_unknown_key_in_a_packaged_row_names_the_packaged_file(
        self, capsys, monkeypatch, tmp_path
    ):
        """A user scenario file refuses an unknown key; a packaged row once ignored it."""
        doc = json.loads((ROOT / "src" / "qlbn" / "data" / "literature.json").read_text())
        doc["scenarios"][0]["bogus"] = 1
        path = tmp_path / "literature.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr("qlbn.scenarios._LITERATURE", path)
        for argv in (["reproduce"], ["compare"], ["sweep"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == f"error: {path}: scenario 0: missing keys [], unknown keys ['bogus']\n"

    def test_out_path_is_a_file(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.write_text("")
        code, _, err = run_cli(capsys, "reproduce", "--out", str(target))
        assert code == 1
        assert f"error: cannot write {target}" in err


class TestJsonIsTheDocument:
    """`--format json` prints the document the library computes, exactly."""

    @pytest.mark.parametrize(
        "argv, document",
        [
            (["predict", "--scenario", SCENARIOS],
             lambda: run_comparison(load_scenarios(SCENARIOS))),
            (["compare"],
             lambda: run_comparison(load_builtin().scenarios, load_builtin().literature())),
            (["compare", "--scenario", SCENARIOS],
             lambda: run_comparison(load_scenarios(SCENARIOS), load_builtin().literature())),
            (["reproduce"], run_reproduction),
        ],
        ids=["predict", "compare", "compare scenario file", "reproduce"],
    )
    def test_json_output_is_the_document(self, capsys, argv, document):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(document(), indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["infer", "--network", SERVERS_NET, "--query", "S2"],
        ["infer", "--network", GAME_NET, "--query", "P2", "--mode", "quantum", "--verbose"],
        ["predict", "--scenario", SCENARIOS],
        ["compare"],
        ["reproduce"],
    ],
    ids=["infer classical", "infer quantum verbose", "predict", "compare", "reproduce"],
)
def test_json_output_is_strict_json(capsys, argv):
    """RFC 8259 has no NaN or Infinity, which json.dumps prints for such floats."""
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert isinstance(json.loads(out, parse_constant=refuse_json_constant), dict)


@pytest.mark.parametrize("command", ["predict", "compare"])
def test_fit_errors_whose_sum_passes_the_largest_float_have_a_finite_mean(
    capsys, tmp_path, command
):
    """Each fit is about 4.3e307, finite, and five of them sum past the largest float,
    which once ended both commands in an OverflowError traceback."""
    row = {"p_defect_given_defect": 0.99, "p_defect_given_cooperate": 0.99,
           "observed_unknown": 2.3e-308}
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps([{"name": f"row {i}", **row} for i in range(5)]))
    code, out, err = run_cli(capsys, command, "--scenario", str(path), "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out, parse_constant=refuse_json_constant)
    fits = [record["fit_quantum"] for record in report["records"]]
    assert math.fsum(fit / 5 for fit in fits) == report["mean_fit_quantum"]
    assert 4e307 < report["mean_fit_classical"] < sys.float_info.max


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

    def test_written_files_are_utf8_whatever_the_locale(self, tmp_path):
        """Both writers name their encoding, as read_json does: under
        warn_default_encoding, a write in the locale's encoding warns, and the error
        filter turns that warning into exit 1."""
        out_dir, out_csv = tmp_path / "reproduction", tmp_path / "sweep.csv"
        for argv in (["reproduce", "--out", str(out_dir)], ["sweep", "--out", str(out_csv)]):
            result = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                 "-m", "qlbn", *argv],
                capture_output=True, text=True, cwd=ROOT, env=src_env(),
            )
            assert (result.returncode, result.stderr) == (0, ""), argv
        assert {p.name: sha256(p.read_bytes()) for p in out_dir.iterdir()} == OUT_FILE_DIGESTS
        assert out_csv.read_text(encoding="utf-8").startswith("degree,prediction,fit_error")

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
        "67da756edc47cb1c30e5bed9178a5c7366e79b45408101014d7e8410dd57b379",
    "infer-quantum-verbose-json":
        "09eab6d0de52fa2ccc93516b4d195e0283a0096ae1c392210adb3f128b8ab9ae",
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


# The benchmark's cli workload runs these commands from the repository root and
# checks each stdout against its recorded digest; run_path reads gen.py without
# writing bytecode next to it.
BENCH_COMMANDS = runpy.run_path(str(ROOT / "perfbench" / "gen.py"))["CLI_COMMANDS"]
BENCH_DIGESTS = json.loads((ROOT / "perfbench" / "cli_digests.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestByteIdentity:
    @pytest.mark.parametrize("key", sorted(STDOUT_DIGESTS))
    def test_stdout_digest(self, capsys, key):
        label, _, fmt = key.rpartition("-")
        code, out, _ = run_cli(capsys, *DIGEST_COMMANDS[label], "--format", fmt)
        assert code == 0
        assert sha256(out.encode()) == STDOUT_DIGESTS[key]

    @pytest.mark.parametrize("label, argv", BENCH_COMMANDS, ids=[c[0] for c in BENCH_COMMANDS])
    def test_benchmark_cli_digest(self, capsys, monkeypatch, label, argv):
        monkeypatch.chdir(ROOT)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert sha256(out.encode()) == BENCH_DIGESTS[label]

    def test_out_files_digest_and_report_matches_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reproduce", "--out", str(tmp_path))
        assert code == 0
        digests = {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()}
        assert digests == OUT_FILE_DIGESTS
        assert (tmp_path / "report.txt").read_text() == out
