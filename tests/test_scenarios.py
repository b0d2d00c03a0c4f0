"""Game scenarios, predictions, published benchmarks, and the reproduction run."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import pytest

from qlbn.bayesnet import Network, network_from_dict
from qlbn.errors import ValidationError
from qlbn.heuristic import degree_for_query
from qlbn.quantum import amplitudes_from_network
from qlbn.scenarios import (
    COOPERATE,
    TOL_CLASSICAL,
    TOL_COMPARISON,
    TOL_FIT,
    TOL_PREDICTION,
    DEFECT,
    PLAYER_ONE,
    PLAYER_TWO,
    ComparisonReport,
    Scenario,
    fit_error,
    load_builtin,
    load_scenarios,
    predict_unknown,
    render_model_comparison_csv,
    render_observed_vs_predicted_csv,
    render_report_csv,
    render_report_table,
    render_table3,
    render_table3_csv,
    report_to_dict,
    run_comparison,
    run_reproduction,
    scenario_to_network,
    scenarios_from_json,
)

from conftest import scenario_doc, table_entry

AVERAGE = Scenario(
    name="Average",
    p_defect_given_defect=0.87,
    p_defect_given_cooperate=0.74,
    observed_unknown=0.64,
)

# name -> (quantum prediction, clamped degree) for the five benchmark rows,
# frozen from a from-scratch transcription of the pipeline formulas.
FROZEN_PIPELINE = {
    "Shafir and Tversky, 1992": (0.5183746433673507, -0.9693959438299709),
    "Li and Taplin, 2002": (0.5793498986460396, -0.9966674267253),
    "Busemeyer et al., 2006a": (0.6068797174201359, -0.9898142702551561),
    "Hristova and Grinberg, 2008": (0.904538452622987, -0.923692061112029),
    "Average": (0.6924950507292637, -0.942098356106975),
}


class TestScenario:
    def test_defaults(self):
        assert AVERAGE.prior_defect == 0.5
        assert AVERAGE.payoff_note is None

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValidationError, match="p_defect_given_defect"):
            Scenario("bad", 1.2, 0.5, 0.5)
        with pytest.raises(ValidationError, match="prior_defect"):
            Scenario("bad", 0.5, 0.5, 0.5, prior_defect=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    def test_rejects_non_finite_probability(self, value: float):
        fields = ("p_defect_given_defect", "p_defect_given_cooperate", "observed_unknown",
                  "prior_defect")
        for field in fields:
            with pytest.raises(ValidationError, match=f"'bad': {field} = {value!r} is outside"):
                Scenario("bad", **{**dict.fromkeys(fields, 0.5), field: value})


class TestScenarioToNetwork:
    def test_declared_outcome_orders(self):
        net = scenario_to_network(AVERAGE)
        assert net.outcomes(PLAYER_ONE) == (COOPERATE, DEFECT)
        assert net.outcomes(PLAYER_TWO) == (DEFECT, COOPERATE)

    def test_conditional_entries(self):
        net = scenario_to_network(AVERAGE)
        assert table_entry(net, PLAYER_TWO, DEFECT, DEFECT) == 0.87
        assert table_entry(net, PLAYER_TWO, COOPERATE, DEFECT) == 0.74

    def test_prior_maps_to_defect(self):
        biased = Scenario("biased", 0.87, 0.74, 0.64, prior_defect=0.3)
        net = scenario_to_network(biased)
        assert table_entry(net, PLAYER_ONE, DEFECT) == pytest.approx(0.3)
        assert table_entry(net, PLAYER_ONE, COOPERATE) == pytest.approx(0.7)

    @staticmethod
    def assert_parsed_alike(net: Network, reference: Network) -> None:
        assert net.variables == reference.variables
        assert net.parents == reference.parents
        assert net.positions == reference.positions
        labels = list(itertools.product(*(v.outcomes for v in reference.variables)))
        for (get, values), (ref_get, ref_values) in zip(net.table, reference.table, strict=True):
            # float.hex pins the type and every bit; the list pins the key order
            assert [(k, v.hex()) for k, v in values.items()] == [
                (k, v.hex()) for k, v in ref_values.items()
            ]
            assert [get(pair) for pair in labels] == [ref_get(pair) for pair in labels]

    def test_binds_what_the_parse_builds(self):
        grid = [i / 20 for i in range(21)]
        for prior, cooperate, defect in itertools.product([0.1, 0.5, 0.9], grid, grid):
            scenario = Scenario("grid", defect, cooperate, 0.5, prior_defect=prior)
            self.assert_parsed_alike(
                scenario_to_network(scenario), network_from_dict(scenario_doc(scenario))
            )

    def test_binds_ints_as_floats(self):
        scenario = Scenario("ints", 1, 0, 0.5, prior_defect=1)
        self.assert_parsed_alike(
            scenario_to_network(scenario), network_from_dict(scenario_doc(scenario))
        )

    @pytest.mark.parametrize("field", ["p_defect_given_defect", "p_defect_given_cooperate",
                                       "prior_defect"])
    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bool_probability(self, field: str, value: bool):
        scenario = Scenario(**{**AVERAGE._asdict(), field: value})
        with pytest.raises(ValidationError, match=f"expected a number, got {value}"):
            scenario_to_network(scenario)
        with pytest.raises(ValidationError, match=f"expected a number, got {value}"):
            predict_unknown(scenario)

    @pytest.mark.parametrize("value", [1.5, -0.1, math.nan], ids=str)
    def test_checks_a_copy_made_by_replace(self, value: float):
        with pytest.raises(ValidationError, match=f"'Average': prior_defect = {value!r} is"):
            scenario_to_network(AVERAGE._replace(prior_defect=value))

    def test_parses_no_network_document(self, no_network_parse):
        record = predict_unknown(AVERAGE)
        assert record.quantum_prediction == pytest.approx(0.6924950507292637, abs=1e-9)


class TestFitError:
    def test_relative_error(self):
        assert fit_error(0.6926, 0.64) == pytest.approx(0.0821875, abs=1e-12)
        assert fit_error(0.8623, 0.8667) == pytest.approx(0.0051, abs=5e-5)

    def test_exact_match_is_zero(self):
        assert fit_error(0.5, 0.5) == 0.0

    def test_rejects_zero_observed(self):
        with pytest.raises(ValidationError, match="observed"):
            fit_error(0.5, 0.0)

    def test_rejects_negative_observed(self):
        with pytest.raises(ValidationError, match="undefined for observed -0.2"):
            fit_error(0.5, -0.2)

    @pytest.mark.parametrize("observed", [math.nan, math.inf, 1.5], ids=str)
    def test_rejects_observed_outside_unit_interval(self, observed: float):
        with pytest.raises(ValidationError,
                           match=f"relative fit error undefined for observed {observed!r}"):
            fit_error(0.5, observed)


class TestPredictUnknown:
    def test_average_condition(self):
        record = predict_unknown(AVERAGE)
        assert record.classical_prediction == pytest.approx(0.805, abs=1e-12)
        assert record.quantum_prediction == pytest.approx(
            0.6924950507292637, abs=1e-9
        )
        assert record.degree.value == pytest.approx(-0.942098356106975, abs=1e-9)
        assert record.fit_error_quantum == pytest.approx(
            0.08202351676447443, abs=1e-9
        )

    def test_classical_is_prior_weighted_mix(self):
        record = predict_unknown(AVERAGE)
        expected = 0.5 * 0.87 + 0.5 * 0.74
        assert record.classical_prediction == pytest.approx(expected, abs=1e-12)

    def test_degree_matches_heuristic_entry_point(self):
        record = predict_unknown(AVERAGE)
        anet = amplitudes_from_network(scenario_to_network(AVERAGE))
        assert record.degree == degree_for_query(anet, PLAYER_TWO)

    def test_degree_and_posterior_share_one_enumeration(self, amplitude_enumerations):
        predict_unknown(AVERAGE)
        assert amplitude_enumerations == [PLAYER_TWO]

    def test_literature_carried_through(self):
        record = predict_unknown(AVERAGE, {"qpdt": (0.62, 0.05)})
        assert record.literature_comparisons == {"qpdt": (0.62, 0.05)}

    def test_benchmark_pipeline_values(self):
        for scenario in load_builtin().scenarios:
            expected_q, expected_d = FROZEN_PIPELINE[scenario.name]
            record = predict_unknown(scenario)
            assert record.quantum_prediction == pytest.approx(expected_q, abs=1e-9)
            assert record.degree.value == pytest.approx(expected_d, abs=1e-9)


class TestRunComparison:
    def test_preserves_input_order(self):
        scenarios = load_builtin().scenarios
        report = run_comparison(scenarios)
        assert [r.scenario.name for r in report.records] == [s.name for s in scenarios]

    def test_averages_are_arithmetic_means(self):
        report = run_comparison(load_builtin().scenarios)
        n = len(report.records)
        assert report.average_fit_quantum == pytest.approx(
            math.fsum(r.fit_error_quantum for r in report.records) / n, abs=1e-15
        )
        assert report.average_fit_classical == pytest.approx(
            math.fsum(r.fit_error_classical for r in report.records) / n, abs=1e-15
        )

    def test_literature_average_spans_only_linked_rows(self):
        scenarios = load_builtin().scenarios[:2]
        literature = {scenarios[0].name: {"qpdt": (0.6, 0.1)}}
        report = run_comparison(scenarios, literature)
        assert report.average_fit_literature == {"qpdt": pytest.approx(0.1)}

    def test_single_scenario_report_matches_record(self):
        report = run_comparison([AVERAGE])
        record = predict_unknown(AVERAGE)
        assert report.records[0].quantum_prediction == record.quantum_prediction
        assert report.average_fit_quantum == record.fit_error_quantum

    def test_rejects_empty_list(self):
        with pytest.raises(ValidationError, match="at least one"):
            run_comparison([])

    def test_quantum_improves_on_classical_per_condition(self):
        """The interference posterior lands nearer the observed rate than the
        classical mix on every single-condition row. The Li and Taplin row
        pools three separate conditions into one average, where the published
        per-condition fits do not carry over, so it is left out."""
        report = run_comparison(load_builtin().scenarios)
        for record in report.records:
            if record.scenario.name == "Li and Taplin, 2002":
                continue
            assert record.fit_error_quantum < record.fit_error_classical


class TestBuiltinDataset:
    def test_five_scenarios_in_report_order(self):
        names = [s.name for s in load_builtin().scenarios]
        assert names == list(FROZEN_PIPELINE)

    def test_payoff_note_attached_everywhere(self):
        notes = {s.payoff_note for s in load_builtin().scenarios}
        assert len(notes) == 1
        assert "payoff" in notes.pop().lower()

    def test_reported_classical_column(self):
        classical = [
            p for p in load_builtin().published if p.field == "classical_prediction"
        ]
        assert {p.tolerance for p in classical} == {TOL_CLASSICAL}
        assert {p.scenario: p.value for p in classical} == {
            "Shafir and Tversky, 1992": 0.905,
            "Li and Taplin, 2002": 0.795,
            "Busemeyer et al., 2006a": 0.875,
            "Hristova and Grinberg, 2008": 0.95,
            "Average": 0.805,
        }

    def test_reported_prediction_only_for_average(self):
        published = load_builtin().published
        reported = [p for p in published if not p.label.startswith(("classical", "comparison"))]
        assert [(p.scenario, p.field, p.value, p.tolerance) for p in reported] == [
            ("Average", "quantum_prediction", 0.6926, TOL_PREDICTION),
            ("Average", "fit_error_quantum", 0.082, TOL_FIT),
        ]

    def test_published_values_are_the_goldens_in_order(self):
        published = load_builtin().published
        goldens = run_reproduction().goldens
        assert [p.label for p in published] == [
            "classical prediction (Shafir and Tversky, 1992)",
            "classical prediction (Li and Taplin, 2002)",
            "classical prediction (Busemeyer et al., 2006a)",
            "classical prediction (Hristova and Grinberg, 2008)",
            "classical prediction (Average)",
            "quantum prediction (Average)",
            "fit error (Average)",
            "comparison prediction (Busemeyer et al., 2006a)",
            "comparison prediction (Hristova and Grinberg, 2008)",
        ]
        assert [(g.label, g.expected, g.tolerance) for g in goldens] == [
            (p.label, p.value, p.tolerance) for p in published
        ]
        assert [(p.value, p.tolerance) for p in published[-2:]] == [
            (0.6069, TOL_COMPARISON), (0.9045, TOL_COMPARISON)
        ]

    def test_comparison_rows(self):
        rows = load_builtin().comparison_rows
        assert len(rows) == 5
        linked = {r.name: r.scenario_name for r in rows if r.scenario_name}
        assert linked == {
            "Busemeyer et al., 2006a": "Busemeyer et al., 2006a",
            "Hristova and Grinberg, 2008": "Hristova and Grinberg, 2008",
        }
        for row in rows:
            assert set(row.models) == {"qpdt", "dynamic_heuristic"}
            assert row.basis == "published"
        assert (rows[3].prediction, rows[3].prediction_fit) == (0.6069, 0.0805)

    def test_literature_maps_linked_scenarios_to_model_columns(self):
        data = load_builtin()
        rows = data.comparison_rows
        assert data.literature() == {
            "Busemeyer et al., 2006a": rows[3].models,
            "Hristova and Grinberg, 2008": rows[4].models,
        }

    def test_reported_average_fit_errors(self):
        reported = load_builtin().reported_average_fit_errors
        assert reported == {
            "qpdt": 0.2095,
            "dynamic_heuristic": 0.0723,
            "belief_degree": 0.04878,
        }


class TestScenarioFiles:
    def test_round_trip(self, tmp_path: Path):
        path = tmp_path / "rows.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "name": "Average",
                        "p_defect_given_defect": 0.87,
                        "p_defect_given_cooperate": "0.74",
                        "observed_unknown": 0.64,
                    },
                    {
                        "name": "Skewed",
                        "p_defect_given_defect": 0.9,
                        "p_defect_given_cooperate": 0.6,
                        "observed_unknown": 0.7,
                        "prior_defect": "0.25",
                        "payoff_note": "T > R > P > S",
                    },
                ]
            )
        )
        loaded = load_scenarios(path)
        skewed = Scenario("Skewed", 0.9, 0.6, 0.7, prior_defect=0.25, payoff_note="T > R > P > S")
        assert loaded == [AVERAGE, skewed]

    def test_shipped_sample_has_five_rows(self):
        root = Path(__file__).resolve().parent.parent
        rows = load_scenarios(root / "data" / "scenarios" / "literature_games.json")
        assert [s.name for s in rows] == list(FROZEN_PIPELINE)

    def test_rejects_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown keys \\['bias'\\]"):
            scenarios_from_json(
                [
                    {
                        "name": "x",
                        "p_defect_given_defect": 0.5,
                        "p_defect_given_cooperate": 0.5,
                        "observed_unknown": 0.5,
                        "bias": 1,
                    }
                ]
            )

    def test_rejects_missing_key(self):
        with pytest.raises(ValidationError, match="missing keys"):
            scenarios_from_json([{"name": "x"}])

    def test_rejects_non_list_document(self):
        with pytest.raises(ValidationError, match="JSON list"):
            scenarios_from_json({"name": "x"})

    def test_rejects_non_numeric_probability(self):
        with pytest.raises(ValidationError, match="cannot parse"):
            scenarios_from_json(
                [
                    {
                        "name": "x",
                        "p_defect_given_defect": "half",
                        "p_defect_given_cooperate": 0.5,
                        "observed_unknown": 0.5,
                    }
                ]
            )

    def test_malformed_json_reports_line(self, tmp_path: Path):
        path = tmp_path / "broken.json"
        path.write_text("[\n{,\n]")
        with pytest.raises(ValidationError, match="line 2"):
            load_scenarios(path)


class TestReproduction:
    def test_all_goldens_pass(self):
        result = run_reproduction()
        assert result.failures() == []

    def test_golden_coverage(self):
        goldens = run_reproduction().goldens
        labels = [g.label for g in goldens]
        assert len(goldens) == 9
        assert sum(lb.startswith("classical prediction") for lb in labels) == 5
        assert "quantum prediction (Average)" in labels
        assert "fit error (Average)" in labels
        assert sum(lb.startswith("comparison prediction") for lb in labels) == 2

    def test_table_rows_and_basis(self):
        table = run_reproduction().table3
        assert [row.basis for row in table] == [
            "published",
            "published",
            "published",
            "computed",
            "computed",
        ]
        computed = {row.name: row.prediction for row in table if row.basis == "computed"}
        assert computed["Busemeyer et al., 2006a"] == pytest.approx(
            FROZEN_PIPELINE["Busemeyer et al., 2006a"][0], abs=1e-9
        )
        assert computed["Hristova and Grinberg, 2008"] == pytest.approx(
            FROZEN_PIPELINE["Hristova and Grinberg, 2008"][0], abs=1e-9
        )

    def test_table3_means_match_reported_average_fit_errors(self):
        table = run_reproduction().table3
        means = {
            model: math.fsum(row.models[model][1] for row in table) / len(table)
            for model in ("qpdt", "dynamic_heuristic")
        }
        means["belief_degree"] = math.fsum(row.prediction_fit for row in table) / len(table)
        reported = load_builtin().reported_average_fit_errors
        assert set(means) == set(reported)
        for model, mean in means.items():
            assert mean == pytest.approx(reported[model], abs=TOL_FIT), model

    def test_published_rows_copy_reported_values(self):
        table = run_reproduction().table3
        first = table[0]
        assert first.basis == "published"
        assert first.prediction == 0.8623
        assert first.prediction_fit == 0.0051


@pytest.fixture(scope="module")
def report() -> ComparisonReport:
    data = load_builtin()
    return run_comparison(data.scenarios, data.literature())


class TestRendering:
    def test_table_shows_five_decimal_values(self, report: ComparisonReport):
        text = render_report_table(report)
        assert "0.69250" in text  # Average quantum prediction
        assert "(mean fit error)" in text
        assert text.splitlines()[0].startswith("scenario")

    def test_csv_round_trips_full_precision(self, report: ComparisonReport):
        rows = list(csv.reader(io.StringIO(render_report_csv(report))))
        header, *body = rows
        quantum_col = header.index("quantum")
        by_name = {row[0]: row for row in body}
        value = float(by_name["Average"][quantum_col])
        assert value == report.records[-1].quantum_prediction

    def test_csv_cells_are_the_report_dict_values(self, report: ComparisonReport):
        """Each cell is the repr of its report_to_dict value; a record without a
        model's published columns leaves them empty."""
        payload = report_to_dict(report)
        reader = csv.DictReader(io.StringIO(render_report_csv(report)))
        models = ["qpdt", "dynamic_heuristic"]
        assert reader.fieldnames == [
            "scenario", "observed", "classical", "quantum", "degree",
            "fit_classical", "fit_quantum",
            *(f"{m}_{part}" for m in models for part in ("prediction", "fit")),
        ]
        *body, mean = list(reader)
        assert len(body) == len(payload["records"]) == 5
        published = 0
        for row, record in zip(body, payload["records"]):
            assert row["scenario"] == record["scenario"]
            for key in reader.fieldnames[1:7]:
                assert row[key] == repr(record[key])
            published += bool(record["literature"])
            for m in models:
                columns = record["literature"].get(m)
                for part in ("prediction", "fit"):
                    cell = repr(columns[part]) if columns else ""
                    assert row[f"{m}_{part}"] == cell
        assert published == 2
        assert mean["scenario"] == "mean_fit_error"
        assert mean["fit_classical"] == repr(payload["mean_fit_classical"])
        assert mean["fit_quantum"] == repr(payload["mean_fit_quantum"])
        for m in models:
            assert mean[f"{m}_fit"] == repr(payload["mean_fit_literature"][m])
            assert mean[f"{m}_prediction"] == ""

    def test_report_dict_carries_raw_degree(self, report: ComparisonReport):
        payload = report_to_dict(report)
        average = payload["records"][-1]
        assert average["scenario"] == "Average"
        assert average["degree_raw"] == report.records[-1].degree.raw
        assert set(payload["mean_fit_literature"]) == {"qpdt", "dynamic_heuristic"}

    def test_table3_renderers(self):
        result = run_reproduction()
        text = render_table3(result)
        assert "this model" in text.splitlines()[0]
        assert "published" in text and "computed" in text
        rows = list(csv.reader(io.StringIO(render_table3_csv(result))))
        assert len(rows) == 6  # header + five conditions
        assert rows[0][-1] == "basis"

    def test_chart_series_renderers(self, report: ComparisonReport):
        rows = list(csv.reader(io.StringIO(render_observed_vs_predicted_csv(report))))
        assert rows[0] == ["scenario", "observed", "classical", "quantum"]
        assert len(rows) == 6
        result = run_reproduction()
        rows = list(csv.reader(io.StringIO(render_model_comparison_csv(result))))
        assert rows[0][:2] == ["condition", "observed"]
        assert len(rows) == 6
