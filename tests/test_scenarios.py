"""Game scenarios, predictions, published benchmarks, and the reproduction run."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qlbn.bayesnet import Network, network_from_dict
from qlbn.errors import (
    InferenceError,
    NegativeUnnormalizedMassError,
    SingularDenominatorError,
    ValidationError,
)
from qlbn.heuristic import degree_for_query, pair_degree
from qlbn.quantum import amplitudes_from_network, completion_magnitudes, posterior
from qlbn.scenarios import (
    COOPERATE,
    TOL_CLASSICAL,
    TOL_COMPARISON,
    TOL_FIT,
    TOL_PREDICTION,
    _LITERATURE,
    DEFECT,
    PLAYER_ONE,
    PLAYER_TWO,
    Scenario,
    check_predicted,
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
    run_comparison,
    run_reproduction,
    scenario_to_network,
    scenarios_from_json,
)

from conftest import scenario_doc, table_entry

# The paper's average fit error per model, which the packaged file keeps for the
# check of table 3's means and the library does not read.
REPORTED_AVERAGES = json.loads(_LITERATURE.read_text())["reported_average_fit_errors"]

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

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, "0"], ids=repr)
    def test_rejects_zero_observed_rate(self, value: object):
        with pytest.raises(ValidationError, match=(
            r"^'bad': observed_unknown = -?0\.0 leaves the relative fit errors undefined$"
        )):
            Scenario("bad", 0.5, 0.5, value)

    @pytest.mark.parametrize(
        "value", [1e-320, 5e-324, math.nextafter(sys.float_info.min, 0.0)], ids=repr
    )
    def test_rejects_subnormal_observed_rate(self, value: float):
        """A relative fit error divides by the rate, so below the smallest normal float
        it can pass the largest one."""
        with pytest.raises(ValidationError) as caught:
            Scenario("bad", 0.5, 0.5, value)
        assert str(caught.value) == (
            f"'bad': observed_unknown = {value!r} leaves the relative fit errors undefined"
        )

    def test_accepts_the_smallest_normal_rate(self):
        record = predict_unknown(Scenario("tiny", 0.99, 0.99, sys.float_info.min))
        assert math.isfinite(record.fit_error_classical)
        assert math.isfinite(record.fit_error_quantum)

    def test_parses_decimal_strings_and_stores_floats(self):
        parsed = Scenario("x", "0.87", 0, "0.64", prior_defect=1)
        assert parsed == ("x", 0.87, 0.0, 0.64, 1.0)
        assert [type(value) for value in parsed[1:]] == [float] * 4

    @pytest.mark.parametrize(
        "value, message",
        [(None, "expected a number, got None"), (True, "expected a number, got True"),
         ("abc", "cannot parse number 'abc'"), ([0.5], r"expected a number, got \[0.5\]")],
        ids=["None", "bool", "bad decimal", "list"],
    )
    def test_rejects_a_non_number_at_construction(self, value: object, message: str):
        for field in ("p_defect_given_defect", "observed_unknown", "prior_defect"):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                Scenario(**{**AVERAGE._asdict(), field: value})


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
        with pytest.raises(ValidationError, match=f"expected a number, got {value}"):
            Scenario(**{**AVERAGE._asdict(), field: value})
        with pytest.raises(ValidationError, match=f"expected a number, got {value}"):
            AVERAGE._replace(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [("p_defect_given_cooperate", True, "expected a number, got True"),
         ("p_defect_given_cooperate", "abc", "cannot parse number 'abc'"),
         ("p_defect_given_cooperate", 1.5, "'Average': p_defect_given_cooperate = 1.5 is outside"),
         # a name that is not a string once printed as a number, or as "-" for None
         ("name", 5, "^scenario name 5 is not a string$"),
         ("name", None, "^scenario name None is not a string$")],
        ids=["bool", "bad decimal", "out of range", "int name", "None name"],
    )
    def test_refuses_a_bad_copy_made_by_replace(self, field: str, value: object, message: str):
        with pytest.raises(ValidationError, match=message):
            AVERAGE._replace(**{field: value})
        with pytest.raises(ValidationError, match=message):
            Scenario(**{**AVERAGE._asdict(), field: value})

    @pytest.mark.parametrize("value", [1.5, -0.1, math.nan], ids=str)
    def test_checks_a_copy_made_by_replace(self, value: float):
        with pytest.raises(ValidationError, match=f"'Average': prior_defect = {value!r} is"):
            AVERAGE._replace(prior_defect=value)

    def test_a_copy_made_by_replace_stores_parsed_floats(self):
        copy = AVERAGE._replace(prior_defect="0.3")
        assert copy.prior_defect == 0.3 and type(copy.prior_defect) is float
        assert predict_unknown(AVERAGE._replace(observed_unknown="0.64")) == predict_unknown(
            AVERAGE
        )

    def test_constructs_no_scenario(self, monkeypatch):
        def refused(cls, *args, **kwargs):
            raise AssertionError("constructed a Scenario")

        monkeypatch.setattr(Scenario, "__new__", refused)
        assert table_entry(scenario_to_network(AVERAGE), PLAYER_TWO, DEFECT, DEFECT) == 0.87

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

    @pytest.mark.parametrize("observed", [1e-320, 5e-324], ids=repr)
    def test_rejects_subnormal_observed(self, observed: float):
        with pytest.raises(ValidationError,
                           match=f"relative fit error undefined for observed {observed!r}"):
            fit_error(1.0, observed)

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
        assert record.degree == degree_for_query(anet, PLAYER_TWO, {})

    def test_degree_and_posterior_share_one_enumeration(self, amplitude_enumerations):
        predict_unknown(AVERAGE)
        assert amplitude_enumerations == [PLAYER_TWO]

    def test_literature_carried_through(self):
        """The published cells join the comparison record beside the prediction."""
        cells = {"qpdt": {"prediction": 0.62, "fit": 0.05}}
        (record,) = run_comparison([AVERAGE], {AVERAGE.name: cells})["records"]
        assert record["literature"] == cells
        assert record["quantum"] == predict_unknown(AVERAGE).quantum_prediction

    def test_benchmark_pipeline_values(self):
        for scenario in load_builtin().scenarios:
            expected_q, expected_d = FROZEN_PIPELINE[scenario.name]
            record = predict_unknown(scenario)
            assert record.quantum_prediction == pytest.approx(expected_q, abs=1e-9)
            assert record.degree.value == pytest.approx(expected_d, abs=1e-9)


class TestScenarioSpace:
    """Where the heuristic applies, on a 21 x 21 grid of the two conditionals at
    prior 0.5; the README's atlas section counts the same facts at 101 x 101."""

    GRID = [i / 20 for i in range(21)]

    @staticmethod
    def closed_form(defect: float, cooperate: float, degree: float) -> float:
        """P(P2 defects) at a fixed degree on the game network with prior 0.5:
        (q_D + 2dꞏs_D) / (Q + 2dꞏS), with q and s2 written out per outcome."""
        root_d = math.sqrt(defect * cooperate)
        root_c = math.sqrt((1.0 - defect) * (1.0 - cooperate))
        return (0.5 * (defect + cooperate) + degree * root_d) / (1.0 + degree * (root_d + root_c))

    def test_every_row_ends_in_the_closed_form_or_a_named_cause(self):
        failures, unclamped = [], 0
        for defect, cooperate in itertools.product(self.GRID, self.GRID):
            scenario = Scenario("grid", defect, cooperate, 0.5)
            try:
                record = predict_unknown(scenario)
            except (SingularDenominatorError, NegativeUnnormalizedMassError) as exc:
                failures.append((defect, cooperate, type(exc)))
                continue
            if record.degree.raw > 1.0:
                assert min(defect, cooperate) < 0.5 <= max(defect, cooperate)
            magnitudes = completion_magnitudes(
                amplitudes_from_network(scenario_to_network(scenario)), PLAYER_TWO, {}
            )
            result = posterior(PLAYER_TWO, magnitudes, record.degree.value)
            assert result.probability(DEFECT) == record.quantum_prediction
            if not any(om.clamped for om in result.outcomes):
                unclamped += 1
                expected = self.closed_form(defect, cooperate, record.degree.value)
                assert record.quantum_prediction == pytest.approx(expected, rel=0.0, abs=1e-12)
        # On this grid only the fully ignorant point fails: its degree -1 cancels all mass.
        assert failures == [(0.5, 0.5, NegativeUnnormalizedMassError)]
        assert unclamped == 440


# The draws of the relabelling property: k / 2**20, whose 1 - p is exact.
DYADIC = st.integers(0, 2**20).map(lambda k: k / 2**20)


def _heuristic_posterior(scenario: Scenario):
    """The posterior predict_unknown reads, at the heuristic's degree, or the type of
    the InferenceError it raises."""
    magnitudes = completion_magnitudes(
        amplitudes_from_network(scenario_to_network(scenario)), PLAYER_TWO, {})
    try:
        return posterior(PLAYER_TWO, magnitudes, pair_degree(PLAYER_TWO, magnitudes).value)
    except InferenceError as exc:
        return type(exc)


class TestPaperClaim:
    """The paper's qualitative claim: when player one's move is unknown, the observed
    defection rate falls below both conditional rates, which the classical average of
    the two cannot reach and the Belief-Degree prediction does."""

    def test_each_builtin_row_defects_less_unknown_and_only_the_heuristic_follows(self):
        scenarios = load_builtin().scenarios
        for scenario, record in zip(scenarios, run_comparison(scenarios)["records"]):
            low, high = sorted((scenario.p_defect_given_defect,
                                scenario.p_defect_given_cooperate))
            assert scenario.observed_unknown < low, scenario.name
            assert low <= record["classical"] <= high, scenario.name
            assert record["quantum"] < low, scenario.name

    def test_exchanging_player_ones_moves_keeps_the_prediction_at_prior_half(self):
        """At prior 0.5 the two moves of player one are interchangeable, so exchanging
        the conditionals changes the prediction by rounding alone, or raises alike. The
        same grid pins where the heuristic's degree falls below -1 and where it
        raises."""
        grid = [i / 100 for i in range(1, 100)]
        outcomes, below, raised_by = {}, [], {}
        for defect, cooperate in itertools.product(grid, grid):
            try:
                record = predict_unknown(Scenario("grid", defect, cooperate, 0.5))
            except InferenceError as exc:
                outcomes[defect, cooperate] = type(exc)
                raised_by.setdefault(type(exc), []).append((defect, cooperate))
            else:
                outcomes[defect, cooperate] = record.quantum_prediction
                if record.degree.raw < -1.0:
                    below.append((defect, cooperate))
        raised = 0
        for (defect, cooperate), outcome in outcomes.items():
            exchanged = outcomes[cooperate, defect]
            if isinstance(outcome, type) or isinstance(exchanged, type):
                assert outcome == exchanged, (defect, cooperate)
                raised += 1
            else:
                assert abs(outcome - exchanged) <= 4 * math.ulp(outcome), (defect, cooperate)
        assert raised == 9
        assert below == [(0.38, 0.39), (0.39, 0.38), (0.61, 0.62), (0.62, 0.61)]
        singular = [(0.02, 0.82), (0.18, 0.98), (0.28, 0.68), (0.32, 0.72)]
        assert raised_by == {
            SingularDenominatorError: sorted(singular + [(c, d) for d, c in singular]),
            NegativeUnnormalizedMassError: [(0.5, 0.5)],
        }

    @example(defect=0.5, cooperate=0.5, prior=0.5)
    @given(defect=DYADIC, cooperate=DYADIC, prior=st.one_of(st.just(0.5), DYADIC))
    def test_relabelling_player_two_exchanges_the_outcomes_bit_for_bit(
        self, defect: float, cooperate: float, prior: float
    ):
        """Swapping player two's labels maps (p_dd, p_dc) to (1 - p_dd, 1 - p_dc). For
        k/2**20 that is exact, so the game table swaps the two outcomes' values, the
        distances are the same multiset, and the degree and the total are fsums, which
        do not depend on order: Defect's probability is the original Cooperate's, bit
        for bit, or both raise the same cause."""
        original = _heuristic_posterior(Scenario("p", defect, cooperate, 0.5, prior))
        relabelled = _heuristic_posterior(
            Scenario("r", 1.0 - defect, 1.0 - cooperate, 0.5, prior))
        if isinstance(original, type) or isinstance(relabelled, type):
            assert original == relabelled
        else:
            assert relabelled.probability(DEFECT) == original.probability(COOPERATE)

    @example(low=0.0, high=0.6, low_defects=True)
    @example(low=0.0, high=1.0, low_defects=False)
    @example(low=0.4, high=0.6, low_defects=True)
    @example(low=0.4, high=1.0, low_defects=False)
    @example(low=0.0, high=1.0, low_defects=True)
    @example(low=0.4, high=0.6, low_defects=False)
    @given(low=st.floats(0.0, 0.4), high=st.floats(0.6, 1.0), low_defects=st.booleans())
    def test_conditionals_on_opposite_sides_of_half_clamp_the_degree_at_one(
        self, low: float, high: float, low_defects: bool
    ):
        """Total constructive interference for a player whose conditionals differ in
        direction, each at least 0.1 from 0.5, unless the distance is singular."""
        defect, cooperate = (low, high) if low_defects else (high, low)
        try:
            record = predict_unknown(Scenario("mixed", defect, cooperate, 0.5))
        except SingularDenominatorError:
            return
        assert record.degree.raw > 1.0
        assert record.degree.value == 1.0


class TestRunComparison:
    def test_preserves_input_order(self):
        scenarios = load_builtin().scenarios
        report = run_comparison(scenarios)
        assert [r["scenario"] for r in report["records"]] == [s.name for s in scenarios]

    def test_averages_are_arithmetic_means(self):
        report = run_comparison(load_builtin().scenarios)
        records = report["records"]
        n = len(records)
        assert report["mean_fit_quantum"] == pytest.approx(
            math.fsum(r["fit_quantum"] for r in records) / n, abs=1e-15
        )
        assert report["mean_fit_classical"] == pytest.approx(
            math.fsum(r["fit_classical"] for r in records) / n, abs=1e-15
        )

    def test_literature_average_spans_only_linked_rows(self):
        scenarios = load_builtin().scenarios[:2]
        literature = {scenarios[0].name: {"qpdt": {"prediction": 0.6, "fit": 0.1}}}
        report = run_comparison(scenarios, literature)
        assert report["mean_fit_literature"] == {"qpdt": pytest.approx(0.1)}
        assert report["records"][1]["literature"] == {}

    def test_single_scenario_report_matches_record(self):
        report = run_comparison([AVERAGE])
        record = predict_unknown(AVERAGE)
        assert report["records"] == [{
            "scenario": "Average",
            "observed": 0.64,
            "classical": record.classical_prediction,
            "quantum": record.quantum_prediction,
            "degree": record.degree.value,
            "degree_raw": record.degree.raw,
            "fit_classical": record.fit_error_classical,
            "fit_quantum": record.fit_error_quantum,
            "literature": {},
        }]
        assert list(report["records"][0]) == [
            "scenario", "observed", "classical", "quantum", "degree", "degree_raw",
            "fit_classical", "fit_quantum", "literature",
        ]
        assert list(report) == [
            "records", "mean_fit_classical", "mean_fit_quantum", "mean_fit_literature"
        ]
        assert report["mean_fit_quantum"] == record.fit_error_quantum

    def test_rejects_empty_list(self):
        with pytest.raises(ValidationError, match="at least one"):
            run_comparison([])

    def test_a_failed_row_keeps_its_record_and_the_others_predict(self):
        """The failed row's predicted cells are None, the means span the rows that
        have them, and a last "failures" key names the row and the cause."""
        ignorant = Scenario("ignorant", 0.5, 0.5, 0.5)
        literature = {"ignorant": {"qpdt": {"prediction": 0.6, "fit": 0.1}}}
        report = run_comparison([AVERAGE, ignorant, AVERAGE], literature)
        with pytest.raises(NegativeUnnormalizedMassError) as raised:
            predict_unknown(ignorant)
        alone = run_comparison([AVERAGE, AVERAGE])
        assert report["records"][1] == {
            "scenario": "ignorant", "observed": 0.5,
            **dict.fromkeys(["classical", "quantum", "degree", "degree_raw",
                             "fit_classical", "fit_quantum"]),
            "literature": literature["ignorant"],
        }
        assert report["records"][::2] == alone["records"]
        assert report == {**alone, "records": report["records"],
                          "mean_fit_literature": {"qpdt": 0.1},
                          "failures": [{"scenario": "ignorant", "error": str(raised.value)}]}
        assert list(report)[-1] == "failures"
        with pytest.raises(InferenceError, match="^no prediction for scenario 'ignorant': "):
            check_predicted(report)
        check_predicted(alone)

    def test_when_no_row_predicts_the_first_rows_error_propagates(self):
        rows = [Scenario("ignorant", 0.5, 0.5, 0.5), Scenario("singular", 0.02, 0.82, 0.5)]
        with pytest.raises(NegativeUnnormalizedMassError) as first:
            predict_unknown(rows[0])
        with pytest.raises(NegativeUnnormalizedMassError) as raised:
            run_comparison(rows)
        assert str(raised.value) == str(first.value)
        with pytest.raises(SingularDenominatorError):
            run_comparison(rows[::-1])

    def test_quantum_improves_on_classical_per_condition(self):
        """The interference posterior lands nearer the observed rate than the
        classical mix on every single-condition row. The Li and Taplin row
        pools three separate conditions into one average, where the published
        per-condition fits do not carry over, so it is left out."""
        report = run_comparison(load_builtin().scenarios)
        for record in report["records"]:
            if record["scenario"] == "Li and Taplin, 2002":
                continue
            assert record["fit_quantum"] < record["fit_classical"]


class TestBuiltinDataset:
    def test_five_scenarios_in_report_order(self):
        names = [s.name for s in load_builtin().scenarios]
        assert names == list(FROZEN_PIPELINE)

    @pytest.mark.parametrize(
        "content, cause",
        [('{"scenarios": []}', "missing key 'comparison_rows'"),
         ("[]", "unexpected structure"), ("{", "line 1")],
        ids=["missing key", "wrong shape", "not JSON"],
    )
    def test_a_malformed_packaged_file_names_its_path(
        self, tmp_path, monkeypatch, content: str, cause: str
    ):
        path = tmp_path / "literature.json"
        path.write_text(content)
        monkeypatch.setattr("qlbn.scenarios._LITERATURE", path)
        with pytest.raises(ValidationError) as raised:
            load_builtin()
        assert str(raised.value).startswith(f"{path}: {cause}")

    def test_reported_classical_column(self):
        classical = [
            p for p in load_builtin().published if p.field == "classical"
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
            ("Average", "quantum", 0.6926, TOL_PREDICTION),
            ("Average", "fit_quantum", 0.082, TOL_FIT),
        ]

    def test_published_values_are_the_goldens_in_order(self):
        published = load_builtin().published
        goldens = run_reproduction()["goldens"]
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
        assert [(g["label"], g["expected"], g["tolerance"]) for g in goldens] == [
            (p.label, p.value, p.tolerance) for p in published
        ]
        assert [(p.value, p.tolerance) for p in published[-2:]] == [
            (0.6069, TOL_COMPARISON), (0.9045, TOL_COMPARISON)
        ]

    def test_comparison_rows(self):
        data = load_builtin()
        rows = data.comparison_rows
        assert len(rows) == len(data.links) == 5
        linked = {r["condition"]: link for r, link in zip(rows, data.links) if link}
        assert linked == {
            "Busemeyer et al., 2006a": "Busemeyer et al., 2006a",
            "Hristova and Grinberg, 2008": "Hristova and Grinberg, 2008",
        }
        for row in rows:
            assert set(row["models"]) == {"qpdt", "dynamic_heuristic"}
            assert row["basis"] == "published"
        assert (rows[3]["prediction"], rows[3]["prediction_fit"]) == (0.6069, 0.0805)

    def test_literature_maps_linked_scenarios_to_model_columns(self):
        data = load_builtin()
        rows = data.comparison_rows
        assert data.literature() == {
            "Busemeyer et al., 2006a": rows[3]["models"],
            "Hristova and Grinberg, 2008": rows[4]["models"],
        }

    def test_reported_average_fit_errors(self):
        assert REPORTED_AVERAGES == {
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
                    },
                ]
            )
        )
        loaded = load_scenarios(path)
        skewed = Scenario("Skewed", 0.9, 0.6, 0.7, prior_defect=0.25)
        assert loaded == [AVERAGE, skewed]

    def test_shipped_sample_has_five_rows(self):
        root = Path(__file__).resolve().parent.parent
        rows = load_scenarios(root / "data" / "scenarios" / "literature_games.json")
        assert [s.name for s in rows] == list(FROZEN_PIPELINE)
        # the sample file and the packaged rows are one dataset
        assert tuple(rows) == load_builtin().scenarios

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
        goldens = run_reproduction()["goldens"]
        assert [g["label"] for g in goldens if not g["passed"]] == []
        for g in goldens:
            assert abs(g["actual"] - g["expected"]) <= g["tolerance"], g["label"]

    def test_golden_coverage(self):
        goldens = run_reproduction()["goldens"]
        labels = [g["label"] for g in goldens]
        assert len(goldens) == 9
        assert sum(lb.startswith("classical prediction") for lb in labels) == 5
        assert "quantum prediction (Average)" in labels
        assert "fit error (Average)" in labels
        assert sum(lb.startswith("comparison prediction") for lb in labels) == 2

    def test_table_rows_and_basis(self):
        table = run_reproduction()["published_models"]
        assert [row["basis"] for row in table] == [
            "published",
            "published",
            "published",
            "computed",
            "computed",
        ]
        computed = {
            row["condition"]: row["prediction"] for row in table if row["basis"] == "computed"
        }
        assert computed["Busemeyer et al., 2006a"] == pytest.approx(
            FROZEN_PIPELINE["Busemeyer et al., 2006a"][0], abs=1e-9
        )
        assert computed["Hristova and Grinberg, 2008"] == pytest.approx(
            FROZEN_PIPELINE["Hristova and Grinberg, 2008"][0], abs=1e-9
        )

    def test_table3_means_match_reported_average_fit_errors(self):
        table = run_reproduction()["published_models"]
        means = {
            model: math.fsum(row["models"][model]["fit"] for row in table) / len(table)
            for model in ("qpdt", "dynamic_heuristic")
        }
        means["belief_degree"] = math.fsum(row["prediction_fit"] for row in table) / len(table)
        assert set(means) == set(REPORTED_AVERAGES)
        for model, mean in means.items():
            assert mean == pytest.approx(REPORTED_AVERAGES[model], abs=TOL_FIT), model

    def test_published_rows_copy_reported_values(self):
        table = run_reproduction()["published_models"]
        first = table[0]
        assert first["basis"] == "published"
        assert first["prediction"] == 0.8623
        assert first["prediction_fit"] == 0.0051


@pytest.fixture(scope="module")
def report() -> dict:
    data = load_builtin()
    return run_comparison(data.scenarios, data.literature())


class TestRendering:
    def test_table_shows_five_decimal_values(self, report: dict):
        text = render_report_table(report)
        assert "0.69250" in text  # Average quantum prediction
        assert "(mean fit error)" in text
        assert text.splitlines()[0].startswith("scenario")

    def test_csv_round_trips_full_precision(self, report: dict):
        rows = list(csv.reader(io.StringIO(render_report_csv(report))))
        header, *body = rows
        quantum_col = header.index("quantum")
        by_name = {row[0]: row for row in body}
        value = float(by_name["Average"][quantum_col])
        assert value == report["records"][-1]["quantum"]

    def test_model_cells_are_read_by_name(self):
        """A cell's keys may come in any order; each column reads its own key."""
        cell = {"fit": 0.05, "prediction": 0.62}
        report = run_comparison([AVERAGE], {AVERAGE.name: {"qpdt": cell}})
        row = next(csv.DictReader(io.StringIO(render_report_csv(report))))
        assert (row["qpdt_prediction"], row["qpdt_fit"]) == ("0.62", "0.05")

    def test_csv_cells_are_the_report_dict_values(self, report: dict):
        """Each cell is the repr of its document value; a record without a
        model's published columns leaves them empty."""
        payload = report
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

    def test_report_dict_carries_raw_degree(self, report: dict):
        average = report["records"][-1]
        assert average["scenario"] == "Average"
        assert average["degree_raw"] == predict_unknown(AVERAGE).degree.raw
        assert set(report["mean_fit_literature"]) == {"qpdt", "dynamic_heuristic"}

    def test_table3_renderers(self):
        result = run_reproduction()
        text = render_table3(result)
        assert "this model" in text.splitlines()[0]
        assert "published" in text and "computed" in text
        rows = list(csv.reader(io.StringIO(render_table3_csv(result))))
        assert len(rows) == 6  # header + five conditions
        assert rows[0][-1] == "basis"

    def test_chart_series_renderers(self, report: dict):
        rows = list(csv.reader(io.StringIO(render_observed_vs_predicted_csv(report))))
        assert rows[0] == ["scenario", "observed", "classical", "quantum"]
        assert len(rows) == 6
        result = run_reproduction()
        rows = list(csv.reader(io.StringIO(render_model_comparison_csv(result))))
        assert rows[0][:2] == ["condition", "observed"]
        assert len(rows) == 6
