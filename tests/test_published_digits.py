"""Every digit the paper prints is accounted for. Full precision lands within half a
unit of the last printed digit of each published value but two, and those two come
from the paper's own rounding: the Average prediction 0.6926 follows its worked chain
with each printed value feeding the next step, and the mean fit 0.04878 averages the
printed table-3 fits. The goldens `reproduce` checks keep their own tolerances."""

from __future__ import annotations

import json
from decimal import Decimal
from statistics import fmean

import pytest

from qlbn.heuristic import belief_degree, belief_distance
from qlbn.quantum import amplitudes_from_network, completion_magnitudes, posterior
from qlbn.scenarios import (
    _LITERATURE,
    load_builtin,
    run_comparison,
    run_reproduction,
    scenario_to_network,
)

DATA = load_builtin()
RECORDS = {r["scenario"]: r for r in run_comparison(DATA.scenarios, DATA.literature())["records"]}
TABLE3 = {row["condition"]: row for row in run_reproduction()["published_models"]}
# The printed values as literature.json spells them; a float's repr keeps its digits.
PRINTED = json.loads(_LITERATURE.read_text())


def half_unit(printed: float) -> float:
    """Half a unit in the last printed digit: 5e-5 for 0.6069, 5e-4 for 0.95."""
    return 0.5 * 10.0 ** Decimal(repr(printed)).as_tuple().exponent


def test_half_unit_reads_the_printed_digits():
    assert [half_unit(v) for v in (0.95, 0.905, 0.6069, 0.04878)] == pytest.approx(
        [5e-3, 5e-4, 5e-5, 5e-6]
    )


# Every golden but the Average prediction, which test_average_prediction_* pins.
FULL_PRECISION = [p for p in DATA.published if (p.scenario, p.field) != ("Average", "quantum")]


@pytest.mark.parametrize("published", FULL_PRECISION, ids=lambda p: p.label)
def test_golden_is_full_precision_to_its_last_digit(published):
    actual = RECORDS[published.scenario][published.field]
    assert abs(actual - published.value) <= half_unit(published.value)


def test_goldens_cover_five_classical_one_fit_and_two_comparison_values():
    fields = sorted(p.field for p in FULL_PRECISION)
    assert fields == ["classical"] * 5 + ["fit_quantum"] + ["quantum"] * 2


@pytest.mark.parametrize("condition", ["Busemeyer et al., 2006a", "Hristova and Grinberg, 2008"])
def test_table3_fit_is_full_precision_to_its_last_digit(condition):
    printed = next(r for r in PRINTED["comparison_rows"] if r["name"] == condition)
    row = TABLE3[condition]
    assert row["basis"] == "computed"
    assert abs(row["prediction_fit"] - printed["reported_fit_error"]) <= half_unit(
        printed["reported_fit_error"]
    )


def test_average_prediction_misses_its_last_digit_at_full_precision():
    actual, printed = RECORDS["Average"]["quantum"], 0.6926
    assert actual == pytest.approx(0.692495, abs=5e-7)
    assert abs(actual - printed) > half_unit(printed)


def test_average_prediction_is_the_papers_rounded_chain():
    """Printed amplitudes -> printed distances -> printed degree -> masses at that
    degree, rounded to five decimals -> normalised."""
    scenario = next(s for s in DATA.scenarios if s.name == "Average")
    magnitudes = completion_magnitudes(
        amplitudes_from_network(scenario_to_network(scenario)), "P2", {}
    )
    amplitudes = {o: [round(m, 4) for m in mags] for o, mags in magnitudes.items()}
    assert amplitudes == {"Defect": [0.6083, 0.6595], "Cooperate": [0.3606, 0.255]}
    distances = [round(belief_distance(*pair), 5) for pair in amplitudes.values()]
    assert distances == [0.41711, 0.63531]
    degree = round(belief_degree(distances).value, 4)
    assert degree == -0.942
    # The masses come from the full-precision amplitudes at the printed degree.
    masses = [round(om.unnormalized, 5) for om in posterior("P2", magnitudes, degree).outcomes]
    assert masses == [0.04917, 0.02182]
    prediction = masses[0] / sum(masses)
    assert prediction == pytest.approx(0.692633, abs=5e-7)
    assert abs(prediction - 0.6926) <= half_unit(0.6926)


def test_mean_fit_is_the_mean_of_the_printed_fits():
    printed_mean = PRINTED["reported_average_fit_errors"]["belief_degree"]
    assert printed_mean == 0.04878
    printed_fits = [row["reported_fit_error"] for row in PRINTED["comparison_rows"]]
    assert fmean(printed_fits) == pytest.approx(printed_mean, abs=1e-12)
    computed = fmean(row["prediction_fit"] for row in TABLE3.values())
    assert computed == pytest.approx(0.048774, abs=5e-7)
    assert abs(computed - printed_mean) > half_unit(printed_mean)
