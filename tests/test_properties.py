"""Every valid input ends in a distribution or in an InferenceError that names its cause.

Two input spaces: the game scenario square (both conditionals, the prior and
the observed rate), and small binary networks with a random DAG, CPT entries
that include 0 and 1, a random query and evidence, and the automatic or a
fixed degree. No other exception may escape.
"""

from __future__ import annotations

import itertools
import math
import sys

from hypothesis import given
from hypothesis import strategies as st

from conftest import draw_query_and_evidence
from qlbn.bayesnet import infer, network_from_dict
from qlbn.errors import InferenceError, ValidationError
from qlbn.heuristic import degree_for_query, pair_degree, weighable_magnitudes
from qlbn.quantum import amplitudes_from_network, completion_magnitudes, posterior, quantum_infer
from qlbn.scenarios import DEFECT, PLAYER_TWO, Scenario, predict_unknown, scenario_to_network

# The phrase each InferenceError cause puts in its message: impossible evidence,
# cancelled mass, a singular Belief Distance, too many unobserved variables.
CAUSES = ("probability zero", "cancelled all mass", "|alpha + beta - 1|",
          "unobserved variables")

UNIT = st.floats(0.0, 1.0)
# CPT entries: the certain and impossible ends, then anything in between.
ENTRIES = st.one_of(st.sampled_from([0.0, 1.0]), UNIT)


def ends_in_a_distribution_or_a_named_cause(compute) -> None:
    """compute() returns probabilities in [0, 1] that sum to 1, or raises an
    InferenceError whose message names one of CAUSES; anything else fails."""
    try:
        probabilities = compute()
    except InferenceError as exc:
        assert any(cause in str(exc) for cause in CAUSES), repr(exc)
        return
    assert all(0.0 <= p <= 1.0 for p in probabilities), probabilities
    assert abs(math.fsum(probabilities) - 1.0) <= 1e-9, probabilities


@given(defect=UNIT, cooperate=UNIT, observed=UNIT, prior=UNIT)
def test_every_scenario_ends_in_predictions_or_a_named_cause(
    defect: float, cooperate: float, observed: float, prior: float
):
    try:
        scenario = Scenario("square", defect, cooperate, observed, prior_defect=prior)
    except ValidationError as exc:
        # The one part of the square that is no scenario: fit errors are relative to
        # observed, and below the smallest normal float they would overflow.
        assert observed < sys.float_info.min, exc
        return

    def predictions() -> list[float]:
        record = predict_unknown(scenario)
        anet = amplitudes_from_network(scenario_to_network(scenario))
        result = quantum_infer(anet, PLAYER_TWO, {}, record.degree.value)
        assert result.probability(DEFECT) == record.quantum_prediction
        assert 0.0 <= record.classical_prediction <= 1.0
        assert record.fit_error_classical >= 0.0 and record.fit_error_quantum >= 0.0
        return [om.probability for om in result.outcomes]

    ends_in_a_distribution_or_a_named_cause(predictions)


@st.composite
def binary_networks(draw: st.DrawFn) -> dict:
    """A binary network of 2 to 5 variables over a random DAG, declared in a random
    order, with CPT entries drawn from ENTRIES."""
    n = draw(st.integers(min_value=2, max_value=5))
    names = [f"V{i}" for i in range(n)]
    # An edge runs only from a lower to a higher index, so the graph is acyclic.
    parents = {nm: [names[j] for j in range(i) if draw(st.booleans())]
               for i, nm in enumerate(names)}
    cpts = {}
    for nm in names:
        rows = []
        for combo in itertools.product(["T", "F"], repeat=len(parents[nm])):
            p = draw(ENTRIES)
            rows.append({"given": dict(zip(parents[nm], combo)), "dist": {"T": p, "F": 1.0 - p}})
        cpts[nm] = rows
    return {
        "variables": [{"name": nm, "outcomes": ["T", "F"]} for nm in draw(st.permutations(names))],
        "edges": [[parent, child] for child in names for parent in parents[child]],
        "cpts": cpts,
    }


@given(doc=binary_networks(), degree=st.one_of(st.none(), st.floats(-1.0, 1.0)),
       data=st.data())
def test_every_network_query_ends_in_a_distribution_or_a_named_cause(
    doc: dict, degree: float | None, data: st.DataObject
):
    """degree None is the automatic degree, as `qlbn infer --degree auto` runs it."""
    net = network_from_dict(doc)
    query, evidence = draw_query_and_evidence([v["name"] for v in doc["variables"]], data)

    def classical() -> list[float]:
        return list(infer(net, query, evidence).probabilities)

    def quantum() -> list[float]:
        anet = amplitudes_from_network(net)
        if degree is None:
            magnitudes = weighable_magnitudes(anet, query, evidence)
            value = pair_degree(query, magnitudes).value
        else:
            magnitudes, value = completion_magnitudes(anet, query, evidence), degree
        return [om.probability for om in posterior(query, magnitudes, value).outcomes]

    ends_in_a_distribution_or_a_named_cause(classical)
    ends_in_a_distribution_or_a_named_cause(quantum)


def _degree_or_cause(compute):
    """compute()'s BeliefDegree, or the class of the InferenceError it raises."""
    try:
        return compute()
    except InferenceError as exc:
        return type(exc)


@given(doc=binary_networks(), data=st.data())
def test_the_stage_pipeline_and_degree_for_query_agree_on_every_degree(
    doc: dict, data: st.DataObject
):
    """pair_degree over a query's products gives degree_for_query's degree, or both
    raise UnsupportedStructureError (or meet the same singular distance): one rule,
    whatever enumerates the products."""
    anet = amplitudes_from_network(network_from_dict(doc))
    query, evidence = draw_query_and_evidence([v["name"] for v in doc["variables"]], data)
    staged = _degree_or_cause(
        lambda: pair_degree(query, completion_magnitudes(anet, query, evidence)))
    assert staged == _degree_or_cause(lambda: degree_for_query(anet, query, evidence))
