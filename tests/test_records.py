"""The record contract: results are immutable, networks compare by identity,
and value records compare by value."""

from __future__ import annotations

import pytest

from conftest import SERVERS_DOC
from qlbn.bayesnet import Network, Variable, infer, network_from_dict
from qlbn.belief import Frame, validate_bba
from qlbn.errors import UnknownElementError
from qlbn.heuristic import degree_for_query, extract_outcome_vectors
from qlbn.quantum import amplitudes_from_network, quantum_infer
from qlbn.scenarios import Table, load_builtin, run_reproduction

NETWORK_FIELDS = ("variables", "parents", "table", "positions")


def _records() -> dict[str, object]:
    """One instance of every public record type, built through the public API."""
    net = network_from_dict(SERVERS_DOC)
    anet = amplitudes_from_network(net)
    result = quantum_infer(anet, "S2", {}, 0.5)
    frame = Frame(("a", "b"))
    reproduction = run_reproduction()
    comparison = reproduction.comparison
    return {
        "Variable": net.variables[0],
        "Network": net,
        "Frame": frame,
        "BeliefAssignment": validate_bba({("a",): 0.5, ("a", "b"): 0.5}, frame),
        "DiscreteDistribution": infer(net, "S2", {}),
        "OutcomeVectorPair": extract_outcome_vectors(anet, "S2")[0],
        "BeliefDegree": degree_for_query(anet, "S2"),
        "AmplitudeNetwork": anet,
        "OutcomeMass": result.outcomes[0],
        "QuantumInferenceResult": result,
        "Scenario": comparison.records[0].scenario,
        "PredictionRecord": comparison.records[0],
        "ComparisonReport": comparison,
        "Table3Row": reproduction.table3[0],
        "BuiltinDataset": load_builtin(),
        "GoldenCheck": reproduction.goldens[0],
        "ReproductionResult": reproduction,
        "Table": Table((("x", "x"),), ((1.0,),)),
    }


RECORDS = _records()


@pytest.mark.parametrize("type_name", sorted(RECORDS))
def test_fields_cannot_be_assigned(type_name: str):
    record = RECORDS[type_name]
    assert type(record).__name__ == type_name
    fields = NETWORK_FIELDS if isinstance(record, Network) else record._fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_networks_compare_by_identity_and_their_results_by_value():
    first, second = network_from_dict(SERVERS_DOC), network_from_dict(SERVERS_DOC)
    assert first == first
    assert first != second
    assert first.variables == second.variables
    assert first.variables[0] is not second.variables[0]
    assert infer(first, "S2", {}) == infer(second, "S2", {})
    assert Variable("S1", ("T", "F")) == first.variables[0]


def test_frame_replace_and_make_build_checked_frames():
    frame = Frame(("a", "b"))
    changed = frame._replace(elements=("c", "d", "e"))
    assert type(changed) is Frame
    assert changed == Frame(("c", "d", "e"))
    assert len(changed) == 3
    assert Frame._make([("x",)]) == Frame(("x",))
    with pytest.raises(UnknownElementError, match="unique"):
        frame._replace(elements=("c", "c"))
    with pytest.raises(UnknownElementError, match="at least one"):
        Frame._make([()])
