"""The record contract: records are immutable, networks compare by identity,
and value records compare by value. The documents run_comparison and
run_reproduction return are plain JSON data and not records."""

from __future__ import annotations

import inspect

import pytest

from conftest import SERVERS_DOC
from qlbn import scenarios
from qlbn.bayesnet import Network, Variable, infer, network_from_dict
from qlbn.belief import BeliefAssignment, DiscreteDistribution
from qlbn.errors import ValidationError
from qlbn.heuristic import degree_for_query
from qlbn.quantum import amplitudes_from_network, quantum_infer
from qlbn.scenarios import Scenario, load_builtin, predict_unknown, scenario_to_network
from qlbn.table import Table

NETWORK_FIELDS = ("variables", "parents", "table", "positions")


def _records() -> dict[str, object]:
    """One instance of every public record type, built through the public API."""
    net = network_from_dict(SERVERS_DOC)
    anet = amplitudes_from_network(net)
    result = quantum_infer(anet, "S2", {}, 0.5)
    data = load_builtin()
    return {
        "Variable": net.variables[0],
        "Network": net,
        "BeliefAssignment": BeliefAssignment(("a", "b"), {("a",): 0.5, ("a", "b"): 0.5}),
        "DiscreteDistribution": infer(net, "S2", {}),
        "BeliefDegree": degree_for_query(anet, "S2"),
        "AmplitudeNetwork": anet,
        "OutcomeMass": result.outcomes[0],
        "QuantumInferenceResult": result,
        "Scenario": data.scenarios[0],
        "PredictionRecord": predict_unknown(data.scenarios[0]),
        "BuiltinDataset": data,
        "PublishedValue": data.published[0],
        "Table": Table((("x", "x"),), ((1.0,),)),
    }


RECORDS = _records()


@pytest.mark.parametrize("type_name", sorted(RECORDS))
def test_fields_cannot_be_assigned(type_name: str):
    record = RECORDS[type_name]
    assert type(record).__name__ == type_name
    for name in record._fields:
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


def test_network_is_a_named_tuple_that_hashes_by_identity():
    net = network_from_dict(SERVERS_DOC)
    assert Network._fields == NETWORK_FIELDS
    assert net in {net}
    assert network_from_dict(SERVERS_DOC) not in {net}
    # As the README says: like every record, it unpacks, has len 4, and equals a
    # plain tuple of its own fields through tuple's reflected ==.
    variables, parents, table, positions = net
    assert len(net) == 4
    assert net == (variables, parents, table, positions)


def test_scenario_networks_bind_a_table_into_the_game_structure():
    net = scenario_to_network(Scenario("Average", 0.87, 0.74, observed_unknown=0.64))
    assert type(net) is Network
    for name in ("variables", "parents", "positions"):
        assert getattr(net, name) is getattr(scenarios._GAME, name)
    assert net.table is not scenarios._GAME.table


def test_network_repr_shows_variables_and_parents():
    net = network_from_dict({
        "variables": [{"name": "A", "outcomes": ["T", "F"]}],
        "cpts": {"A": [{"dist": {"T": 0.5, "F": 0.5}}]},
    })
    assert repr(net) == (
        "Network(variables=(Variable(name='A', outcomes=('T', 'F')),), parents={'A': ()})"
    )


def test_frame_replace_and_make_build_checked_frames():
    bba = BeliefAssignment(("a", "b"), {"a": 1.0})
    changed = bba._replace(frame=["c", "a", "e"])
    assert type(changed) is BeliefAssignment
    assert changed == BeliefAssignment(("c", "a", "e"), {"a": 1.0})
    assert changed.frame == ("c", "a", "e")
    assert BeliefAssignment._make([("x",), {"x": 1.0}]) == BeliefAssignment(("x",), {"x": 1.0})
    with pytest.raises(ValidationError, match="unique"):
        bba._replace(frame=("a", "a"))
    with pytest.raises(ValidationError, match="at least one"):
        BeliefAssignment._make([(), {}])
    with pytest.raises(ValidationError, match=r"element 'a' is not in the frame \('c',\)"):
        bba._replace(frame=("c",))


# A checked record, a field change its constructor refuses, and one it accepts.
CHECKED = {
    "Variable": (Variable("X", ("T", "F")), {"outcomes": ("T",)}, {"name": "Y"}),
    "BeliefAssignment": (
        BeliefAssignment(("a", "b"), {"a": 0.5, "b": 0.5}), {"masses": {("a",): 3.0}},
        {"masses": {("a", "b"): 1.0}},
    ),
    "DiscreteDistribution": (
        DiscreteDistribution(("a", "b"), (0.5, 0.5)),
        {"probabilities": (2.0, -1.0)},
        {"probabilities": (0.25, 0.75)},
    ),
    "Scenario": (
        Scenario("Average", 0.87, 0.74, 0.64), {"p_defect_given_cooperate": 1.5},
        {"prior_defect": "0.3"},
    ),
}


@pytest.mark.parametrize("type_name", sorted(CHECKED))
def test_replace_and_make_run_the_constructor_checks(type_name: str):
    record, bad, good = CHECKED[type_name]
    cls = type(record)
    assert cls.__name__ == type_name
    fields = tuple({**record._asdict(), **bad}.values())
    with pytest.raises(ValidationError) as built:
        cls(*fields)
    with pytest.raises(ValidationError) as replaced:
        record._replace(**bad)
    with pytest.raises(ValidationError) as made:
        cls._make(fields)
    assert str(replaced.value) == str(made.value) == str(built.value)
    changed = record._replace(**good)
    assert type(changed) is cls
    assert changed == cls(*{**record._asdict(), **good}.values())


def test_checked_records_share_one_make():
    sources = {inspect.getsource(vars(type(record))["_make"].__func__).strip()
               for record, _, _ in CHECKED.values()}
    assert len(sources) == 1
