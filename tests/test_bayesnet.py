"""Network construction, the full joint, and inference by enumeration."""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlbn.bayesnet import (
    Network,
    Variable,
    completion_products,
    full_joint,
    infer,
    load_network,
    network_from_dict,
)
from qlbn.errors import InconsistentEvidenceError, ValidationError
from qlbn.quantum import amplitude_product, amplitudes_from_network
from qlbn.scenarios import _GAME

from conftest import (
    GAME_DOC,
    SERVERS_DOC,
    binary_net_docs,
    completions,
    draw_query_and_evidence,
    table_entry,
)


def _oracle_posterior(doc: dict, query: str, evidence: dict[str, str]) -> dict[str, float]:
    """Posterior by raw dictionary enumeration, sharing no code with the package."""
    names = [v["name"] for v in doc["variables"]]
    outcomes = {v["name"]: list(v["outcomes"]) for v in doc["variables"]}
    parents: dict[str, list[str]] = {nm: [] for nm in names}
    for parent, child in doc.get("edges", []):
        parents[child].append(parent)
    tables = {
        nm: {
            tuple(sorted(row.get("given", {}).items())): row["dist"]
            for row in rows
        }
        for nm, rows in doc["cpts"].items()
    }

    def joint(assign: dict[str, str]) -> float:
        pr = 1.0
        for nm in names:
            key = tuple(sorted((p, assign[p]) for p in parents[nm]))
            pr *= tables[nm][key][assign[nm]]
        return pr

    totals = {o: 0.0 for o in outcomes[query]}
    for combo in itertools.product(*(outcomes[nm] for nm in names)):
        assign = dict(zip(names, combo))
        if assign[query] in totals and all(assign[k] == v for k, v in evidence.items()):
            totals[assign[query]] += joint(assign)
    z = sum(totals.values())
    return {o: t / z for o, t in totals.items()}


class TestVariable:
    def test_rejects_single_outcome(self):
        with pytest.raises(ValidationError, match="at least two"):
            Variable("X", ("only",))

    def test_rejects_duplicate_outcomes(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Variable("X", ("a", "a"))


def _edit(path: tuple, value=None, *, append=None, delete=False):
    """An edit of one place in a network document: set it, append to it or delete it."""

    def apply(doc: dict) -> None:
        *outer, last = path
        target = doc
        for step in outer:
            target = target[step]
        if delete:
            del target[last]
        elif append is not None:
            target[last].append(append)
        else:
            target[last] = value

    return apply


HALF = {"T": 0.5, "F": 0.5}


def _cycle(doc: dict) -> None:
    doc["edges"].append(["S2", "S1"])
    doc["cpts"]["S1"] = [{"given": {"S2": o}, "dist": HALF} for o in "TF"]


# Documents with exactly one fault, each an edit of SERVERS_DOC, and the exact
# message network_from_dict raises for it.
SINGLE_FAULTS = {
    "missing row": (
        _edit(("cpts", "S2", 1), delete=True),
        "CPT for 'S2' mismatches its parents: missing rows [('F',)], unexpected rows []",
    ),
    "unexpected row": (
        _edit(("cpts", "S2"), append={"given": {"S1": "X"}, "dist": HALF}),
        "CPT for 'S2' mismatches its parents: missing rows [], unexpected rows [('X',)]",
    ),
    "row on a non-parent": (
        _edit(("edges",), []),
        "CPT row for 'S2' conditions on non-parents: ['S1']",
    ),
    "cycle": (_cycle, "the network contains a cycle through ['S1', 'S2']"),
    "self-loop": (
        _edit(("edges",), append=["S2", "S2"]),
        "the network contains a cycle through ['S2']",
    ),
    "undeclared edge child": (
        _edit(("edges",), append=["S1", "S9"]),
        "edge child 'S9' is not a declared variable",
    ),
    "undeclared edge parent": (
        _edit(("edges",), append=["S9", "S2"]),
        "edge parent 'S9' is not a declared variable",
    ),
    "parent listed twice": (
        _edit(("edges",), append=["S1", "S2"]),
        "variable 'S2' lists a parent twice",
    ),
    "edge not a pair": (
        _edit(("edges",), [["S1", "S2", "S2"]]),
        "edge ['S1', 'S2', 'S2'] must be a [parent, child] pair",
    ),
    "edge not a list": (
        _edit(("edges",), [{"S1": 0, "S2": 1}]),
        "edge {'S1': 0, 'S2': 1} must be a [parent, child] pair",
    ),
    "labels not covering the outcomes": (
        _edit(("cpts", "S1", 0, "dist"), {"T": 0.9, "X": 0.1}),
        "CPT row 'S1'|() covers ('T', 'X'), expected ('T', 'F')",
    ),
    "entry out of [0, 1]": (
        _edit(("cpts", "S1", 0, "dist"), {"T": 1.5, "F": -0.5}),
        "CPT row for 'S1' given {} is invalid: probability 1.5 for 'T' is outside [0, 1]",
    ),
    "second entry out of [0, 1]": (
        _edit(("cpts", "S1", 0, "dist"), {"T": 0.5, "F": 1.5}),
        "CPT row for 'S1' given {} is invalid: probability 1.5 for 'F' is outside [0, 1]",
    ),
    "row total off 1": (
        _edit(("cpts", "S1", 0, "dist"), {"T": 0.9, "F": 0.2}),
        "CPT row for 'S1' given {} is invalid: probabilities sum to 1.1, expected 1",
    ),
    "bool entry": (
        _edit(("cpts", "S1", 0, "dist"), {"T": True, "F": 0.0}),
        "CPT row for 'S1' given {} is invalid: expected a number, got True",
    ),
    "unparsable string": (
        _edit(("cpts", "S2", 1, "dist"), {"T": "0.3x", "F": 0.7}),
        "CPT row for 'S2' given {'S1': 'F'} is invalid: cannot parse number '0.3x'",
    ),
    "NaN entry": (
        _edit(("cpts", "S1", 0, "dist"), {"T": math.nan, "F": 0.5}),
        "CPT row for 'S1' given {} is invalid: probability nan for 'T' is outside [0, 1]",
    ),
    "Infinity entry": (
        _edit(("cpts", "S2", 0, "dist"), {"T": 0.5, "F": math.inf}),
        "CPT row for 'S2' given {'S1': 'T'} is invalid: probability inf for 'F' is outside [0, 1]",
    ),
    "unparsable and out-of-range entries": (
        _edit(("cpts", "S1", 0, "dist"), {"T": 1.5, "F": "x"}),
        "CPT row for 'S1' given {} is invalid: cannot parse number 'x'",
    ),
    "duplicate variable name": (
        _edit(("variables",), append={"name": "S1", "outcomes": ["T", "F"]}),
        "duplicate variable names in ['S1', 'S2', 'S1']",
    ),
    "variable without a CPT": (
        _edit(("cpts", "S2"), delete=True),
        "variable 'S2' has no CPT",
    ),
    "duplicated row": (
        _edit(("cpts", "S2"), append={"given": {"S1": "T"}, "dist": {"T": 0.1, "F": 0.9}}),
        "CPT for 'S2' lists the row given {'S1': 'T'} twice",
    ),
    "CPT for an undeclared variable": (
        _edit(("cpts", "S9"), [{"given": {}, "dist": HALF}]),
        "CPT variable 'S9' is not a declared variable",
    ),
    "string outcomes": (
        _edit(("variables", 0, "outcomes"), "TF"),
        "variable 'S1' needs a list of outcomes, got 'TF'",
    ),
}


def assert_single_fault(fault: str, tmp_path: Path) -> None:
    """The fault's document raises its exact message, and from a file the same
    message after the path."""
    edit, message = SINGLE_FAULTS[fault]
    doc = json.loads(json.dumps(SERVERS_DOC))
    edit(doc)
    with pytest.raises(ValidationError) as direct:
        network_from_dict(doc)
    assert str(direct.value) == message
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as from_file:
        load_network(path)
    assert str(from_file.value) == f"{path}: {message}"


class TestNetworkValidation:
    def test_missing_cpt_row(self, tmp_path: Path):
        assert_single_fault("missing row", tmp_path)

    def test_unexpected_cpt_row(self, tmp_path: Path):
        assert_single_fault("unexpected row", tmp_path)

    def test_row_conditioning_on_non_parent(self, tmp_path: Path):
        assert_single_fault("row on a non-parent", tmp_path)

    def test_cycle_detected(self):
        """The message names the cycle and what lies below it, not the roots above."""
        half = {"T": 0.5, "F": 0.5}
        doc = {
            "variables": [{"name": nm, "outcomes": ["T", "F"]} for nm in ("R", "A", "B", "C")],
            "edges": [["R", "A"], ["A", "B"], ["B", "A"], ["B", "C"]],
            "cpts": {
                "R": [{"given": {}, "dist": half}],
                "A": [
                    {"given": {"R": r, "B": b}, "dist": half} for r in "TF" for b in "TF"
                ],
                "B": [{"given": {"A": a}, "dist": half} for a in "TF"],
                "C": [{"given": {"B": b}, "dist": half} for b in "TF"],
            },
        }
        with pytest.raises(ValidationError) as caught:
            network_from_dict(doc)
        assert str(caught.value) == "the network contains a cycle through ['A', 'B', 'C']"

    def test_unknown_edge_endpoint(self, tmp_path: Path):
        assert_single_fault("undeclared edge parent", tmp_path)

    def test_cpt_labels_must_match_outcomes(self, tmp_path: Path):
        assert_single_fault("labels not covering the outcomes", tmp_path)

    def test_cpt_row_must_normalize(self, tmp_path: Path):
        assert_single_fault("row total off 1", tmp_path)

    def test_duplicate_variable_names(self, tmp_path: Path):
        assert_single_fault("duplicate variable name", tmp_path)

    @pytest.mark.parametrize(
        "fault",
        [
            "cycle",
            "self-loop",
            "undeclared edge child",
            "parent listed twice",
            "entry out of [0, 1]",
            "second entry out of [0, 1]",
            "variable without a CPT",
        ],
    )
    def test_single_fault_message(self, fault: str, tmp_path: Path):
        assert_single_fault(fault, tmp_path)

    def test_duplicated_cpt_row_rejected(self, tmp_path: Path):
        """A repeated row used to overwrite the first: S2 | S1=T read 0.1, not 0.7."""
        assert_single_fault("duplicated row", tmp_path)

    def test_cpt_for_undeclared_variable_rejected(self, tmp_path: Path):
        assert_single_fault("CPT for an undeclared variable", tmp_path)

    def test_string_outcomes_rejected(self, tmp_path: Path):
        """A string used to load as its characters: "TF" as ('T', 'F')."""
        assert_single_fault("string outcomes", tmp_path)


class TestFullJoint:
    def test_product_of_cpt_entries(self, servers_net: Network):
        assert full_joint(servers_net, {"S1": "T", "S2": "F"}) == pytest.approx(
            0.27, abs=1e-15
        )

    def test_sums_to_one(self, servers_net: Network):
        total = math.fsum(
            full_joint(servers_net, a)
            for a in completions(servers_net, {}, tuple(servers_net.positions))
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(doc=binary_net_docs())
    def test_equals_document_product(self, doc: dict):
        """Every complete assignment's joint is, bit for bit, the product of the
        document's own entries in declared variable order, starting from 1.0."""
        net = network_from_dict(doc)
        names = [v["name"] for v in doc["variables"]]
        for labels in itertools.product("TF", repeat=len(names)):
            assignment = dict(zip(names, labels))
            product = 1.0
            for name in names:
                (row,) = [
                    row
                    for row in doc["cpts"][name]
                    if all(assignment[p] == o for p, o in row["given"].items())
                ]
                product *= row["dist"][assignment[name]]
            assert full_joint(net, assignment) == product

    def test_rejects_incomplete_assignment(self, servers_net: Network):
        with pytest.raises(ValidationError, match="S2"):
            full_joint(servers_net, {"S1": "T"})

    def test_rejects_unknown_variable(self, servers_net: Network):
        with pytest.raises(ValidationError, match="'S9'"):
            full_joint(servers_net, {"S1": "T", "S2": "F", "S9": "T"})

    def test_rejects_unknown_outcome(self, servers_net: Network):
        with pytest.raises(ValidationError, match="'Maybe'"):
            full_joint(servers_net, {"S1": "Maybe", "S2": "F"})


class TestInfer:
    def test_marginal_without_evidence(self, servers_net: Network):
        dist = infer(servers_net, "S2", {})
        assert dist.prob("T") == pytest.approx(0.66, abs=1e-12)

    def test_posterior_with_evidence(self, servers_net: Network):
        dist = infer(servers_net, "S2", {"S1": "T"})
        assert dist.prob("T") == pytest.approx(0.7, abs=1e-12)

    def test_game_marginal(self, game_net: Network):
        dist = infer(game_net, "P2", {})
        assert dist.prob("Defect") == pytest.approx(0.805, abs=1e-12)

    def test_outcomes_follow_declared_order(self, game_net: Network):
        assert infer(game_net, "P2", {}).labels == ("Defect", "Cooperate")

    def test_rejects_query_in_evidence(self, servers_net: Network):
        with pytest.raises(ValidationError, match="'S1'"):
            infer(servers_net, "S1", {"S1": "T"})

    def test_rejects_unknown_query(self, servers_net: Network):
        with pytest.raises(ValidationError, match="'S9'"):
            infer(servers_net, "S9", {})

    def test_zero_probability_evidence(self):
        doc = json.loads(json.dumps(SERVERS_DOC))
        doc["cpts"]["S1"][0]["dist"] = {"T": 1.0, "F": 0.0}
        net = network_from_dict(doc)
        with pytest.raises(InconsistentEvidenceError, match="probability zero"):
            infer(net, "S2", {"S1": "F"})

    @given(doc=binary_net_docs(), data=st.data())
    def test_matches_enumeration_oracle(self, doc: dict, data: st.DataObject):
        """Posterior equals raw-dictionary enumeration on random small networks."""
        net = network_from_dict(doc)
        query, evidence = draw_query_and_evidence(list(net.positions), data)
        dist = infer(net, query, evidence)
        expected = _oracle_posterior(doc, query, evidence)
        for outcome, p in expected.items():
            assert dist.prob(outcome) == pytest.approx(p, abs=1e-12)

    @given(doc=binary_net_docs(), data=st.data())
    def test_completion_products_equal_full_joint(self, doc: dict, data: st.DataObject):
        """The shared enumeration gives the validated reference's floats exactly."""
        net = network_from_dict(doc)
        query, evidence = draw_query_and_evidence(list(net.positions), data)
        free = tuple(n for n in net.positions if n != query and n not in evidence)
        products = completion_products(net, net.table, query, evidence)
        assert list(products) == list(net.outcomes(query))
        for outcome, joints in products.items():
            fixed = {**evidence, query: outcome}
            assert joints == [full_joint(net, a) for a in completions(net, fixed, free)]

    def test_out_of_declared_order_network(self):
        """CPT rows listing outcomes against the declared order, and a node whose
        parents are listed against declaration order, give the reference floats."""
        doc = {
            "variables": [
                {"name": "A", "outcomes": ["T", "F"]},
                {"name": "B", "outcomes": ["lo", "mid", "hi"]},
                {"name": "C", "outcomes": ["T", "F"]},
            ],
            "edges": [["B", "C"], ["A", "C"], ["A", "B"]],
            "cpts": {
                "A": [{"given": {}, "dist": {"F": 0.35, "T": 0.65}}],
                "B": [
                    {"given": {"A": "T"}, "dist": {"hi": 0.5, "lo": 0.2, "mid": 0.3}},
                    {"given": {"A": "F"}, "dist": {"mid": 0.1, "hi": 0.3, "lo": 0.6}},
                ],
                "C": [
                    {"given": {"A": a, "B": b}, "dist": {"F": 1 - p, "T": p}}
                    for (a, b), p in zip(
                        itertools.product("TF", ("lo", "mid", "hi")),
                        (0.9, 0.8, 0.7, 0.4, 0.3, 0.2),
                    )
                ],
            },
        }
        net = network_from_dict(doc)
        assert net.parents["C"] == ("B", "A")
        names = tuple(net.positions)
        for query in names:
            others = [n for n in names if n != query]
            for observed in itertools.chain.from_iterable(
                itertools.combinations(others, k) for k in range(len(others))
            ):
                for labels in itertools.product(*(net.outcomes(n) for n in observed)):
                    evidence = dict(zip(observed, labels))
                    free = tuple(n for n in names if n != query and n not in evidence)
                    products = completion_products(net, net.table, query, evidence)
                    for outcome, joints in products.items():
                        fixed = {**evidence, query: outcome}
                        assert joints == [
                            full_joint(net, a) for a in completions(net, fixed, free)
                        ]
                    dist = infer(net, query, evidence)
                    for outcome, p in _oracle_posterior(doc, query, evidence).items():
                        assert dist.prob(outcome) == pytest.approx(p, abs=1e-12)

    @given(doc=binary_net_docs())
    def test_joint_normalizes_on_random_networks(self, doc: dict):
        net = network_from_dict(doc)
        total = math.fsum(
            full_joint(net, a) for a in completions(net, {}, tuple(net.positions))
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def _tree_doc(shape: str, n: int, rng: random.Random) -> dict:
    """A chain X0 -> X1 -> ... or a heap-ordered binary tree (X((i-1)//2) -> Xi) of n
    binary variables, with CPT entries drawn from rng."""
    names = [f"X{i}" for i in range(n)]

    def dist() -> dict[str, float]:
        p = round(rng.uniform(0.05, 0.95), 6)
        return {"T": p, "F": round(1.0 - p, 6)}

    edges = [[names[i - 1 if shape == "chain" else (i - 1) // 2], names[i]] for i in range(1, n)]
    cpts = {names[0]: [{"given": {}, "dist": dist()}]}
    for parent, child in edges:
        cpts[child] = [{"given": {parent: o}, "dist": dist()} for o in "TF"]
    return {
        "variables": [{"name": name, "outcomes": ["T", "F"]} for name in names],
        "edges": edges,
        "cpts": cpts,
    }


def _assert_products_keep_bits(net: Network, query: str, evidence: dict[str, str]) -> None:
    """completion_products over both tables equals the per-completion reference
    products, compared by their hex forms so every bit counts."""
    anet = amplitudes_from_network(net)
    free = tuple(n for n in net.positions if n != query and n not in evidence)
    for table, reference in ((net.table, lambda a: full_joint(net, a)),
                             (anet.amplitudes, lambda a: amplitude_product(anet, a))):
        products = completion_products(net, table, query, evidence)
        assert list(products) == list(net.outcomes(query))
        for outcome, joints in products.items():
            expected = completions(net, {**evidence, query: outcome}, free)
            assert [x.hex() for x in joints] == [reference(a).hex() for a in expected]


class TestObservedPrefix:
    """completion_products multiplies the factors before the first one that reads an
    unobserved label once per query; every product must keep its bits."""

    @pytest.mark.parametrize("shape", ["chain", "tree"])
    @pytest.mark.parametrize("n", [14, 17, 20])
    def test_large_networks_with_one_free_variable(self, shape: str, n: int):
        """Every (query, free) pair with the rest observed, as a network file query
        with one free variable runs."""
        rng = random.Random(f"{shape}/{n}")
        net = network_from_dict(_tree_doc(shape, n, rng))
        names = list(net.positions)
        for query, free in itertools.permutations(names, 2):
            evidence = {nm: rng.choice("TF") for nm in names if nm not in (query, free)}
            _assert_products_keep_bits(net, query, evidence)

    def test_child_declared_before_the_query(self):
        """C is declared after an observed root and before its parent A, so with A
        queried the prefix holds R alone and must stop at C's factor."""
        doc = {
            "variables": [{"name": nm, "outcomes": ["T", "F"]} for nm in ("R", "C", "A", "B")],
            "edges": [["A", "C"], ["R", "C"], ["R", "B"], ["A", "B"]],
            "cpts": {
                "R": [{"given": {}, "dist": {"T": 0.3, "F": 0.7}}],
                "A": [{"given": {}, "dist": {"T": 0.55, "F": 0.45}}],
                "C": [{"given": {"A": a, "R": r}, "dist": {"T": p, "F": 1 - p}}
                      for (a, r), p in zip(itertools.product("TF", repeat=2),
                                           (0.9, 0.15, 0.35, 0.6))],
                "B": [{"given": {"R": r, "A": a}, "dist": {"F": 1 - p, "T": p}}
                      for (r, a), p in zip(itertools.product("TF", repeat=2),
                                           (0.25, 0.8, 0.45, 0.05))],
            },
        }
        net = network_from_dict(doc)
        assert net.parents["C"] == ("A", "R")
        names = list(net.positions)
        for query, free in itertools.permutations(names, 2):
            observed = [nm for nm in names if nm not in (query, free)]
            for labels in itertools.product("TF", repeat=len(observed)):
                _assert_products_keep_bits(net, query, dict(zip(observed, labels)))
        # No variable observed at all: the prefix is empty.
        for query in names:
            _assert_products_keep_bits(net, query, {})


class TestParseKeepsOrders:
    """What the parse must keep while it changes how it builds each piece."""

    def test_game_factors_list_row_then_dist_order(self):
        """scenario_to_network zips the game's keys in this order with its values."""
        (_, p1), (_, p2) = _GAME.table
        assert list(p1) == ["Defect", "Cooperate"]
        assert list(p2) == [("Cooperate", "Defect"), ("Cooperate", "Cooperate"),
                            ("Defect", "Defect"), ("Defect", "Cooperate")]

    def test_factor_keys_follow_rows_listing_f_before_t(self):
        doc = json.loads(json.dumps(SERVERS_DOC))
        doc["cpts"]["S2"] = [
            {"given": {"S1": "F"}, "dist": {"F": 0.7, "T": 0.3}},
            {"given": {"S1": "T"}, "dist": {"F": 0.3, "T": 0.7}},
        ]
        (_, s1), (_, s2) = network_from_dict(doc).table
        assert list(s1) == ["T", "F"]
        assert list(s2) == [("F", "F"), ("F", "T"), ("T", "F"), ("T", "T")]
        assert list(s2.values()) == [0.7, 0.3, 0.3, 0.7]

    def test_variable_error_outranks_an_earlier_duplicate_name(self):
        doc = json.loads(json.dumps(SERVERS_DOC))
        doc["variables"] += [{"name": "S1", "outcomes": ["T", "F"]},
                             {"name": "S3", "outcomes": ["T"]}]
        with pytest.raises(ValidationError) as caught:
            network_from_dict(doc)
        assert str(caught.value) == "variable 'S3' needs at least two outcomes, got ('T',)"

    def test_root_row_naming_a_variable_conditions_on_non_parents(self):
        doc = json.loads(json.dumps(SERVERS_DOC))
        doc["cpts"]["S1"][0]["given"] = {"S2": "T"}
        with pytest.raises(ValidationError) as caught:
            network_from_dict(doc)
        assert str(caught.value) == "CPT row for 'S1' conditions on non-parents: ['S2']"


class TestNetworkFiles:
    def test_round_trip(self, tmp_path: Path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(SERVERS_DOC))
        net = load_network(path)
        assert infer(net, "S2", {}).prob("T") == pytest.approx(0.66, abs=1e-12)

    def test_shipped_samples_stay_valid(self):
        root = Path(__file__).resolve().parent.parent
        for name in ["data_servers.json", "prisoners_average.json"]:
            net = load_network(root / "data" / "networks" / name)
            assert len(net.positions) == 2

    def test_decimal_string_probabilities(self, tmp_path: Path):
        doc = json.loads(json.dumps(SERVERS_DOC))
        doc["cpts"]["S1"][0]["dist"] = {"T": "0.9", "F": "0.1"}
        net = network_from_dict(doc)
        assert full_joint(net, {"S1": "T", "S2": "T"}) == pytest.approx(0.63, abs=1e-12)

    def test_boolean_probability_rejected(self, tmp_path: Path):
        assert_single_fault("bool entry", tmp_path)

    def test_unparsable_probability_rejected(self, tmp_path: Path):
        assert_single_fault("unparsable string", tmp_path)

    @pytest.mark.parametrize("fault", ["NaN entry", "Infinity entry"])
    def test_non_finite_probability_rejected(self, fault: str, tmp_path: Path):
        """json.loads reads the NaN and Infinity literals; the range check refuses both."""
        assert_single_fault(fault, tmp_path)

    def test_parse_error_outranks_range_error(self, tmp_path: Path):
        """Every entry of a row is parsed before any is range-checked."""
        assert_single_fault("unparsable and out-of-range entries", tmp_path)

    def test_integer_and_string_entries_equal_their_floats(self):
        doc = json.loads(json.dumps(SERVERS_DOC))
        doc["cpts"]["S1"][0]["dist"] = {"T": 0, "F": 1}
        doc["cpts"]["S2"][0]["dist"] = {"T": "0.25", "F": "0.75"}
        net = network_from_dict(doc)
        entries = [table_entry(net, "S1", "T"), table_entry(net, "S1", "F"),
                   table_entry(net, "S2", "T", "T"), table_entry(net, "S2", "T", "F")]
        assert all(type(p) is float for p in entries)
        assert [p.hex() for p in entries] == [float(v).hex() for v in (0, 1, "0.25", "0.75")]

    def test_malformed_json_reports_line(self, tmp_path: Path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "variables": [\n')
        with pytest.raises(ValidationError, match="line 3"):
            load_network(path)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_every_line_ending_counts_one_line(self, newline: str, tmp_path: Path):
        """The file is read as bytes, and its line endings translate as a text-mode
        read translates them."""
        path = tmp_path / "broken.json"
        path.write_bytes(f'{{{newline}  "variables": [{newline}'.encode())
        with pytest.raises(ValidationError, match="line 3"):
            load_network(path)

    def test_missing_sections(self, tmp_path: Path):
        with pytest.raises(ValidationError, match="'variables' and 'cpts'"):
            network_from_dict({"variables": []})
        nameless = json.loads(json.dumps(SERVERS_DOC))
        del nameless["variables"][0]["name"]
        distless = json.loads(json.dumps(SERVERS_DOC))
        del distless["cpts"]["S1"][0]["dist"]
        listed_dist = json.loads(json.dumps(SERVERS_DOC))
        listed_dist["cpts"]["S1"][0]["dist"] = [0.9, 0.1]
        object_cpt = json.loads(json.dumps(SERVERS_DOC))
        object_cpt["cpts"]["S1"] = object_cpt["cpts"]["S1"][0]
        path = tmp_path / "net.json"
        for doc, message in (
            (nameless, "missing key 'name'"),
            (distless, "missing key 'dist'"),
            (listed_dist, "unexpected structure: list indices must be integers"),
            (object_cpt, "unexpected structure: 'str' object has no attribute 'get'"),
        ):
            with pytest.raises(ValidationError) as direct:
                network_from_dict(doc)
            assert str(direct.value).startswith(message)
            path.write_text(json.dumps(doc))
            with pytest.raises(ValidationError) as from_file:
                load_network(path)
            assert str(from_file.value) == f"{path}: {direct.value}"

    def test_edge_must_be_pair(self, tmp_path: Path):
        assert_single_fault("edge not a pair", tmp_path)

    def test_edge_must_be_a_list(self, tmp_path: Path):
        """An object edge used to fail with a missing key 0."""
        assert_single_fault("edge not a list", tmp_path)

    def test_string_edge_rejected(self):
        """A two-character string used to load as its characters: "AB" as A -> B."""
        doc = {
            "variables": [{"name": nm, "outcomes": ["T", "F"]} for nm in "AB"],
            "edges": ["AB"],
            "cpts": {
                "A": [{"given": {}, "dist": HALF}],
                "B": [{"given": {"A": a}, "dist": HALF} for a in "TF"],
            },
        }
        with pytest.raises(ValidationError) as caught:
            network_from_dict(doc)
        assert str(caught.value) == "edge 'AB' must be a [parent, child] pair"

    def test_game_doc_matches_fixture(self, game_net: Network):
        net = network_from_dict(GAME_DOC)
        assert tuple(net.positions) == tuple(game_net.positions)
        assert table_entry(net, "P2", "Defect", "Defect") == 0.87
