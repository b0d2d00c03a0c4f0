"""Amplitude networks and interference-aware marginalization."""

from __future__ import annotations

import itertools
import json
import math
import typing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlbn.bayesnet import Network, full_joint, infer, network_from_dict
from qlbn.errors import (
    InconsistentEvidenceError,
    NegativeUnnormalizedMassError,
    ValidationError,
)
from qlbn.quantum import (
    AmplitudeNetwork,
    amplitude_product,
    amplitudes_from_network,
    completion_magnitudes,
    interference_sum,
    posterior,
    quantum_infer,
)

from conftest import (
    binary_net_docs,
    chain_doc,
    completions,
    draw_query_and_evidence,
    rebind,
    uniform_chain_doc,
)

# Three independent coins: leaves two unobserved variables when one is
# queried, so each query outcome has four completions to interfere.
COINS_DOC = {
    "variables": [
        {"name": "A", "outcomes": ["T", "F"]},
        {"name": "B", "outcomes": ["T", "F"]},
        {"name": "C", "outcomes": ["T", "F"]},
    ],
    "edges": [],
    "cpts": {
        "A": [{"given": {}, "dist": {"T": 0.5, "F": 0.5}}],
        "B": [{"given": {}, "dist": {"T": 0.5, "F": 0.5}}],
        "C": [{"given": {}, "dist": {"T": 0.5, "F": 0.5}}],
    },
}


def _coins() -> AmplitudeNetwork:
    return amplitudes_from_network(network_from_dict(COINS_DOC))


class TestAmplitudes:
    def test_rows_are_square_roots(self, game_amps: AmplitudeNetwork):
        # P2 is the second variable; its values are keyed by (P1's outcome, P2's).
        _, p2 = game_amps.amplitudes[1]
        assert p2[("Defect", "Defect")] == pytest.approx(math.sqrt(0.87), abs=1e-15)

    def test_rows_have_unit_square_sum(self, game_amps: AmplitudeNetwork):
        for _, values in game_amps.amplitudes:
            rows: dict[tuple, list[float]] = {}
            for key, a in values.items():
                parent_key = key[:-1] if isinstance(key, tuple) else ()
                rows.setdefault(parent_key, []).append(a)
            for row in rows.values():
                assert math.fsum(a * a for a in row) == pytest.approx(1.0, abs=1e-12)

    def test_annotations_resolve(self):
        assert typing.get_type_hints(AmplitudeNetwork)["net"] is Network

    def test_rejects_non_binary_variables(self):
        doc = {
            "variables": [{"name": "X", "outcomes": ["a", "b", "c"]}],
            "edges": [],
            "cpts": {"X": [{"given": {}, "dist": {"a": 0.2, "b": 0.3, "c": 0.5}}]},
        }
        with pytest.raises(ValidationError, match="two-outcome"):
            amplitudes_from_network(network_from_dict(doc))

    def test_product_requires_complete_assignment(self, game_amps: AmplitudeNetwork):
        with pytest.raises(ValidationError, match="P2"):
            amplitude_product(game_amps, {"P1": "Defect"})

    def test_squared_product_is_classical_joint(self, game_amps: AmplitudeNetwork):
        assignment = {"P1": "Cooperate", "P2": "Cooperate"}
        assert amplitude_product(game_amps, assignment) ** 2 == pytest.approx(
            0.13, abs=1e-12
        )

    @given(binary_net_docs())
    def test_squared_product_matches_joint_everywhere(self, doc: dict):
        net = network_from_dict(doc)
        anet = amplitudes_from_network(net)
        names = tuple(net.positions)
        for combo in itertools.product(*(net.outcomes(nm) for nm in names)):
            assignment = dict(zip(names, combo))
            assert amplitude_product(anet, assignment) ** 2 == pytest.approx(
                full_joint(net, assignment), abs=1e-12
            )


class TestInterferenceSum:
    def test_two_magnitudes(self):
        value = interference_sum([0.65954, 0.60828], -0.9420)
        assert value == pytest.approx(-0.7558325234208, abs=1e-12)
        # One pair: the same float as the pairwise definition, bit for bit.
        assert value == 2.0 * -0.9420 * (0.65954 * 0.60828)

    def test_three_magnitudes_full_degree(self):
        assert interference_sum([0.3, 0.4, 0.5], 1.0) == pytest.approx(0.94, abs=1e-12)

    def test_degree_zero_kills_interference(self):
        assert interference_sum([0.3, 0.4, 0.5], 0.0) == 0.0

    def test_fewer_than_two_terms(self):
        assert interference_sum([0.7], -1.0) == 0.0
        assert interference_sum([], 1.0) == 0.0

    @given(
        magnitudes=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False), max_size=40
        ),
        degree=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_matches_pairwise_definition(self, magnitudes: list[float], degree: float):
        """The linear-time sum agrees with the sum over all pairs i < j.

        Each prefix sum carries at most k rounding errors for k magnitudes, so
        40 magnitudes stay far inside 1e-13 relative; the absolute floor only
        covers pair products that underflow.
        """
        pairwise = 2.0 * degree * math.fsum(
            a * b for a, b in itertools.combinations(magnitudes, 2)
        )
        assert interference_sum(magnitudes, degree) == pytest.approx(
            pairwise, rel=1e-13, abs=1e-300
        )


class TestCompletionMagnitudes:
    def test_game_magnitudes_in_declared_parent_order(
        self, game_amps: AmplitudeNetwork
    ):
        mags = completion_magnitudes(game_amps, "P2", {})
        assert mags["Defect"] == pytest.approx(
            [0.6082762530298219, 0.6595452979136459], abs=1e-12
        )
        assert mags["Cooperate"] == pytest.approx(
            [0.36055512754639896, 0.25495097567963926], abs=1e-12
        )

    def test_evidence_leaves_single_completion(self, game_amps: AmplitudeNetwork):
        mags = completion_magnitudes(game_amps, "P2", {"P1": "Defect"})
        assert [len(v) for v in mags.values()] == [1, 1]

    def test_rejects_query_in_evidence(self, game_amps: AmplitudeNetwork):
        with pytest.raises(ValidationError, match="query 'P2' already appears in the evidence"):
            completion_magnitudes(game_amps, "P2", {"P2": "Defect"})

    def test_rejects_unknown_evidence_outcome(self, game_amps: AmplitudeNetwork):
        with pytest.raises(ValidationError, match="'Betray'"):
            completion_magnitudes(game_amps, "P2", {"P1": "Betray"})

    def test_rejects_unknown_evidence_variable(self, game_amps: AmplitudeNetwork):
        with pytest.raises(ValidationError, match="'P9'"):
            completion_magnitudes(game_amps, "P2", {"P9": "Defect"})

    @given(doc=binary_net_docs(), data=st.data())
    def test_equals_amplitude_product_per_completion(
        self, doc: dict, data: st.DataObject
    ):
        """The shared enumeration gives the validated reference's floats exactly."""
        net = network_from_dict(doc)
        anet = amplitudes_from_network(net)
        query, evidence = draw_query_and_evidence(list(net.positions), data)
        free = tuple(n for n in net.positions if n != query and n not in evidence)
        mags = completion_magnitudes(anet, query, evidence)
        for outcome in net.outcomes(query):
            fixed = {**evidence, query: outcome}
            assert mags[outcome] == [
                amplitude_product(anet, a) for a in completions(net, fixed, free)
            ]


class TestQuantumInfer:
    def test_fixed_degree_masses(self, game_amps: AmplitudeNetwork):
        """Destructive interference at degree -0.9420 on the game network."""
        result = quantum_infer(game_amps, "P2", {}, -0.9420)
        defect = result.outcomes[0]
        coop = result.outcomes[1]
        assert defect.outcome == "Defect"
        assert defect.unnormalized == pytest.approx(0.049166061095428426, abs=1e-9)
        assert coop.unnormalized == pytest.approx(0.021815407151790783, abs=1e-9)
        assert result.probability("Defect") == pytest.approx(
            0.692660525479544, abs=1e-9
        )

    def test_mass_identity_is_exact(self, game_amps: AmplitudeNetwork):
        result = quantum_infer(game_amps, "P2", {}, -0.9420)
        for om in result.outcomes:
            assert om.unnormalized == om.classical_part + om.interference_part

    def test_normalizer_inverts_total(self, game_amps: AmplitudeNetwork):
        result = quantum_infer(game_amps, "P2", {}, -0.9420)
        total = math.fsum(om.unnormalized for om in result.outcomes)
        assert result.normalizer * total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("degree", [-0.5, 0.0, 1.0])
    def test_a_total_without_a_finite_reciprocal_still_normalizes(self, degree: float):
        tiny = math.sqrt(5e-324)  # its square is the least positive float
        result = posterior("X", {"T": [0.0, 0.0], "F": [0.0, tiny]}, degree)
        assert result.normalizer == math.inf
        assert result.to_dict()["normalizer"] is None
        assert [om.probability for om in result.outcomes] == [0.0, 1.0]

    def test_degree_zero_matches_classical(self, game_amps: AmplitudeNetwork):
        result = quantum_infer(game_amps, "P2", {}, 0.0)
        classical = infer(game_amps.net, "P2", {})
        for outcome in ("Defect", "Cooperate"):
            assert result.probability(outcome) == pytest.approx(
                classical.prob(outcome), abs=1e-12
            )

    @given(doc=binary_net_docs(), data=st.data())
    def test_degree_zero_matches_classical_everywhere(
        self, doc: dict, data: st.DataObject
    ):
        net = network_from_dict(doc)
        anet = amplitudes_from_network(net)
        query, evidence = draw_query_and_evidence(list(net.positions), data)
        result = quantum_infer(anet, query, evidence, 0.0)
        classical = infer(net, query, evidence)
        for outcome in net.outcomes(query):
            assert result.probability(outcome) == pytest.approx(
                classical.prob(outcome), abs=1e-12
            )

    @given(doc=binary_net_docs(), data=st.data())
    def test_full_constructive_degree_squares_the_sum(
        self, doc: dict, data: st.DataObject
    ):
        """At degree +1 the unnormalized mass collapses to (sum of magnitudes)^2."""
        net = network_from_dict(doc)
        anet = amplitudes_from_network(net)
        query = data.draw(st.sampled_from(list(net.positions)))
        mags = completion_magnitudes(anet, query, {})
        result = quantum_infer(anet, query, {}, 1.0)
        for om in result.outcomes:
            expected = math.fsum(mags[om.outcome]) ** 2
            assert om.unnormalized == pytest.approx(expected, abs=1e-12)

    @given(doc=binary_net_docs(), data=st.data())
    def test_distribution_normalizes(self, doc: dict, data: st.DataObject):
        net = network_from_dict(doc)
        anet = amplitudes_from_network(net)
        query = data.draw(st.sampled_from(list(net.positions)))
        degree = data.draw(st.sampled_from([-0.5, 0.0, 0.3, 1.0]))
        try:
            result = quantum_infer(anet, query, {}, degree)
        except NegativeUnnormalizedMassError:
            return  # strong destructive interference; covered by its own tests
        total = math.fsum(om.probability for om in result.outcomes)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_evidence_removes_interference(self, game_amps: AmplitudeNetwork):
        """One completion per outcome means no pairs, whatever the degree."""
        result = quantum_infer(game_amps, "P2", {"P1": "Defect"}, -1.0)
        assert all(om.interference_part == 0.0 for om in result.outcomes)
        # a positive zero: a negative degree times an empty sum would give -0.0
        assert all(math.copysign(1.0, om.interference_part) == 1.0 for om in result.outcomes)
        assert result.probability("Defect") == pytest.approx(0.87, abs=1e-12)

    def test_partial_clamp_zeroes_one_outcome(self):
        """A -> B, A -> C: given A=T the four completions are equal (unnormalized
        0.5 - 0.75 = -0.25); given A=F one completion dominates and mass remains."""
        child_rows = [
            {"given": {"A": "T"}, "dist": {"T": 0.5, "F": 0.5}},
            {"given": {"A": "F"}, "dist": {"T": 0.99, "F": 0.01}},
        ]
        doc = {
            "variables": [{"name": n, "outcomes": ["T", "F"]} for n in "ABC"],
            "edges": [["A", "B"], ["A", "C"]],
            "cpts": {
                "A": [{"given": {}, "dist": {"T": 0.5, "F": 0.5}}],
                "B": child_rows,
                "C": child_rows,
            },
        }
        anet = amplitudes_from_network(network_from_dict(doc))
        result = quantum_infer(anet, "A", {}, -0.5)
        t_mass = result.outcomes[0]
        assert t_mass.outcome == "T"
        assert t_mass.clamped
        assert t_mass.unnormalized < 0.0
        assert t_mass.probability == 0.0
        assert [om.clamped for om in result.outcomes] == [True, False]
        assert result.probability("F") == 1.0

    def test_all_mass_cancelled_raises(self):
        anet = _coins()
        with pytest.raises(NegativeUnnormalizedMassError, match="cancelled"):
            quantum_infer(anet, "A", {}, -1.0)

    def test_cancelled_mass_names_the_feasible_bound(self):
        """A uniform 4-node chain has 8 products of 0.25 per outcome: q = 0.5 and
        s2 = 28 / 16 = 1.75, so the feasible bound is -q / (2ꞏs2) = -1/7."""
        anet = amplitudes_from_network(network_from_dict(uniform_chain_doc(list("ABCD"))))
        with pytest.raises(NegativeUnnormalizedMassError) as caught:
            quantum_infer(anet, "A", {}, -0.5)
        message = str(caught.value)
        assert message.startswith("interference cancelled all mass for query 'A' (unnormalized")
        head, bound = message.rsplit(" ", 1)
        assert head.endswith("; the degree's feasible bound is")
        assert float(bound) == pytest.approx(-1 / 7, rel=1e-12)
        above = quantum_infer(anet, "A", {}, float(bound) + 1e-9)
        assert [om.clamped for om in above.outcomes] == [False, False]

    @pytest.mark.parametrize("degree", [0.5, -0.5], ids=["normalised", "cancelled"])
    def test_sums_each_outcomes_pairs_once(self, monkeypatch, degree: float):
        """The mass and, when all mass cancels, the feasible bound read one pair sum."""
        summed = []

        def counted(magnitudes, degree):
            summed.append(list(magnitudes))
            return interference_sum(magnitudes, degree)

        rebind(monkeypatch, interference_sum, counted)
        anet = amplitudes_from_network(network_from_dict(uniform_chain_doc(list("ABCD"))))
        magnitudes = completion_magnitudes(anet, "A", {})
        if degree < 0.0:
            with pytest.raises(NegativeUnnormalizedMassError):
                posterior("A", magnitudes, degree)
        else:
            posterior("A", magnitudes, degree)
        assert summed == list(magnitudes.values())

    @pytest.mark.parametrize(
        "magnitudes, message",
        [({}, "query 'A' has no outcomes"),
         ({"T": [], "F": [0.5]}, "outcome 'T' of query 'A' has no amplitude products")],
        ids=["no outcomes", "no products"],
    )
    def test_malformed_products_name_the_query(self, magnitudes: dict, message: str):
        """No outcomes used to be blamed on the evidence, as probability zero."""
        with pytest.raises(ValidationError) as caught:
            posterior("A", magnitudes, 0.0)
        assert str(caught.value) == message

    def test_exact_cancellation_raises(self):
        """A uniform chain at degree -1 drives every mass to exactly zero."""
        doc = {
            "variables": [
                {"name": "X", "outcomes": ["T", "F"]},
                {"name": "Y", "outcomes": ["T", "F"]},
            ],
            "edges": [["X", "Y"]],
            "cpts": {
                "X": [{"given": {}, "dist": {"T": 0.5, "F": 0.5}}],
                "Y": [
                    {"given": {"X": "T"}, "dist": {"T": 0.5, "F": 0.5}},
                    {"given": {"X": "F"}, "dist": {"T": 0.5, "F": 0.5}},
                ],
            },
        }
        anet = amplitudes_from_network(network_from_dict(doc))
        with pytest.raises(NegativeUnnormalizedMassError):
            quantum_infer(anet, "Y", {}, -1.0)

    @pytest.mark.parametrize("degree", [0.0, 0.3, -1.0])
    def test_impossible_evidence_is_not_blamed_on_interference(self, degree: float):
        """All mass is gone before any interference: the evidence has probability
        zero, whatever the degree, as in classical inference."""
        doc = chain_doc(["A", "B", "C"])
        doc["cpts"]["A"][0]["dist"] = {"T": 0.0, "F": 1.0}
        anet = amplitudes_from_network(network_from_dict(doc))
        with pytest.raises(InconsistentEvidenceError, match="probability zero"):
            quantum_infer(anet, "C", {"A": "T"}, degree)

    @pytest.mark.parametrize("degree", [math.nan, 1.5, -1.5])
    def test_degree_outside_unit_interval_rejected(
        self, game_amps: AmplitudeNetwork, degree: float
    ):
        with pytest.raises(ValidationError, match=r"outside \[-1, 1\]"):
            quantum_infer(game_amps, "P2", {}, degree)

    @pytest.mark.parametrize("degree", [-1.0, 1.0])
    def test_degree_bounds_accepted(self, game_amps: AmplitudeNetwork, degree: float):
        result = quantum_infer(game_amps, "P2", {}, degree)
        assert math.fsum(om.probability for om in result.outcomes) == pytest.approx(1.0)

    def test_unknown_outcome_lookup(self, game_amps: AmplitudeNetwork):
        result = quantum_infer(game_amps, "P2", {}, 0.0)
        with pytest.raises(ValidationError, match="'Betray'"):
            result.probability("Betray")


class TestResultSerialization:
    def test_to_dict_round_trips_through_json(self, game_amps: AmplitudeNetwork):
        result = quantum_infer(game_amps, "P2", {}, -0.9420)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["query"] == "P2"
        assert payload["normalizer"] == result.normalizer
        first = payload["outcomes"][0]
        assert first["outcome"] == "Defect"
        assert first["probability"] == result.probability("Defect")
        assert first["clamped"] is False
