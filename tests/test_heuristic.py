"""Belief Distance, Belief Degree, and the outcome-vector extraction."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qlbn.bayesnet import load_network, network_from_dict
from qlbn.errors import (
    SingularDenominatorError,
    UnsupportedStructureError,
    ValidationError,
)
from qlbn.heuristic import (
    SINGULAR_TOL,
    BeliefDegree,
    belief_degree,
    belief_distance,
    degree_for_query,
    extract_outcome_vectors,
    pair_degree,
)
from qlbn.quantum import AmplitudeNetwork, amplitudes_from_network, completion_magnitudes

from conftest import ROOT, SERVERS_DOC, chain_doc

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _uniform_chain() -> AmplitudeNetwork:
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
    return amplitudes_from_network(network_from_dict(doc))


def _three_coins() -> AmplitudeNetwork:
    """Three independent binary variables, so query A leaves B and C unobserved."""
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
    return amplitudes_from_network(network_from_dict(doc))


class TestExtractOutcomeVectors:
    def test_game_pairs(self, game_amps: AmplitudeNetwork):
        """alpha tracks the unobserved player's first declared outcome, Cooperate."""
        vectors = extract_outcome_vectors(game_amps, "P2")
        assert list(vectors) == ["Defect", "Cooperate"]
        (d_alpha, d_beta), (c_alpha, c_beta) = vectors.values()
        assert d_alpha == pytest.approx(0.6082762530298219, abs=1e-12)
        assert d_beta == pytest.approx(0.6595452979136459, abs=1e-12)
        assert c_alpha == pytest.approx(0.36055512754639896, abs=1e-12)
        assert c_beta == pytest.approx(0.25495097567963926, abs=1e-12)

    def test_game_pairs_match_published_rounding(self, game_amps: AmplitudeNetwork):
        vectors = extract_outcome_vectors(game_amps, "P2")
        assert vectors["Defect"] == pytest.approx([0.6083, 0.6595], abs=1e-4)
        assert vectors["Cooperate"] == pytest.approx([0.3606, 0.2550], abs=1e-4)

    def test_vectors_are_the_two_product_entries_of_the_products(
        self, game_amps: AmplitudeNetwork
    ):
        """The same lists, in the same order, that pair_degree and posterior read."""
        assert extract_outcome_vectors(game_amps, "P2") == completion_magnitudes(
            game_amps, "P2", {}
        )

    def test_uniform_chain_pairs(self):
        vectors = extract_outcome_vectors(_uniform_chain(), "Y")
        assert list(vectors) == ["T", "F"]
        for pair in vectors.values():
            assert pair == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_evidence_narrows_to_one_unobserved(self):
        anet = _three_coins()
        with pytest.raises(UnsupportedStructureError, match="2 unobserved"):
            extract_outcome_vectors(anet, "A")
        vectors = extract_outcome_vectors(anet, "A", {"C": "T"})
        assert list(vectors) == ["T", "F"]

    def test_zero_unobserved_gives_no_pairs(self, game_amps: AmplitudeNetwork):
        assert extract_outcome_vectors(game_amps, "P2", {"P1": "Defect"}) == {}


@pytest.mark.parametrize("entry", [extract_outcome_vectors, degree_for_query])
class TestChecksComeFirst:
    """The query and the evidence are checked before the unobserved variables are
    counted, and the count before anything is enumerated."""

    def test_query_in_evidence(self, entry):
        anet = amplitudes_from_network(network_from_dict(chain_doc(["A", "B", "C"])))
        with pytest.raises(ValidationError, match="query 'B' already appears"):
            entry(anet, "B", {"B": "T"})

    def test_unknown_evidence_variable(self, entry):
        anet = amplitudes_from_network(network_from_dict(chain_doc(["A", "B", "C"])))
        with pytest.raises(ValidationError, match="no variable named 'Z'"):
            entry(anet, "B", {"Z": "T"})

    def test_many_unobserved_are_refused_before_enumerating(self, entry, no_enumeration):
        names = [f"X{i}" for i in range(40)]
        anet = amplitudes_from_network(network_from_dict(chain_doc(names)))
        with pytest.raises(UnsupportedStructureError, match="39 unobserved"):
            entry(anet, "X0")
        evidence = {name: "T" for name in names[2:-1]}
        two = r"2 unobserved variables \['X1', 'X39'\]"
        with pytest.raises(UnsupportedStructureError, match=two):
            entry(anet, "X0", evidence)


class TestBeliefDistance:
    def test_published_game_pairs(self):
        assert belief_distance(0.6083, 0.6595) == pytest.approx(0.41711, abs=5e-5)
        assert belief_distance(0.3606, 0.2550) == pytest.approx(0.63531, abs=5e-5)

    def test_full_precision_values(self):
        assert belief_distance(0.6083, 0.6595) == pytest.approx(
            0.4171125466766241, abs=1e-12
        )
        assert belief_distance(0.3606, 0.2550) == pytest.approx(
            0.63531383975026, abs=1e-12
        )
        assert belief_distance(0.68191, 0.69642) == pytest.approx(
            0.643557239182724, abs=1e-12
        )

    def test_equal_arguments_return_themselves(self):
        assert belief_distance(0.3, 0.3) == pytest.approx(0.3, abs=1e-12)
        assert belief_distance(0.5, 0.5) == 0.5
        assert belief_distance(0.0, 0.0) == 0.0

    def test_can_exceed_one(self):
        assert belief_distance(0.55, 0.05) == pytest.approx(1.8, abs=1e-12)

    def test_singular_pair_raises(self):
        with pytest.raises(SingularDenominatorError, match="0.3"):
            belief_distance(0.3, 0.7)

    def test_near_singular_pair_raises(self):
        with pytest.raises(SingularDenominatorError):
            belief_distance(0.5 + SINGULAR_TOL / 4, 0.5 - SINGULAR_TOL / 4)

    def test_swap_puts_centered_argument_first(self):
        """(0.9, 0.6): 0.6 is nearer 0.5, so the formula reads |0.6 - 0.3/0.5|."""
        expected = abs(0.6 + (0.6 - 0.9) / abs(0.6 + 0.9 - 1.0))
        assert belief_distance(0.9, 0.6) == pytest.approx(expected, abs=1e-12)
        assert belief_distance(0.6, 0.9) == pytest.approx(expected, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            belief_distance(1.2, 0.3)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            belief_distance(0.3, -0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    def test_rejects_non_finite(self, value: float):
        for pair in ((value, 0.3), (0.3, value)):
            with pytest.raises(ValueError, match=rf"\[0, 1\], got {value!r}"):
                belief_distance(*pair)

    @given(unit_floats, unit_floats)
    def test_symmetric_in_arguments(self, a: float, b: float):
        """Symmetry holds wherever the role swap is decided by the distances
        alone; rounded ties (equal float distances to 0.5 with a != b) fall to
        the keep-the-given-order rule instead and are excluded here."""
        assume(abs(a + b - 1.0) >= 1e-6)
        assume(a == b or abs(a - 0.5) != abs(b - 0.5))
        assert belief_distance(a, b) == belief_distance(b, a)

    @given(unit_floats, unit_floats)
    def test_nonnegative(self, a: float, b: float):
        assume(abs(a + b - 1.0) >= 1e-6)
        assert belief_distance(a, b) >= 0.0


class TestBeliefDegree:
    def test_published_game_distances(self):
        degree = belief_degree([0.41711, 0.63531])
        assert degree.value == pytest.approx(-0.9420, abs=5e-4)
        assert degree.value == pytest.approx(-0.9419740090319841, abs=1e-12)
        assert not degree.clamped

    def test_second_published_pair(self):
        degree = belief_degree([0.64355, 0.28066])
        assert degree.value == pytest.approx(-0.9236970511185009, abs=1e-12)

    def test_ignorance_gives_full_destruction(self):
        degree = belief_degree([0.5, 0.5])
        assert degree.value == -1.0
        assert degree.raw == -1.0
        assert not degree.clamped

    def test_clamps_below_minus_one(self):
        """Two distances of 1/e push the raw sum past -1."""
        b = 1.0 / math.e
        degree = belief_degree([b, b])
        assert degree.raw < -1.0
        assert degree.value == -1.0
        assert degree.clamped

    def test_clamps_above_one(self):
        degree = belief_degree([1.8])
        assert degree.raw == pytest.approx(1.8 * math.log2(1.8), abs=1e-12)
        assert degree.value == 1.0
        assert degree.clamped

    def test_zero_distances_contribute_nothing(self):
        assert belief_degree([0.5, 0.5, 0.0]).raw == belief_degree([0.5, 0.5]).raw

    def test_rejects_empty_distances(self):
        with pytest.raises(ValueError, match="at least one"):
            belief_degree([])

    @pytest.mark.parametrize(
        "distances, bad",
        [([math.nan], "nan"), ([-0.5], "-0.5"), ([0.4, -0.1], "-0.1"), ([math.inf], "inf"),
         ([0.5, -math.inf], "-inf"), ([0.5, 0.5, math.nan], "nan")],
        ids=["nan", "negative", "negative beside a valid one", "inf", "-inf", "nan last"],
    )
    def test_rejects_a_distance_no_pair_has(self, distances: list[float], bad: str):
        with pytest.raises(ValidationError, match=f"finite and nonnegative, got {bad}$"):
            belief_degree(distances)

    @given(st.lists(st.floats(0.0, 2.0, allow_nan=False), min_size=1, max_size=5))
    def test_value_always_in_range(self, distances: list[float]):
        degree = belief_degree(distances)
        assert -1.0 <= degree.value <= 1.0


class TestPairDegree:
    """The one rule for the degree, on the products that posterior reads."""

    def test_two_unobserved_are_refused(self):
        magnitudes = completion_magnitudes(_three_coins(), "A", {})
        message = (r"^query 'A' leaves 2 unobserved variables; "
                   r"the degree heuristic needs at most one$")
        with pytest.raises(UnsupportedStructureError, match=message):
            pair_degree("A", magnitudes)

    def test_three_unobserved_are_counted(self):
        anet = amplitudes_from_network(network_from_dict(chain_doc(["A", "B", "C", "D"])))
        with pytest.raises(UnsupportedStructureError, match="'B' leaves 3 unobserved"):
            pair_degree("B", completion_magnitudes(anet, "B", {}))

    def test_one_unobserved_equals_degree_for_query(self):
        anet = _three_coins()
        degree = pair_degree("A", completion_magnitudes(anet, "A", {"C": "T"}))
        assert degree == degree_for_query(anet, "A", {"C": "T"})
        assert degree != BeliefDegree(0.0, 0.0)

    @pytest.mark.parametrize(
        "magnitudes, counts",
        [({}, "{}"), ({"T": [], "F": []}, "{'T': 0, 'F': 0}"),
         ({"T": [0.6, 0.8], "F": [0.5]}, "{'T': 2, 'F': 1}")],
        ids=["no outcomes", "no products", "unequal counts"],
    )
    def test_malformed_products_name_the_query(self, magnitudes: dict, counts: str):
        """These used to leak a bare StopIteration or a TypeError from belief_distance."""
        with pytest.raises(ValidationError) as caught:
            pair_degree("A", magnitudes)
        assert str(caught.value) == (
            "query 'A' needs the same positive number of amplitude products for every "
            f"outcome, got {counts}"
        )

    @pytest.mark.parametrize("count", [3, 5, 6, 12])
    def test_a_count_no_binary_network_gives_is_named(self, count: int):
        """Each unobserved binary variable doubles the products per outcome, so any other
        count is malformed input, not a structure with count.bit_length() - 1 variables."""
        magnitudes = {"T": [0.1] * count, "F": [0.2] * count}
        with pytest.raises(ValidationError) as caught:
            pair_degree("A", magnitudes)
        assert type(caught.value) is ValidationError
        assert str(caught.value) == (
            f"query 'A' has {count} amplitude products per outcome, not a power of two"
        )

    @pytest.mark.parametrize("count, unobserved", [(4, 2), (8, 3), (16, 4)])
    def test_power_of_two_counts_keep_the_structure_message(self, count: int, unobserved: int):
        with pytest.raises(UnsupportedStructureError) as caught:
            pair_degree("A", {"T": [0.1] * count, "F": [0.2] * count})
        assert str(caught.value) == (
            f"query 'A' leaves {unobserved} unobserved variables; "
            "the degree heuristic needs at most one"
        )


class TestDegreeForQuery:
    def test_game_degree(self, game_amps: AmplitudeNetwork):
        degree = degree_for_query(game_amps, "P2")
        assert degree.value == pytest.approx(-0.942098356106975, abs=1e-12)
        assert degree.value == pytest.approx(-0.9420, abs=5e-4)
        assert not degree.clamped

    def test_uniform_chain_degree(self):
        assert degree_for_query(_uniform_chain(), "Y").value == -1.0

    def test_servers_with_evidenceless_chain(self):
        anet = amplitudes_from_network(network_from_dict(SERVERS_DOC))
        degree = degree_for_query(anet, "S2")
        assert -1.0 <= degree.value <= 1.0

    def test_zero_unobserved_gives_degree_zero(self, game_amps: AmplitudeNetwork):
        assert degree_for_query(game_amps, "P2", {"P1": "Defect"}) == BeliefDegree(0.0, 0.0)

    def test_checks_query_and_evidence_once(self, unobserved_checks):
        net = load_network(ROOT / "data" / "networks" / "prisoners_average.json")
        degree_for_query(amplitudes_from_network(net), "P2")
        assert unobserved_checks == ["P2"]
