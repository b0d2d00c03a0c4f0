"""Float posteriors against the decimal oracle in conftest.

Both modes run on random binary networks with a random query and evidence; the
quantum-like mode at a random degree in [-1, 1]. A classical posterior sums
products of nonnegative entries, so it stays within a few ulps. A quantum-like
mass u = q + 2dꞏs2 can cancel, so its bound scales with the condition number
kappa of those sums (Higham 2002, "Accuracy and Stability of Numerical
Algorithms", chapter 4).
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    CLAMPING_DOC, binary_net_docs, decimal_from_products, decimal_posterior,
    draw_query_and_evidence, tiny_evidence_doc, ulps,
)
from qlbn.bayesnet import infer, network_from_dict
from qlbn.errors import NegativeUnnormalizedMassError
from qlbn.quantum import amplitudes_from_network, completion_magnitudes, posterior
from qlbn.scenarios import PLAYER_TWO, Scenario, scenario_to_network

# Measured over 60,000 examples: at most 3.15 ulps classical and 7.41ꞏkappa ulps
# quantum-like. Each bound adds a margin.
CLASSICAL_ULPS = 5
QUANTUM_ULPS_PER_KAPPA = 12


@given(doc=binary_net_docs(), data=st.data())
def test_classical_posteriors_are_within_a_few_ulps(doc: dict, data: st.DataObject):
    query, evidence = draw_query_and_evidence([v["name"] for v in doc["variables"]], data)
    exact, _ = decimal_posterior(doc, query, evidence)
    for outcome, p in infer(network_from_dict(doc), query, evidence).items():
        assert ulps(p, exact[outcome]) <= CLASSICAL_ULPS, (outcome, p, exact[outcome])


def within_kappa_ulps(doc: dict, query: str, evidence: dict[str, str], degree: float) -> None:
    """Each quantum-like posterior is within QUANTUM_ULPS_PER_KAPPA ꞏ kappa ulps of
    the oracle's. Where float and decimal disagree on whether any mass survives the
    floor at zero, some mass's sign is inside the bound: kappa is at least 1 / (c ꞏ eps)."""
    exact, kappa = decimal_posterior(doc, query, evidence, degree)
    bound = QUANTUM_ULPS_PER_KAPPA * float(kappa)
    anet = amplitudes_from_network(network_from_dict(doc))
    try:
        result = posterior(query, completion_magnitudes(anet, query, evidence), degree)
    except NegativeUnnormalizedMassError:
        assert exact is None or bound * sys.float_info.epsilon >= 1, (exact, kappa)
        return
    if exact is None:
        assert bound * sys.float_info.epsilon >= 1, kappa
        return
    for om in result.outcomes:
        assert ulps(om.probability, exact[om.outcome]) <= bound, (om, exact[om.outcome], kappa)


@given(doc=binary_net_docs(), degree=st.floats(-1.0, 1.0), data=st.data())
def test_quantum_posteriors_are_within_kappa_ulps(
    doc: dict, degree: float, data: st.DataObject
):
    query, evidence = draw_query_and_evidence([v["name"] for v in doc["variables"]], data)
    within_kappa_ulps(doc, query, evidence, degree)


def test_a_mass_floored_at_zero_leaves_the_others_exact():
    """The floor at zero: B=F's mass is negative at degree -0.5, so B=T's share is 1
    in both float and decimal, and the total excludes the negative mass."""
    exact, _ = decimal_posterior(CLAMPING_DOC, "B", {}, -0.5)
    assert exact == {"T": 1, "F": 0}
    within_kappa_ulps(CLAMPING_DOC, "B", {}, -0.5)


# Queries given evidence below the smallest float, each product squaring to below it:
# A given two children, whose answer is (0.5, 0.5); B, with A free to interfere; and A
# given three children that lean on A.
TINY_EVIDENCE = [
    (tiny_evidence_doc("BC"), "A", {"B": "T", "C": "T"}),
    (tiny_evidence_doc("BCD", given_f=4e-200), "B", {"C": "T", "D": "T"}),
    (tiny_evidence_doc("BCD", given_f=4e-200), "A", {"B": "T", "C": "T", "D": "T"}),
]


@pytest.mark.parametrize("degree", [-1.0, -0.5, 0.0, 0.3, 1.0])
@pytest.mark.parametrize("doc, query, evidence", TINY_EVIDENCE,
                         ids=["two children", "interfering", "three children"])
def test_evidence_below_the_smallest_float_keeps_its_bits(
    doc: dict, query: str, evidence: dict[str, str], degree: float
):
    within_kappa_ulps(doc, query, evidence, degree)


# Each outcome of a game row has two products, and they nearly match when the two
# conditionals do, so q + 2dꞏab cancels to a sliver of q near degree -1.
NEAR_CANCELLING = [0.700001, 0.700000001]
TWO_PRODUCT_ULPS = 4


def game_products(cooperate: float) -> dict[str, list[float]]:
    net = scenario_to_network(Scenario("Near", 0.7, cooperate, 0.5))
    return completion_magnitudes(amplitudes_from_network(net), PLAYER_TWO, {})


@pytest.mark.parametrize("degree", [-1.0, -1.0 + 1e-12, -1.0 + 1e-9, -0.999999])
@pytest.mark.parametrize("cooperate", NEAR_CANCELLING)
def test_a_near_cancelling_two_product_mass_keeps_its_bits(cooperate: float, degree: float):
    """Within a few ulps of the exact posterior of the same float products, though
    kappa reaches 7.8e18; the Decimal.sqrt amplitudes of decimal_posterior differ from
    those products by an ulp each, which this conditioning would amplify past any
    float method's reach."""
    products = game_products(cooperate)
    exact, kappa = decimal_from_products(products, degree)
    assert kappa > 1e6
    for om in posterior(PLAYER_TWO, products, degree).outcomes:
        assert not om.clamped
        assert ulps(om.probability, exact[om.outcome]) <= TWO_PRODUCT_ULPS, (om, exact)


def test_only_unnormalized_carries_the_accurate_mass():
    """Where the sum cancels, classical_part and interference_part keep their rounded
    values, while unnormalized and the probability come from (a - b)^2 + 2(1 + d)ꞏab."""
    products = game_products(NEAR_CANCELLING[0])
    result = posterior(PLAYER_TWO, products, -1.0)
    for om in result.outcomes:
        a, b = products[om.outcome]
        assert om.classical_part == math.fsum([a * a, b * b])
        assert om.interference_part == -2.0 * a * b
        assert om.unnormalized == (a - b) * (a - b)
        assert om.unnormalized != om.classical_part + om.interference_part
        assert om.probability == om.unnormalized * result.normalizer
