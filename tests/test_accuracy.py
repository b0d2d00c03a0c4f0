"""Float posteriors against the decimal oracle in conftest.

Both modes run on random binary networks with a random query and evidence; the
quantum-like mode at a random degree in [-1, 1]. A classical posterior sums
products of nonnegative entries, so it stays within a few ulps. A quantum-like
mass u = q + 2dꞏs2 can cancel, so its bound scales with the condition number
kappa of those sums (Higham 2002, "Accuracy and Stability of Numerical
Algorithms", chapter 4).
"""

from __future__ import annotations

import sys

from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    CLAMPING_DOC, binary_net_docs, decimal_posterior, draw_query_and_evidence, ulps,
)
from qlbn.bayesnet import infer, network_from_dict
from qlbn.errors import NegativeUnnormalizedMassError
from qlbn.quantum import amplitudes_from_network, completion_magnitudes, posterior

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
