"""Quantum-like inference over binary networks via amplitude products.

Each CPT entry p is replaced by the real amplitude sqrt(p); a full assignment
then has amplitude equal to the product of entries and probability equal to
its square, which reproduces the classical joint. Marginalizing a query
outcome over the completions of the unobserved variables adds an interference
term on top of the classical sum:

    unnormalized(x) = sum_i m_i^2  +  2 * degree(x) * sum_{i<j} m_i * m_j

where m_i is the amplitude product of completion i. The degree stands in for
the phase-difference cosine, which this model never represents explicitly;
callers supply one degree for every outcome of the query (see the heuristic
module for the entropy-based choice). Posteriors divide by the total
unnormalized mass.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .bayesnet import (
    Assignment,
    Network,
    ValueTable,
    check_complete,
    completion_products,
    table_product,
)
from .errors import (
    NegativeUnnormalizedMassError,
    NonBinaryVariableError,
    UnknownVariableError,
)


class AmplitudeNetwork(NamedTuple):
    """A binary network plus one nonnegative amplitude table per variable.

    amplitudes is a value table (see bayesnet) of square roots: one factor per
    variable, in declared order, mapping the variable's family labels to
    sqrt(p). The amplitudes of one CPT row have a sum of squares of 1 because
    the row sums to 1. Build through amplitudes_from_network.
    """

    net: Network
    amplitudes: ValueTable


def amplitudes_from_network(net: Network) -> AmplitudeNetwork:
    """Take elementwise square roots of every CPT row.

    Phases are deliberately not represented: amplitudes are the nonnegative
    roots, and interference enters only through the degree passed to
    quantum_infer. Raises NonBinaryVariableError unless every variable has
    exactly two outcomes.
    """
    for v in net.variables:
        if len(v.outcomes) != 2:
            raise NonBinaryVariableError(
                f"variable {v.name!r} has {len(v.outcomes)} outcomes; amplitude "
                "networks answer only two-outcome questions"
            )
    amplitudes = tuple(
        (get, dict(zip(values, map(math.sqrt, values.values())))) for get, values in net.table
    )
    return AmplitudeNetwork(net, amplitudes)


def amplitude_product(anet: AmplitudeNetwork, assignment: Assignment) -> float:
    """Product of per-variable amplitudes for a complete assignment."""
    return table_product(anet.amplitudes, check_complete(anet.net, assignment))


def interference_sum(magnitudes: Sequence[float], degree: float) -> float:
    """2 * degree * sum of pairwise magnitude products; +0.0 for fewer than two terms.

    The pairs are summed in linear time as sum_j m_j * (m_0 + ... + m_{j-1}).
    Every term is nonnegative, so fsum over them loses nothing to cancellation,
    unlike ((sum m)^2 - sum m^2) / 2. Adding 0.0 turns the -0.0 of a negative
    degree times an empty sum into 0.0 and changes no other value.
    """
    terms, prefix = [], 0.0
    for m in magnitudes:
        terms.append(m * prefix)
        prefix += m
    return 2.0 * degree * math.fsum(terms) + 0.0


class OutcomeMass(NamedTuple):
    """Per-outcome pieces of a quantum-like posterior.

    unnormalized is classical_part + interference_part exactly; clamped marks
    a negative unnormalized mass that was floored to zero before normalizing.
    """

    outcome: str
    classical_part: float
    interference_part: float
    unnormalized: float
    clamped: bool
    probability: float


class QuantumInferenceResult(NamedTuple):
    """Posterior for one query: per-outcome masses plus the normalizer 1/total."""

    query: str
    outcomes: tuple[OutcomeMass, ...]
    normalizer: float

    def probability(self, outcome: str) -> float:
        for om in self.outcomes:
            if om.outcome == outcome:
                return om.probability
        raise UnknownVariableError(f"{outcome!r} is not an outcome of {self.query!r}")

    def to_dict(self) -> dict:
        """Plain-data form carrying every field, for JSON output and reports."""
        return {
            "query": self.query,
            "normalizer": self.normalizer,
            "outcomes": [om._asdict() for om in self.outcomes],
        }


def completion_magnitudes(
    anet: AmplitudeNetwork, query: str, evidence: Assignment
) -> dict[str, list[float]]:
    """Amplitude products per query outcome, one per unobserved-variable completion."""
    return completion_products(anet.net, anet.amplitudes, query, evidence)


def quantum_infer(
    anet: AmplitudeNetwork,
    query: str,
    evidence: Assignment,
    degree: float,
) -> QuantumInferenceResult:
    """Interference-aware posterior of the binary `query` given `evidence`, which
    must not include the query: the posterior over its completion_magnitudes. With
    no unobserved variables there are no interference pairs, so the result is the
    classical one regardless of the degree; with degree 0 it matches classical
    enumeration."""
    return posterior(query, completion_magnitudes(anet, query, evidence), degree)


def posterior(
    query: str, magnitudes: Mapping[str, Sequence[float]], degree: float
) -> QuantumInferenceResult:
    """The posterior of `query` from its amplitude products per outcome, as
    completion_magnitudes returns them, at one degree in [-1, 1] for every outcome.
    Negative unnormalized masses are floored to zero and flagged; if that leaves no
    mass anywhere, as a degree outside [-1, 1] tends to do,
    NegativeUnnormalizedMassError is raised."""
    masses: list[OutcomeMass] = []
    for outcome, mags in magnitudes.items():
        classical = math.fsum(m * m for m in mags)
        interference = interference_sum(mags, degree)
        unnormalized = classical + interference
        clamped = unnormalized < 0.0
        masses.append(
            OutcomeMass(outcome, classical, interference, unnormalized, clamped, math.nan)
        )
    total = math.fsum(0.0 if om.clamped else om.unnormalized for om in masses)
    if total <= 0.0:
        raise NegativeUnnormalizedMassError(
            f"interference cancelled all mass for query {query!r} "
            f"(unnormalized {[om.unnormalized for om in masses]})"
        )
    normalizer = 1.0 / total
    final = tuple(
        om._replace(probability=0.0 if om.clamped else om.unnormalized * normalizer)
        for om in masses
    )
    return QuantumInferenceResult(query, final, normalizer)
