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
    InconsistentEvidenceError,
    NegativeUnnormalizedMassError,
    ValidationError,
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
    quantum_infer. Raises ValidationError unless every variable has
    exactly two outcomes.
    """
    for v in net.variables:
        if len(v.outcomes) != 2:
            raise ValidationError(
                f"variable {v.name!r} has {len(v.outcomes)} outcomes; amplitude "
                "networks answer only two-outcome questions"
            )
    amplitudes = []
    for get, values in net.table:
        roots = {}
        for key, p in values.items():
            roots[key] = math.sqrt(p)
        amplitudes.append((get, roots))
    return AmplitudeNetwork(net, tuple(amplitudes))


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
        raise ValidationError(f"{outcome!r} is not an outcome of {self.query!r}")

    def to_dict(self) -> dict:
        """Plain-data form carrying every field, for JSON output and reports. A
        normalizer with no finite value, for a total below 2**-1024, is None, so
        the JSON form stays valid."""
        return {
            "query": self.query,
            "normalizer": self.normalizer if self.normalizer < math.inf else None,
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
    completion_magnitudes returns them, at one degree in [-1, 1] for every outcome;
    any other degree, NaN included, raises ValidationError. Negative unnormalized
    masses are floored to zero and flagged; if that leaves no mass anywhere,
    NegativeUnnormalizedMassError is raised, naming the feasible bound: the largest
    -q / (2ꞏs2) over the outcomes, with q the sum of squared products and s2 the sum
    of their pairwise products. When every classical part is zero,
    InconsistentEvidenceError is raised instead: the evidence has probability zero.
    No outcomes, or an outcome with no products, raises ValidationError."""
    if not -1.0 <= degree <= 1.0:
        raise ValidationError(f"degree {degree!r} is outside [-1, 1]")
    if not magnitudes:
        raise ValidationError(f"query {query!r} has no outcomes")
    parts = []
    for outcome, mags in magnitudes.items():
        if not mags:
            raise ValidationError(
                f"outcome {outcome!r} of query {query!r} has no amplitude products"
            )
        classical = math.fsum([m * m for m in mags])
        # At degree 1/2 this is s2 itself; 2ꞏdegreeꞏs2 + 0.0 is interference_sum(mags, degree).
        s2 = interference_sum(mags, 0.5)
        interference = 2.0 * degree * s2 + 0.0
        parts.append((outcome, classical, interference, classical + interference, s2))
    total = math.fsum([0.0 if u < 0.0 else u for _, _, _, u, _ in parts])
    if total <= 0.0:
        if not any([c for _, c, _, _, _ in parts]):
            raise InconsistentEvidenceError(
                f"the evidence has probability zero, so query {query!r} has no posterior"
            )
        # An outcome with classical mass lost it to negative interference, so it has
        # a pair sum s2 > 0.
        bound = max([-c / (2.0 * s2) for _, c, _, _, s2 in parts if s2 > 0.0])
        raise NegativeUnnormalizedMassError(
            f"interference cancelled all mass for query {query!r} "
            f"(unnormalized {[u for _, _, _, u, _ in parts]}); "
            f"the degree's feasible bound is {bound!r}"
        )
    normalizer = 1.0 / total
    # A total below 2**-1024 has no finite reciprocal, so its shares divide by it instead.
    finite = normalizer < math.inf
    masses = tuple([OutcomeMass(o, c, i, u, u < 0.0,
                                0.0 if u < 0.0 else u * normalizer if finite else u / total)
                    for o, c, i, u, _ in parts])
    return QuantumInferenceResult(query, masses, normalizer)
