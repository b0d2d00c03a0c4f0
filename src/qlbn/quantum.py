"""Quantum-like inference over binary networks via amplitude products.

Each CPT entry p is replaced by the real amplitude sqrt(p); a full assignment
then has amplitude equal to the product of entries and probability equal to
its square, which reproduces the classical joint. Marginalizing a query
outcome over the completions of the unobserved variables adds an interference
term on top of the classical sum:

    unnormalized(x) = sum_i m_i^2  +  2 * degree(x) * sum_{i<j} m_i * m_j

where m_i is the amplitude product of completion i. The degree stands in for
the phase-difference cosine, which this model never represents explicitly;
callers supply it per query outcome (see the heuristic module for the
entropy-based choice). Posteriors divide by the total unnormalized mass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .bayesnet import Assignment, Network, completions, infer
from .belief import DiscreteDistribution
from .errors import (
    IncompleteAssignmentError,
    NegativeUnnormalizedMassError,
    NonBinaryVariableError,
    QueryInEvidenceError,
    UnknownVariableError,
)

# A degree is a plain scalar, expected in [-1, 1]; values outside that range
# model nothing and tend to end in NegativeUnnormalizedMassError.
InterferenceDegree = float

DegreeSource = InterferenceDegree | Callable[[str], InterferenceDegree]


@dataclass(frozen=True)
class AmplitudeNetwork:
    """A binary network plus one nonnegative amplitude table per variable.

    amplitudes mirrors the CPT layout: variable name -> {parent outcome
    combination -> amplitudes aligned with the variable's outcome order}.
    Each row satisfies sum of squares = 1 because the underlying CPT row sums
    to 1. Build through amplitudes_from_network.
    """

    net: Network
    amplitudes: dict[str, dict[tuple[str, ...], tuple[float, ...]]]

    def amplitude(self, name: str, assignment: Assignment) -> float:
        key = tuple(assignment[p] for p in self.net.parents.get(name, ()))
        row = self.amplitudes[name][key]
        return row[self.net.outcomes(name).index(assignment[name])]


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
    tables: dict[str, dict[tuple[str, ...], tuple[float, ...]]] = {}
    for v in net.variables:
        tables[v.name] = {
            key: tuple(math.sqrt(dist.prob(o)) for o in v.outcomes)
            for key, dist in net.cpts[v.name].items()
        }
    return AmplitudeNetwork(net, tables)


def amplitude_product(anet: AmplitudeNetwork, assignment: Assignment) -> float:
    """Product of per-variable amplitudes for a complete assignment."""
    missing = [n for n in anet.net.names() if n not in assignment]
    if missing:
        raise IncompleteAssignmentError(f"assignment misses variables {missing}")
    product = 1.0
    for name in anet.net.names():
        product *= anet.amplitude(name, assignment)
    return product


def quantum_full_joint(anet: AmplitudeNetwork, assignment: Assignment) -> float:
    """Squared amplitude product; agrees with the classical full joint."""
    return amplitude_product(anet, assignment) ** 2


def interference_sum(magnitudes: Sequence[float], degree: InterferenceDegree) -> float:
    """2 * degree * sum of pairwise magnitude products; zero for fewer than two terms."""
    return 2.0 * degree * math.fsum(
        a * b for a, b in itertools.combinations(magnitudes, 2)
    )


@dataclass(frozen=True)
class OutcomeMass:
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


@dataclass(frozen=True)
class QuantumInferenceResult:
    """Posterior for one query: per-outcome masses plus the normalizer 1/total."""

    query: str
    outcomes: tuple[OutcomeMass, ...]
    normalizer: float

    def probability(self, outcome: str) -> float:
        for om in self.outcomes:
            if om.outcome == outcome:
                return om.probability
        raise UnknownVariableError(f"{outcome!r} is not an outcome of {self.query!r}")

    def distribution(self) -> DiscreteDistribution:
        return DiscreteDistribution(
            tuple(om.outcome for om in self.outcomes),
            tuple(om.probability for om in self.outcomes),
        )

    def any_clamped(self) -> bool:
        return any(om.clamped for om in self.outcomes)

    def to_dict(self) -> dict:
        """Plain-data form carrying every field, for JSON output and reports."""
        return {
            "query": self.query,
            "normalizer": self.normalizer,
            "outcomes": [
                {
                    "outcome": om.outcome,
                    "classical_part": om.classical_part,
                    "interference_part": om.interference_part,
                    "unnormalized": om.unnormalized,
                    "clamped": om.clamped,
                    "probability": om.probability,
                }
                for om in self.outcomes
            ],
        }


def completion_magnitudes(
    anet: AmplitudeNetwork, query: str, evidence: Assignment
) -> dict[str, list[float]]:
    """Amplitude products per query outcome, one per unobserved-variable completion.

    Completions iterate in the declared outcome order of each unobserved
    variable, so magnitude lists are deterministic.
    """
    net = anet.net
    if query in evidence:
        raise QueryInEvidenceError(f"query {query!r} already appears in the evidence")
    net.variable(query)
    for name, outcome in evidence.items():
        if outcome not in net.outcomes(name):
            raise UnknownVariableError(
                f"{outcome!r} is not an outcome of {name!r} {net.outcomes(name)}"
            )
    free = tuple(n for n in net.names() if n != query and n not in evidence)
    result: dict[str, list[float]] = {}
    for outcome in net.outcomes(query):
        fixed = dict(evidence)
        fixed[query] = outcome
        result[outcome] = [
            amplitude_product(anet, a) for a in completions(net, fixed, free)
        ]
    return result


def quantum_infer(
    anet: AmplitudeNetwork,
    query: str,
    evidence: Assignment,
    degree_source: DegreeSource,
) -> QuantumInferenceResult:
    """Interference-aware posterior of `query` given `evidence`.

    Args:
        anet: the amplitude network.
        query: name of the (binary) query variable.
        evidence: observed variable -> outcome; must not include the query.
        degree_source: a scalar applied to every query outcome, or a callable
            mapping each outcome label to its own degree.

    With every degree 0 the posterior matches classical enumeration; with no
    unobserved variables there are no interference pairs at all, so the result
    is the classical one regardless of the degrees. Negative unnormalized
    masses are floored to zero and flagged; if that leaves no mass anywhere,
    NegativeUnnormalizedMassError is raised.
    """
    magnitudes = completion_magnitudes(anet, query, evidence)
    masses: list[OutcomeMass] = []
    for outcome, mags in magnitudes.items():
        degree = degree_source(outcome) if callable(degree_source) else degree_source
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
        OutcomeMass(
            om.outcome,
            om.classical_part,
            om.interference_part,
            om.unnormalized,
            om.clamped,
            0.0 if om.clamped else om.unnormalized * normalizer,
        )
        for om in masses
    )
    return QuantumInferenceResult(query, final, normalizer)


def classical_equivalent(
    anet: AmplitudeNetwork, query: str, evidence: Assignment
) -> DiscreteDistribution:
    """Classical posterior on the underlying network; the degree-zero reference."""
    return infer(anet.net, query, evidence)
