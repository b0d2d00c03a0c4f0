"""Entropy-based replacement for the interference phase term.

The cosine of a phase difference has no geometric derivation in this model,
so the interference degree is computed from the amplitude products instead.
For a query with exactly one unobserved binary variable, each query outcome X
yields a pair (alpha_X, beta_X): the amplitude products with the unobserved
variable in its first and second declared state. Each pair condenses to a
Belief Distance

    B_d = | alpha + (alpha - beta) / |alpha + beta - 1| |

valid when alpha is the argument nearer 0.5 (the arguments swap roles
otherwise: the distance is symmetric). The distances over all query outcomes
then act like masses whose negated Deng entropy is the Belief Degree

    D_b = sum over distances B of  B * log2( B / (2^n - 1) )

with n the number of unobserved variables, clamped into [-1, 1]. The distance
is defined on pairs only, so n = 1, 2^n - 1 = 1 and each term is B * log2(B).
The degree is shared by every outcome of the query, and pair_degree alone
decides it. A query with nothing unobserved has no pairs, so its degree is 0:
with one completion per outcome, every degree gives the same posterior. More
than one unobserved variable is refused with UnsupportedStructureError.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .bayesnet import Assignment, unobserved
from .errors import SingularDenominatorError, UnsupportedStructureError, ValidationError
from .quantum import AmplitudeNetwork, completion_magnitudes

# Below this, |alpha + beta - 1| counts as zero.
SINGULAR_TOL = 1e-12


def weighable_magnitudes(anet: AmplitudeNetwork, query: str, evidence: Assignment) -> dict:
    """completion_magnitudes, refused with UnsupportedStructureError before anything is
    enumerated when the query leaves more than one unobserved variable."""
    if len(anet.net.variables) - len(evidence) > 2:
        # More than one unobserved variable, unless unobserved rejects the evidence.
        _, _, free = unobserved(anet.net, query, evidence)
        names = [anet.net.variables[i].name for i in free]
        raise UnsupportedStructureError(
            f"query {query!r} leaves {len(names)} unobserved variables {names}; "
            "the degree heuristic needs at most one"
        )
    return completion_magnitudes(anet, query, evidence)


def extract_outcome_vectors(
    anet: AmplitudeNetwork, query: str, evidence: Assignment | None = None
) -> dict[str, list[float]]:
    """Each query outcome's vector [alpha, beta], in declared order: its two amplitude
    products, with the unobserved variable in its first and second state. {} with
    nothing unobserved; more than one unobserved raises UnsupportedStructureError."""
    magnitudes = weighable_magnitudes(anet, query, evidence or {})
    return {outcome: mags for outcome, mags in magnitudes.items() if len(mags) == 2}


def belief_distance(alpha: float, beta: float) -> float:
    """Belief Distance of an amplitude-product pair; symmetric in its arguments.

    The argument nearer 0.5 takes the alpha role (ties keep the given order).
    Equal arguments return themselves, including the fully ignorant pair
    (0.5, 0.5) -> 0.5. For alpha != beta with alpha + beta = 1 the denominator
    vanishes and SingularDenominatorError is raised. Results can exceed 1.
    """
    for value in (alpha, beta):
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"amplitude products must lie in [0, 1], got {value!r}")
    if abs(alpha - 0.5) > abs(beta - 0.5):
        alpha, beta = beta, alpha
    denominator = abs(alpha + beta - 1.0)
    if denominator < SINGULAR_TOL:
        if alpha == beta:
            return 0.5
        raise SingularDenominatorError(
            f"|alpha + beta - 1| = {denominator!r} for pair ({alpha!r}, {beta!r})"
        )
    return abs(alpha + (alpha - beta) / denominator)


class BeliefDegree(NamedTuple):
    """An interference degree: raw entropy sum plus the value clamped to [-1, 1]."""

    value: float
    raw: float

    @property
    def clamped(self) -> bool:
        return self.value != self.raw


def belief_degree(distances: Sequence[float]) -> BeliefDegree:
    """Condense Belief Distances into a single signed degree.

    Computes sum of B * log2(B) over the distances (zero distances contribute
    nothing), the Deng form with one unobserved variable, and clamps into
    [-1, 1]. Two distances of 0.5 give exactly -1, total destructive
    interference under ignorance. A distance that is NaN, infinite or negative,
    which belief_distance never returns, raises ValidationError.
    """
    if not distances:
        raise ValidationError("at least one distance is required")
    for b in distances:
        if not 0.0 <= b < math.inf:
            raise ValidationError(f"a Belief Distance is finite and nonnegative, got {b!r}")
    raw = math.fsum([b * math.log2(b) for b in distances if b > 0.0])
    return BeliefDegree(min(1.0, max(-1.0, raw)), raw)


def pair_degree(query: str, magnitudes: Mapping[str, Sequence[float]]) -> BeliefDegree:
    """The degree all outcomes of query share, from their amplitude products (2^n
    each for n unobserved): 0 for one, the distances' degree for two, refused above.
    Raises ValidationError unless every outcome has the same power-of-two number of products."""
    counts = set(map(len, magnitudes.values()))
    if len(counts) != 1 or 0 in counts:
        raise ValidationError(
            f"query {query!r} needs the same positive number of amplitude products for "
            f"every outcome, got {({o: len(m) for o, m in magnitudes.items()})}"
        )
    count = counts.pop()
    if count & (count - 1):  # each unobserved binary variable doubles the count
        raise ValidationError(
            f"query {query!r} has {count} amplitude products per outcome, not a power of two"
        )
    if count > 2:
        raise UnsupportedStructureError(
            f"query {query!r} leaves {count.bit_length() - 1} unobserved variables; "
            "the degree heuristic needs at most one"
        )
    if count == 1:
        return BeliefDegree(0.0, 0.0)
    return belief_degree([belief_distance(*mags) for mags in magnitudes.values()])


def degree_for_query(
    anet: AmplitudeNetwork, query: str, evidence: Assignment | None = None
) -> BeliefDegree:
    """The full chain: amplitude products -> distances -> degree, shared by all outcomes."""
    return pair_degree(query, weighable_magnitudes(anet, query, evidence or {}))
