"""Belief assignments over a frame of discernment, with Shannon and Deng entropy.

A basic belief assignment (BBA) spreads unit mass over subsets of a finite
frame. Deng entropy generalizes Shannon entropy to such assignments by
weighting each focal set's share against the 2^|A| - 1 nonempty subsets it
could stand for:

    E_d(m) = - sum over focal sets A of  m(A) * log2( m(A) / (2^|A| - 1) )

When every focal set is a singleton the correction term vanishes and E_d
reduces to the Shannon entropy of the singleton masses.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    EmptySetMassError,
    MassOutOfRangeError,
    MassSumMismatchError,
    UnknownElementError,
)

# Tolerance for "masses sum to one" checks throughout the package.
MASS_SUM_TOL = 1e-9

# Canonical focal-set key: labels sorted lexicographically.
FocalSet = tuple[str, ...]


def canonical_subset(labels: Iterable[str] | str) -> FocalSet:
    """Normalize a subset spec (a single label or an iterable of labels) to a sorted tuple."""
    if isinstance(labels, str):
        return (labels,)
    return tuple(sorted(set(labels)))


class _FrameFields(NamedTuple):
    elements: tuple[str, ...]


class Frame(_FrameFields):
    """Frame of discernment: an ordered collection of distinct outcome labels.

    Args:
        elements: the labels, in declaration order. Must be nonempty and unique.
    """

    __slots__ = ()

    def __new__(cls, elements: tuple[str, ...]) -> Frame:
        if not elements:
            raise UnknownElementError("frame must contain at least one element")
        if len(set(elements)) != len(elements):
            raise UnknownElementError(f"frame elements must be unique, got {elements}")
        return _FrameFields.__new__(cls, elements)

    def __contains__(self, label: str) -> bool:
        return label in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    @classmethod
    def _make(cls, iterable) -> Frame:  # the stock one checks len(), which counts labels
        return cls(*iterable)


class BeliefAssignment(NamedTuple):
    """A validated BBA: mass per focal set, empty set excluded, total mass 1.

    Focal-set keys are canonicalized to sorted label tuples so iteration order
    is deterministic. Zero-mass subsets are dropped during validation, which
    makes sparse and dense descriptions of the same assignment compare equal.
    Construct through validate_bba rather than directly.
    """

    frame: Frame
    masses: Mapping[FocalSet, float]

    def is_bayesian(self) -> bool:
        """True when every focal set is a singleton."""
        return all(len(a) == 1 for a in self.masses)

    def singleton_distribution(self) -> "DiscreteDistribution":
        """The masses as a plain distribution; only defined for all-singleton BBAs."""
        if not self.is_bayesian():
            raise MassOutOfRangeError(
                "only an all-singleton assignment maps to a discrete distribution"
            )
        pairs = {a[0]: m for a, m in self.masses.items()}
        labels = tuple(e for e in self.frame.elements if e in pairs)
        return DiscreteDistribution(labels, tuple(pairs[lb] for lb in labels))


def validate_bba(
    raw: Mapping[Iterable[str] | str, float], frame: Frame
) -> BeliefAssignment:
    """Check a raw mass map against the BBA axioms and canonicalize it.

    Rejections: any element outside the frame (UnknownElementError), nonzero
    mass on the empty set (EmptySetMassError), a mass outside [0, 1]
    (MassOutOfRangeError), and a total differing from 1 by more than
    MASS_SUM_TOL (MassSumMismatchError).

    Args:
        raw: subset spec -> mass. A bare string key means a singleton.
        frame: the frame of discernment the subsets must live in.

    Returns:
        The validated BeliefAssignment with sorted-tuple keys, zero masses dropped.
    """
    canonical: dict[FocalSet, float] = {}
    for labels, mass in raw.items():
        subset = canonical_subset(labels)
        for element in subset:
            if element not in frame:
                raise UnknownElementError(
                    f"element {element!r} is not in the frame {frame.elements}"
                )
        if not math.isfinite(mass) or mass < 0.0 or mass > 1.0:
            raise MassOutOfRangeError(f"mass {mass!r} for {subset} is outside [0, 1]")
        if not subset:
            if mass != 0.0:
                raise EmptySetMassError(f"the empty set carries mass {mass!r}")
            continue
        canonical[subset] = canonical.get(subset, 0.0) + mass
    total = math.fsum(canonical.values())
    if abs(total - 1.0) > MASS_SUM_TOL:
        raise MassSumMismatchError(f"masses sum to {total!r}, expected 1")
    ordered = {a: m for a, m in sorted(canonical.items()) if m > 0.0}
    return BeliefAssignment(frame, ordered)


class _DistributionFields(NamedTuple):
    labels: tuple[str, ...]
    probabilities: tuple[float, ...]


class DiscreteDistribution(_DistributionFields):
    """A probability distribution over labeled outcomes.

    Values must lie in [0, 1] and sum to 1 within MASS_SUM_TOL. Lookup is by
    label; items() follows the declared label order.
    """

    __slots__ = ()

    def __new__(
        cls, labels: tuple[str, ...], probabilities: tuple[float, ...]
    ) -> DiscreteDistribution:
        if len(labels) != len(probabilities):
            raise MassSumMismatchError(
                f"{len(labels)} labels but {len(probabilities)} probabilities"
            )
        if len(set(labels)) != len(labels):
            raise MassSumMismatchError(f"duplicate labels in {labels}")
        for label, p in zip(labels, probabilities):
            if not math.isfinite(p) or p < 0.0 or p > 1.0:
                raise MassOutOfRangeError(f"probability {p!r} for {label!r} is outside [0, 1]")
        total = math.fsum(probabilities)
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise MassSumMismatchError(f"probabilities sum to {total!r}, expected 1")
        return _DistributionFields.__new__(cls, labels, probabilities)

    def prob(self, label: str) -> float:
        try:
            return self.probabilities[self.labels.index(label)]
        except ValueError:
            raise UnknownElementError(f"label {label!r} not in {self.labels}") from None

    def items(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.labels, self.probabilities))


def shannon_entropy(dist: DiscreteDistribution) -> float:
    """Shannon entropy in bits, - sum p * log2(p), with 0 * log 0 taken as 0."""
    total = -math.fsum(p * math.log(p, 2.0) for p in dist.probabilities if p > 0.0)
    return total + 0.0  # avoid returning -0.0 for certain distributions


def deng_entropy(bba: BeliefAssignment) -> float:
    """Deng entropy of a belief assignment, in bits.

    Each focal set A contributes -m(A) * log2(m(A) / (2^|A| - 1)); zero-mass
    sets contribute nothing. A certain singleton assignment has entropy 0, and
    an all-singleton assignment reproduces shannon_entropy of its masses.
    """
    total = 0.0
    for subset, mass in bba.masses.items():
        if mass > 0.0:
            total -= mass * math.log2(mass / (2 ** len(subset) - 1))
    return total
