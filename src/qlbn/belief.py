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

from .errors import ValidationError, parse_number

# Tolerance for "masses sum to one" checks throughout the package.
MASS_SUM_TOL = 1e-9

# Canonical focal-set key: labels sorted lexicographically.
FocalSet = tuple[str, ...]


def canonical_subset(labels: Iterable[str] | str) -> FocalSet:
    """Normalize a subset spec (a single label or an iterable of labels) to a sorted tuple."""
    if isinstance(labels, str):
        return (labels,)
    return tuple(sorted(set(labels)))


def _frame(labels: Iterable[str]) -> tuple[str, ...]:
    """The labels as a frame of discernment: nonempty, unique, in declaration order."""
    frame = tuple(labels)
    if not frame:
        raise ValidationError("frame must contain at least one element")
    if len(set(frame)) != len(frame):
        raise ValidationError(f"frame elements must be unique, got {frame}")
    return frame


class _AssignmentFields(NamedTuple):
    frame: tuple[str, ...]
    masses: Mapping[FocalSet, float]


class BeliefAssignment(_AssignmentFields):
    """A basic belief assignment: mass per focal set of a frame, total mass 1.

    frame is the frame of discernment, nonempty labels without repeats. masses
    maps a subset spec (a bare string means a singleton) to its mass, and specs
    naming one set add up. Each mass is a number or a decimal string, stored as a
    float. Any element outside the frame, a bool or other non-number mass, nonzero
    mass on the empty set, a mass outside [0, 1] or a total off 1 by more than
    MASS_SUM_TOL raises ValidationError. Keys become sorted label tuples, in sorted
    order, and zero masses are dropped, so sparse and dense spellings compare equal.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks copies too

    def __new__(
        cls, frame: Iterable[str], masses: Mapping[Iterable[str] | str, float]
    ) -> BeliefAssignment:
        frame = _frame(frame)
        canonical: dict[FocalSet, float] = {}
        for labels, mass in masses.items():
            subset = canonical_subset(labels)
            for element in subset:
                if element not in frame:
                    raise ValidationError(f"element {element!r} is not in the frame {frame}")
            mass = parse_number(mass)
            if not 0.0 <= mass <= 1.0:
                raise ValidationError(f"mass {mass!r} for {subset} is outside [0, 1]")
            if not subset:
                if mass != 0.0:
                    raise ValidationError(f"the empty set carries mass {mass!r}")
                continue
            canonical[subset] = canonical.get(subset, 0.0) + mass
        total = math.fsum(canonical.values())
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValidationError(f"masses sum to {total!r}, expected 1")
        ordered = {a: m for a, m in sorted(canonical.items()) if m > 0.0}
        return _AssignmentFields.__new__(cls, frame, ordered)

    def is_bayesian(self) -> bool:
        """True when every focal set is a singleton."""
        return all(len(a) == 1 for a in self.masses)

    def singleton_distribution(self) -> "DiscreteDistribution":
        """The masses as a plain distribution; only defined for all-singleton BBAs."""
        if not self.is_bayesian():
            raise ValidationError(
                "only an all-singleton assignment maps to a discrete distribution"
            )
        pairs = {a[0]: m for a, m in self.masses.items()}
        labels = tuple(e for e in self.frame if e in pairs)
        return DiscreteDistribution(labels, tuple(pairs[lb] for lb in labels))


def bba_from_json(doc: object) -> BeliefAssignment:
    """The assignment in a parsed belief-assignment file, which is JSON like
        {"frame": ["a", "b", "c"], "masses": {"a": 0.5, "b,c": 0.5}}
    where the frame is a list, checked before any mass is parsed; each mass key
    joins the focal set's labels with commas ("a,b" and "b, a" spell one set, whose
    masses add) and values are numbers or decimal strings, never booleans. Read one
    with errors.read_json(path, bba_from_json), which names the path in every error.
    """
    if not isinstance(doc, dict) or "frame" not in doc or "masses" not in doc:
        raise ValidationError("expected an object with 'frame' and 'masses'")
    elements = doc["frame"]
    if not isinstance(elements, list):
        raise ValidationError(f"the frame needs a list of labels, got {elements!r}")
    frame = _frame(str(e) for e in elements)
    raw: dict[FocalSet, float] = {}
    for key, value in doc["masses"].items():
        labels = tuple(part.strip() for part in str(key).split(",") if part.strip())
        try:
            mass = parse_number(value)
        except ValidationError:
            raise ValidationError(f"mass {value!r} for {key!r} is not a number") from None
        raw[labels] = raw.get(labels, 0.0) + mass
    return BeliefAssignment(frame, raw)


class _DistributionFields(NamedTuple):
    labels: tuple[str, ...]
    probabilities: tuple[float, ...]


class DiscreteDistribution(_DistributionFields):
    """A probability distribution over labeled outcomes.

    Values are numbers or decimal strings, never bools, stored as floats; they
    must lie in [0, 1] and sum to 1 within MASS_SUM_TOL. Lookup is by label;
    items() follows the declared label order.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks copies too

    def __new__(
        cls, labels: tuple[str, ...], probabilities: tuple[float, ...]
    ) -> DiscreteDistribution:
        if len(labels) != len(probabilities):
            raise ValidationError(
                f"{len(labels)} labels but {len(probabilities)} probabilities"
            )
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate labels in {labels}")
        probabilities = tuple([parse_number(p) for p in probabilities])
        for label, p in zip(labels, probabilities):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"probability {p!r} for {label!r} is outside [0, 1]")
        total = math.fsum(probabilities)
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1")
        return _DistributionFields.__new__(cls, labels, probabilities)

    def prob(self, label: str) -> float:
        try:
            return self.probabilities[self.labels.index(label)]
        except ValueError:
            raise ValidationError(f"label {label!r} not in {self.labels}") from None

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
            # log2 reads the integer 2^|A| - 1 whole; as a float it overflows from |A| = 1024
            total -= mass * (math.log2(mass) - math.log2(2 ** len(subset) - 1))
    return total
