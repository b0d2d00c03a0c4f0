"""Belief assignments, distributions, and the two entropy measures."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlbn.belief import (
    BeliefAssignment,
    DiscreteDistribution,
    Frame,
    canonical_subset,
    deng_entropy,
    shannon_entropy,
    validate_bba,
)
from qlbn.errors import (
    EmptySetMassError,
    MassOutOfRangeError,
    MassSumMismatchError,
    UnknownElementError,
)

ABC = Frame(("a", "b", "c"))
BBA_DIR = Path(__file__).resolve().parent.parent / "data" / "bba"

# repr of shannon_entropy, bit for bit, over each bundled belief-assignment
# file's masses read as a distribution over its focal sets, and over one
# four-outcome distribution.
SHANNON_REPRS = {
    "single_certain.json": "0.0",
    "split_pair.json": "1.0",
}
FOUR_OUTCOME_REPR = "1.8464393446710154"


@st.composite
def singleton_bbas(draw: st.DrawFn) -> BeliefAssignment:
    """A Bayesian BBA: singleton focal sets with normalized random weights."""
    n = draw(st.integers(min_value=2, max_value=6))
    weights = draw(
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
    )
    total = math.fsum(weights)
    labels = [f"e{i}" for i in range(n)]
    frame = Frame(tuple(labels))
    return validate_bba({lb: w / total for lb, w in zip(labels, weights)}, frame)


@st.composite
def general_bbas(draw: st.DrawFn) -> BeliefAssignment:
    """A BBA whose focal sets may be any nonempty subsets of the frame."""
    n = draw(st.integers(min_value=2, max_value=4))
    labels = [f"e{i}" for i in range(n)]
    subsets = [
        tuple(lb for j, lb in enumerate(labels) if mask >> j & 1)
        for mask in range(1, 2**n)
    ]
    chosen = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=5, unique=True))
    weights = draw(
        st.lists(st.floats(0.01, 1.0), min_size=len(chosen), max_size=len(chosen))
    )
    total = math.fsum(weights)
    frame = Frame(tuple(labels))
    return validate_bba(
        {s: w / total for s, w in zip(chosen, weights)}, frame
    )


class TestCanonicalSubset:
    def test_string_becomes_singleton(self):
        assert canonical_subset("b") == ("b",)

    def test_iterable_is_sorted_and_deduped(self):
        assert canonical_subset(["c", "a", "c"]) == ("a", "c")


class TestFrame:
    def test_holds_elements_in_order(self):
        assert ABC.elements == ("a", "b", "c")
        assert "b" in ABC
        assert len(ABC) == 3

    def test_rejects_duplicates(self):
        with pytest.raises(UnknownElementError, match="unique"):
            Frame(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(UnknownElementError, match="at least one"):
            Frame(())


class TestValidateBBA:
    def test_accepts_split_assignment(self):
        bba = validate_bba({"a": 0.5, ("b", "c"): 0.5}, ABC)
        assert tuple(bba.masses) == (("a",), ("b", "c"))
        assert bba.masses[("a",)] == 0.5
        assert bba.masses[("b", "c")] == 0.5

    def test_merges_duplicate_subsets(self):
        bba = validate_bba({("b", "c"): 0.3, ("c", "b"): 0.2, "a": 0.5}, ABC)
        assert bba.masses[("b", "c")] == pytest.approx(0.5)

    def test_drops_zero_masses(self):
        sparse = validate_bba({"a": 1.0}, ABC)
        dense = validate_bba({"a": 1.0, "b": 0.0, ("b", "c"): 0.0}, ABC)
        assert sparse == dense

    def test_zero_mass_on_empty_set_is_ignored(self):
        bba = validate_bba({(): 0.0, "a": 1.0}, ABC)
        assert tuple(bba.masses) == (("a",),)

    def test_rejects_mass_on_empty_set(self):
        with pytest.raises(EmptySetMassError, match="empty set"):
            validate_bba({(): 0.1, "a": 0.9}, ABC)

    def test_rejects_unknown_element(self):
        with pytest.raises(UnknownElementError, match="'d'"):
            validate_bba({("a", "d"): 1.0}, ABC)

    def test_rejects_negative_mass(self):
        with pytest.raises(MassOutOfRangeError):
            validate_bba({"a": -0.1, "b": 1.1}, ABC)

    def test_rejects_mass_above_one(self):
        with pytest.raises(MassOutOfRangeError):
            validate_bba({"a": 1.2}, ABC)

    def test_rejects_bad_total(self):
        with pytest.raises(MassSumMismatchError, match="sum to"):
            validate_bba({"a": 0.5, "b": 0.4}, ABC)

    def test_total_tolerance_boundary(self):
        validate_bba({"a": 0.5, "b": 0.5 + 5e-10}, ABC)
        with pytest.raises(MassSumMismatchError):
            validate_bba({"a": 0.5, "b": 0.5 + 2e-9}, ABC)

    def test_is_bayesian(self):
        assert validate_bba({"a": 0.4, "b": 0.6}, ABC).is_bayesian()
        assert not validate_bba({"a": 0.5, ("b", "c"): 0.5}, ABC).is_bayesian()

    def test_singleton_distribution_follows_frame_order(self):
        bba = validate_bba({"c": 0.7, "a": 0.3}, ABC)
        assert bba.singleton_distribution().items() == (("a", 0.3), ("c", 0.7))

    def test_singleton_distribution_requires_bayesian(self):
        bba = validate_bba({("a", "b"): 1.0}, ABC)
        with pytest.raises(MassOutOfRangeError, match="all-singleton"):
            bba.singleton_distribution()


class TestDiscreteDistribution:
    def test_lookup_and_iteration(self):
        dist = DiscreteDistribution(("x", "y"), (0.25, 0.75))
        assert dist.prob("y") == 0.75
        assert dict(dist.items()) == {"x": 0.25, "y": 0.75}

    def test_unknown_label(self):
        dist = DiscreteDistribution(("x", "y"), (0.25, 0.75))
        with pytest.raises(UnknownElementError, match="'z'"):
            dist.prob("z")

    def test_rejects_length_mismatch(self):
        with pytest.raises(MassSumMismatchError, match="labels"):
            DiscreteDistribution(("x", "y"), (1.0,))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(MassSumMismatchError, match="duplicate"):
            DiscreteDistribution(("x", "x"), (0.5, 0.5))

    def test_rejects_out_of_range(self):
        with pytest.raises(MassOutOfRangeError):
            DiscreteDistribution(("x", "y"), (-0.1, 1.1))

    def test_rejects_bad_total(self):
        with pytest.raises(MassSumMismatchError, match="sum to"):
            DiscreteDistribution(("x", "y"), (0.5, 0.4))


class TestShannonEntropy:
    def test_uniform_binary_is_one_bit(self):
        assert shannon_entropy(DiscreteDistribution(("x", "y"), (0.5, 0.5))) == 1.0

    def test_certain_outcome_is_exactly_zero(self):
        h = shannon_entropy(DiscreteDistribution(("x", "y"), (1.0, 0.0)))
        assert h == 0.0
        assert math.copysign(1.0, h) == 1.0  # not -0.0

    def test_example_weights(self):
        dist = DiscreteDistribution(("x", "y"), (0.25, 0.75))
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert shannon_entropy(dist) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("name", sorted(SHANNON_REPRS))
    def test_bundled_files_keep_their_bits(self, name: str):
        masses = json.loads((BBA_DIR / name).read_text())["masses"]
        dist = DiscreteDistribution(tuple(masses), tuple(map(float, masses.values())))
        assert repr(shannon_entropy(dist)) == SHANNON_REPRS[name]

    def test_four_outcomes_keep_their_bits(self):
        dist = DiscreteDistribution(("a", "b", "c", "d"), (0.1, 0.2, 0.3, 0.4))
        assert repr(shannon_entropy(dist)) == FOUR_OUTCOME_REPR

    @given(singleton_bbas())
    def test_bounded_by_log_of_support(self, bba: BeliefAssignment):
        """0 <= H <= log2(n) for every distribution on n outcomes."""
        dist = bba.singleton_distribution()
        h = shannon_entropy(dist)
        assert 0.0 <= h <= math.log2(len(dist.labels)) + 1e-9


class TestDengEntropy:
    def test_certain_singleton_is_zero(self):
        assert deng_entropy(validate_bba({"a": 1.0}, ABC)) == 0.0

    def test_split_assignment_value(self):
        """m(a)=0.5, m({b,c})=0.5 gives 0.5 + 0.5*log2(6) bits."""
        bba = validate_bba({"a": 0.5, ("b", "c"): 0.5}, ABC)
        assert deng_entropy(bba) == pytest.approx(1.792481250360578, abs=1e-12)
        assert deng_entropy(bba) == pytest.approx(0.5 + 0.5 * math.log2(6), abs=1e-12)

    def test_multi_element_sets_raise_entropy(self):
        narrow = validate_bba({"a": 0.5, "b": 0.5}, ABC)
        wide = validate_bba({"a": 0.5, ("b", "c"): 0.5}, ABC)
        assert deng_entropy(wide) > deng_entropy(narrow)

    @given(singleton_bbas())
    def test_reduces_to_shannon_on_singletons(self, bba: BeliefAssignment):
        """With only singleton focal sets the set-size correction vanishes."""
        expected = shannon_entropy(bba.singleton_distribution())
        assert deng_entropy(bba) == pytest.approx(expected, abs=1e-12)

    @given(general_bbas())
    def test_matches_direct_formula(self, bba: BeliefAssignment):
        """Spot-check against a literal transcription of the sum."""
        expected = -math.fsum(
            m * math.log2(m / (2 ** len(s) - 1)) for s, m in bba.masses.items()
        )
        assert deng_entropy(bba) == pytest.approx(expected, abs=1e-12)

    @given(general_bbas())
    def test_invariant_under_relabeling(self, bba: BeliefAssignment):
        """Entropy depends on masses and set sizes, not on the label names."""
        mapping = {lb: f"r{lb}" for lb in bba.frame.elements}
        frame = Frame(tuple(mapping[lb] for lb in bba.frame.elements))
        renamed = validate_bba(
            {tuple(mapping[lb] for lb in s): m for s, m in bba.masses.items()}, frame
        )
        assert deng_entropy(renamed) == pytest.approx(deng_entropy(bba), abs=1e-12)
