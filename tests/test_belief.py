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
    canonical_subset,
    deng_entropy,
    shannon_entropy,
)
from qlbn.errors import ValidationError

ABC = ("a", "b", "c")
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
    return BeliefAssignment(labels, {lb: w / total for lb, w in zip(labels, weights)})


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
    return BeliefAssignment(labels, {s: w / total for s, w in zip(chosen, weights)})


class TestCanonicalSubset:
    def test_string_becomes_singleton(self):
        assert canonical_subset("b") == ("b",)

    def test_iterable_is_sorted_and_deduped(self):
        assert canonical_subset(["c", "a", "c"]) == ("a", "c")


class TestFrame:
    def test_holds_elements_in_order(self):
        bba = BeliefAssignment(["c", "a", "b"], {"a": 1.0})
        assert bba.frame == ("c", "a", "b")

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError) as caught:
            BeliefAssignment(("a", "a"), {"a": 1.0})
        assert str(caught.value) == "frame elements must be unique, got ('a', 'a')"

    def test_rejects_empty(self):
        with pytest.raises(ValidationError) as caught:
            BeliefAssignment((), {})
        assert str(caught.value) == "frame must contain at least one element"


class TestValidateBBA:
    def test_accepts_split_assignment(self):
        bba = BeliefAssignment(ABC, {"a": 0.5, ("b", "c"): 0.5})
        assert tuple(bba.masses) == (("a",), ("b", "c"))
        assert bba.masses[("a",)] == 0.5
        assert bba.masses[("b", "c")] == 0.5

    def test_merges_duplicate_subsets(self):
        bba = BeliefAssignment(ABC, {("b", "c"): 0.3, ("c", "b"): 0.2, "a": 0.5})
        assert bba.masses[("b", "c")] == pytest.approx(0.5)

    def test_drops_zero_masses(self):
        sparse = BeliefAssignment(ABC, {"a": 1.0})
        dense = BeliefAssignment(ABC, {"a": 1.0, "b": 0.0, ("b", "c"): 0.0})
        assert sparse == dense

    def test_zero_mass_on_empty_set_is_ignored(self):
        bba = BeliefAssignment(ABC, {(): 0.0, "a": 1.0})
        assert tuple(bba.masses) == (("a",),)

    def test_rejects_mass_on_empty_set(self):
        with pytest.raises(ValidationError, match="empty set"):
            BeliefAssignment(ABC, {(): 0.1, "a": 0.9})

    def test_rejects_unknown_element(self):
        with pytest.raises(ValidationError, match="'d'"):
            BeliefAssignment(ABC, {("a", "d"): 1.0})

    def test_rejects_negative_mass(self):
        with pytest.raises(ValidationError, match=r"mass -0.1 for \('a',\) is outside"):
            BeliefAssignment(ABC, {"a": -0.1, "b": 1.1})

    def test_rejects_mass_above_one(self):
        with pytest.raises(ValidationError, match=r"mass 1.2 for \('a',\) is outside \[0, 1\]"):
            BeliefAssignment(ABC, {"a": 1.2})

    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError, match="sum to"):
            BeliefAssignment(ABC, {"a": 0.5, "b": 0.4})

    @pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf], ids=str)
    def test_rejects_non_finite_mass(self, mass: float):
        with pytest.raises(ValidationError, match=rf"mass {mass!r} for \('a',\) is outside"):
            BeliefAssignment(ABC, {"a": mass})

    def test_masses_are_parsed_numbers(self):
        """A decimal string is a number, stored as a float; a bool or another
        type is refused by value, as scenario probabilities are."""
        bba = BeliefAssignment(ABC, {"a": "0.25", "b": "0.75", "c": 0})
        assert bba.masses == {("a",): 0.25, ("b",): 0.75}
        assert type(BeliefAssignment(ABC, {"a": 1}).masses[("a",)]) is float
        with pytest.raises(ValidationError, match="^expected a number, got True$"):
            BeliefAssignment(ABC, {"a": True})
        with pytest.raises(ValidationError, match="^cannot parse number 'one'$"):
            BeliefAssignment(ABC, {"a": "one"})
        with pytest.raises(ValidationError, match="^expected a number, got None$"):
            BeliefAssignment(ABC, {"a": None})

    def test_total_tolerance_boundary(self):
        BeliefAssignment(ABC, {"a": 0.5, "b": 0.5 + 5e-10})
        with pytest.raises(ValidationError, match="masses sum to"):
            BeliefAssignment(ABC, {"a": 0.5, "b": 0.5 + 2e-9})

    def test_is_bayesian(self):
        assert BeliefAssignment(ABC, {"a": 0.4, "b": 0.6}).is_bayesian()
        assert not BeliefAssignment(ABC, {"a": 0.5, ("b", "c"): 0.5}).is_bayesian()

    def test_singleton_distribution_follows_frame_order(self):
        bba = BeliefAssignment(ABC, {"c": 0.7, "a": 0.3})
        assert bba.singleton_distribution().items() == (("a", 0.3), ("c", 0.7))

    def test_singleton_distribution_requires_bayesian(self):
        bba = BeliefAssignment(ABC, {("a", "b"): 1.0})
        with pytest.raises(ValidationError, match="all-singleton"):
            bba.singleton_distribution()


class TestDiscreteDistribution:
    def test_lookup_and_iteration(self):
        dist = DiscreteDistribution(("x", "y"), (0.25, 0.75))
        assert dist.prob("y") == 0.75
        assert dict(dist.items()) == {"x": 0.25, "y": 0.75}

    def test_unknown_label(self):
        dist = DiscreteDistribution(("x", "y"), (0.25, 0.75))
        with pytest.raises(ValidationError, match="'z'"):
            dist.prob("z")

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="labels"):
            DiscreteDistribution(("x", "y"), (1.0,))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError, match="duplicate"):
            DiscreteDistribution(("x", "x"), (0.5, 0.5))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="probability -0.1 for 'x' is outside"):
            DiscreteDistribution(("x", "y"), (-0.1, 1.1))

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf], ids=str)
    def test_rejects_non_finite(self, p: float):
        with pytest.raises(ValidationError, match=f"probability {p!r} for 'x' is outside"):
            DiscreteDistribution(("x", "y"), (p, 0.5))

    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError, match="sum to"):
            DiscreteDistribution(("x", "y"), (0.5, 0.4))

    def test_probabilities_are_parsed_numbers(self):
        dist = DiscreteDistribution(("x", "y"), ["0.25", 0.75])
        assert dist.probabilities == (0.25, 0.75)
        assert DiscreteDistribution(("x",), (1,)).probabilities == (1.0,)
        with pytest.raises(ValidationError, match="^expected a number, got False$"):
            DiscreteDistribution(("x", "y"), (False, 1.0))
        with pytest.raises(ValidationError, match="^cannot parse number 'half'$"):
            DiscreteDistribution(("x", "y"), ("half", 0.5))


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
        assert deng_entropy(BeliefAssignment(ABC, {"a": 1.0})) == 0.0

    def test_split_assignment_value(self):
        """m(a)=0.5, m({b,c})=0.5 gives 0.5 + 0.5*log2(6) bits."""
        bba = BeliefAssignment(ABC, {"a": 0.5, ("b", "c"): 0.5})
        assert deng_entropy(bba) == pytest.approx(1.792481250360578, abs=1e-12)
        assert deng_entropy(bba) == pytest.approx(0.5 + 0.5 * math.log2(6), abs=1e-12)

    def test_multi_element_sets_raise_entropy(self):
        narrow = BeliefAssignment(ABC, {"a": 0.5, "b": 0.5})
        wide = BeliefAssignment(ABC, {"a": 0.5, ("b", "c"): 0.5})
        assert deng_entropy(wide) > deng_entropy(narrow)

    @given(general_bbas(), st.data())
    def test_replaced_masses_keep_entropy_nonnegative(self, bba: BeliefAssignment, data):
        """_replace refuses masses that break the BBA axioms, so no copy of a valid
        assignment has negative entropy, as a mass above 1 would give."""
        subsets = st.lists(st.sampled_from(bba.frame), min_size=1, max_size=3).map(tuple)
        masses = data.draw(st.dictionaries(subsets, st.floats(-0.5, 3.0), max_size=4))
        total = math.fsum(masses.values())
        if total > 0.0 and data.draw(st.booleans()):  # rescaled masses pass the sum check
            masses = {s: m / total for s, m in masses.items()}
        try:
            changed = bba._replace(masses=masses)
        except ValidationError:
            return
        assert deng_entropy(changed) >= 0.0

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
        mapping = {lb: f"r{lb}" for lb in bba.frame}
        renamed = BeliefAssignment(
            tuple(mapping[lb] for lb in bba.frame),
            {tuple(mapping[lb] for lb in s): m for s, m in bba.masses.items()},
        )
        assert deng_entropy(renamed) == pytest.approx(deng_entropy(bba), abs=1e-12)
