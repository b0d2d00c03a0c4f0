"""Acceptance gate: every published number and structural guarantee in one place.

Each test covers one criterion, prints a single PASS/FAIL line (visible under
pytest -s or in captured output), and fails loudly with the offending checks.
Oracles are computed inside this module from first principles, sharing no code
with the package internals they judge.
"""

from __future__ import annotations

import itertools
import math
import random

from qlbn.belief import BeliefAssignment, deng_entropy, shannon_entropy
from qlbn.bayesnet import infer, network_from_dict
from qlbn.errors import SingularDenominatorError
from qlbn.heuristic import belief_degree, belief_distance, extract_outcome_vectors
from qlbn.quantum import amplitudes_from_network, quantum_infer
from qlbn.scenarios import (
    Scenario,
    fit_error,
    load_builtin,
    predict_unknown,
    scenario_to_network,
)

GRID = [x / 10.0 for x in range(1, 10)]

AVERAGE = Scenario(
    name="Average",
    p_defect_given_defect=0.87,
    p_defect_given_cooperate=0.74,
    observed_unknown=0.64,
)

Check = tuple[str, bool]


def _report(num: int, title: str, checks: list[Check]) -> None:
    ok = all(flag for _, flag in checks)
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {title}")
    failed = [label for label, flag in checks if not flag]
    for label in failed:
        print(f"    failed: {label}")
    assert ok, f"criterion {num}: {'; '.join(failed)}"


def _close(actual: float, expected: float, tol: float) -> bool:
    return abs(actual - expected) <= tol


def _two_node_net(prior_t: float, child_t_given_t: float, child_t_given_f: float):
    return network_from_dict(
        {
            "variables": [
                {"name": "A", "outcomes": ["T", "F"]},
                {"name": "B", "outcomes": ["T", "F"]},
            ],
            "edges": [["A", "B"]],
            "cpts": {
                "A": [{"given": {}, "dist": {"T": prior_t, "F": 1 - prior_t}}],
                "B": [
                    {"given": {"A": "T"}, "dist": {"T": child_t_given_t, "F": 1 - child_t_given_t}},
                    {"given": {"A": "F"}, "dist": {"T": child_t_given_f, "F": 1 - child_t_given_f}},
                ],
            },
        }
    )


def _joint_table(prior_t: float, ct: float, cf: float) -> dict[tuple[str, str], float]:
    """Oracle joint over (A, B) from the three defining probabilities."""
    table = {}
    for a in "TF":
        pa = prior_t if a == "T" else 1.0 - prior_t
        pt = ct if a == "T" else cf
        for b in "TF":
            table[(a, b)] = pa * (pt if b == "T" else 1.0 - pt)
    return table


def test_criterion_1_interference_chain_hits_published_values():
    """The worked two-player chain: vectors, distances, degree, masses, posterior, fit."""
    checks: list[Check] = []
    net = scenario_to_network(AVERAGE)
    anet = amplitudes_from_network(net)

    vectors = extract_outcome_vectors(anet, "P2", {})
    for outcome, (alpha, beta) in {
        "Defect": (0.6083, 0.6595),
        "Cooperate": (0.3606, 0.2550),
    }.items():
        checks.append(
            (
                f"outcome vector {outcome} = ({alpha}, {beta}) within 1e-4",
                _close(vectors[outcome][0], alpha, 1e-4)
                and _close(vectors[outcome][1], beta, 1e-4),
            )
        )

    # Distances recomputed from the published 4-decimal vectors.
    d_defect = belief_distance(0.6083, 0.6595)
    d_coop = belief_distance(0.3606, 0.2550)
    checks.append(("distance(0.6083, 0.6595) = 0.41711 within 5e-5",
                   _close(d_defect, 0.41711, 5e-5)))
    checks.append(("distance(0.3606, 0.2550) = 0.63531 within 5e-5",
                   _close(d_coop, 0.63531, 5e-5)))

    # Degree from the published distances, then from the full pipeline.
    degree = belief_degree([0.41711, 0.63531])
    checks.append(("degree from published distances = -0.9420 within 5e-4",
                   _close(degree.value, -0.9420, 5e-4)))
    record = predict_unknown(AVERAGE)
    checks.append(("degree from the full pipeline = -0.9420 within 5e-4",
                   _close(record.degree.value, -0.9420, 5e-4)))

    # Masses under the published degree.
    result = quantum_infer(anet, "P2", {}, -0.9420)
    by_outcome = {om.outcome: om for om in result.outcomes}
    checks.append(("unnormalized(Defect) = 0.04917 within 5e-5",
                   _close(by_outcome["Defect"].unnormalized, 0.04917, 5e-5)))
    checks.append(("unnormalized(Cooperate) = 0.02182 within 5e-5",
                   _close(by_outcome["Cooperate"].unnormalized, 0.02182, 5e-5)))
    checks.append(("posterior Pr(Defect) = 0.6926 within 5e-4 at the published degree",
                   _close(result.probability("Defect"), 0.6926, 5e-4)))
    checks.append(("posterior Pr(Defect) = 0.6926 within 5e-4 from the full pipeline",
                   _close(record.quantum_prediction, 0.6926, 5e-4)))

    checks.append(("fit error = 8.2% within 0.1 percentage point",
                   _close(record.fit_error_quantum, 0.082, 0.001)))
    _report(1, "worked interference chain on the averaged game", checks)


def test_criterion_2_classical_predictions_match_reported_column():
    """Classical mixes for the five benchmark conditions."""
    expected = {
        "Shafir and Tversky, 1992": 0.9050,
        "Li and Taplin, 2002": 0.7950,
        "Busemeyer et al., 2006a": 0.8750,
        "Hristova and Grinberg, 2008": 0.9500,
        "Average": 0.8050,
    }
    checks: list[Check] = []
    for scenario in load_builtin().scenarios:
        classical = infer(scenario_to_network(scenario), "P2", {}).prob("Defect")
        checks.append(
            (
                f"classical({scenario.name}) = {expected[scenario.name]} within 1e-4",
                _close(classical, expected[scenario.name], 1e-4),
            )
        )
    _report(2, "classical predictions across the benchmark table", checks)


def test_criterion_3_interference_predictions_match_published_comparisons():
    """Computed predictions for the two single-condition comparison rows.

    The three remaining comparison rows summarize per-condition datasets whose
    conditionals were never published, so they cannot be recomputed and are
    carried as printed constants instead; the exclusion is by design.
    """
    expected = {
        "Busemeyer et al., 2006a": 0.6069,
        "Hristova and Grinberg, 2008": 0.9045,
    }
    by_name = {s.name: s for s in load_builtin().scenarios}
    checks: list[Check] = []
    for name, value in expected.items():
        prediction = predict_unknown(by_name[name]).quantum_prediction
        checks.append(
            (f"prediction({name}) = {value} within 5e-3", _close(prediction, value, 5e-3))
        )
    checks.append(
        ("three published-only rows excluded from recomputation by design", True)
    )
    _report(3, "recomputable published comparison rows", checks)


def test_criterion_4_deng_entropy_oracle_and_shannon_reduction():
    """Deng entropy against a direct-formula oracle and the singleton reduction."""
    checks: list[Check] = []

    rng = random.Random(20260819)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(2, 6)
        weights = [rng.uniform(0.01, 1.0) for _ in range(n)]
        total = math.fsum(weights)
        labels = tuple(f"e{i}" for i in range(n))
        bba = BeliefAssignment(labels, {lb: w / total for lb, w in zip(labels, weights)})
        gap = abs(deng_entropy(bba) - shannon_entropy(bba.singleton_distribution()))
        worst = max(worst, gap)
    checks.append(
        (f"singleton assignments: max |deng - shannon| = {worst:.2e} <= 1e-12",
         worst <= 1e-12)
    )

    bba = BeliefAssignment(("a", "b", "c"), {"a": 0.5, ("b", "c"): 0.5})
    # Oracle: literal transcription of the definition, independent of the package.
    oracle = -math.fsum(
        m * math.log2(m / (2 ** len(s) - 1)) for s, m in bba.masses.items() if m > 0
    )
    value = deng_entropy(bba)
    checks.append(("split assignment matches the brute-force oracle within 1e-12",
                   _close(value, oracle, 1e-12)))
    checks.append(("split assignment = 1.79248 within 1e-5",
                   _close(value, 1.79248, 1e-5)))
    _report(4, "entropy oracle agreement", checks)


def test_criterion_5_degree_zero_reduces_to_classical_enumeration():
    """Interference-free inference vs direct joint summation, exhaustively."""
    worst = 0.0
    cases = 0
    for prior_t, ct, cf in itertools.product(GRID, repeat=3):
        net = _two_node_net(prior_t, ct, cf)
        anet = amplitudes_from_network(net)
        joint = _joint_table(prior_t, ct, cf)
        for query, axis in (("A", 0), ("B", 1)):
            result = quantum_infer(anet, query, {}, 0.0)
            for outcome in ("T", "F"):
                mass = math.fsum(v for k, v in joint.items() if k[axis] == outcome)
                expected = mass / math.fsum(joint.values())
                worst = max(worst, abs(result.probability(outcome) - expected))
                cases += 1
    checks = [
        (
            f"degree 0 vs joint-summation oracle over {cases} posteriors: "
            f"max gap {worst:.2e} <= 1e-9",
            worst <= 1e-9,
        )
    ]
    _report(5, "degree-zero reduction on the exhaustive two-node grid", checks)


def test_criterion_6_full_constructive_interference_squares_the_amplitude_sum():
    """At degree +1 each unnormalized mass equals the squared sum of magnitudes."""
    worst = 0.0
    cases = 0
    for prior_t, ct, cf in itertools.product(GRID, repeat=3):
        net = _two_node_net(prior_t, ct, cf)
        anet = amplitudes_from_network(net)
        joint = _joint_table(prior_t, ct, cf)
        for query, axis in (("A", 0), ("B", 1)):
            result = quantum_infer(anet, query, {}, 1.0)
            for om in result.outcomes:
                # Oracle magnitudes straight from the joint table.
                mags = [
                    math.sqrt(v) for k, v in joint.items() if k[axis] == om.outcome
                ]
                expected = math.fsum(mags) ** 2
                worst = max(worst, abs(om.unnormalized - expected))
                cases += 1
    checks = [
        (
            f"degree +1 vs squared-sum oracle over {cases} masses: "
            f"max gap {worst:.2e} <= 1e-9",
            worst <= 1e-9,
        )
    ]
    _report(6, "fully constructive interference on the exhaustive grid", checks)


def test_criterion_7_normalization_and_mass_decomposition():
    """Posterior sums and the exact unnormalized = classical + interference split."""
    worst_sum = 0.0
    worst_split = 0.0
    for prior_t, ct, cf in itertools.product(GRID, repeat=3):
        anet = amplitudes_from_network(_two_node_net(prior_t, ct, cf))
        for query in ("A", "B"):
            for degree in (-0.9, -0.5, 0.0, 0.3, 1.0):
                result = quantum_infer(anet, query, {}, degree)
                total = math.fsum(om.probability for om in result.outcomes)
                worst_sum = max(worst_sum, abs(total - 1.0))
                for om in result.outcomes:
                    split = abs(
                        om.unnormalized - (om.classical_part + om.interference_part)
                    )
                    worst_split = max(worst_split, split)
    checks = [
        (f"posteriors sum to 1: max gap {worst_sum:.2e} <= 1e-9", worst_sum <= 1e-9),
        (
            f"unnormalized = classical + interference: max gap {worst_split:.2e} <= 1e-12",
            worst_split <= 1e-12,
        ),
    ]
    _report(7, "normalization and mass decomposition across degrees", checks)


def test_criterion_8_distance_symmetry_and_degenerate_rules():
    """Role swap, self-distance, and the singular diagonal on a 0.05 grid."""
    grid = [round(0.05 * k, 2) for k in range(21)]
    asymmetric: list[tuple[float, float]] = []
    bad_self: list[float] = []
    missed_singular: list[tuple[float, float]] = []
    for a, b in itertools.product(grid, repeat=2):
        if abs(a + b - 1.0) < 1e-9:
            if a == b:
                if belief_distance(a, b) != 0.5:
                    bad_self.append(a)
                continue
            try:
                belief_distance(a, b)
                missed_singular.append((a, b))
            except SingularDenominatorError:
                pass
            continue
        if a == b:
            if belief_distance(a, a) != a:
                bad_self.append(a)
            continue
        if belief_distance(a, b) != belief_distance(b, a):
            asymmetric.append((a, b))
    checks = [
        (f"symmetry holds on the grid (violations: {asymmetric})", not asymmetric),
        (f"distance(a, a) = a on the grid (violations: {bad_self})", not bad_self),
        (
            f"complementary pairs raise (missed: {missed_singular})",
            not missed_singular,
        ),
    ]
    _report(8, "distance swap symmetry and degenerate pairs", checks)
