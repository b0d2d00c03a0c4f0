"""Brute-force reference answers, computed from the generated inputs alone.

Standard library only, and nothing from qlbn: every answer here comes from the
network document or scenario row and the model's formulas, so a change to the
package cannot move the reference it is checked against.

For a query outcome x, m_i is the product of sqrt(CPT entry) over all
variables for completion i of the unobserved variables, and

    unnormalized(x) = sum_i m_i^2 + 2 * degree * sum_{i<j} m_i * m_j

The pairwise sum is taken as sum_j m_j * (sum_{i<j} m_i), added with fsum.
With one unobserved variable the degree may come from the Belief-Distance /
Belief-Degree heuristic (auto_degree); a query has no answer when its
distance denominator vanishes or interference cancels every outcome's mass.
"""

from __future__ import annotations

import itertools
import math

# |alpha + beta - 1| below this counts as a vanishing Belief-Distance denominator.
SINGULAR_TOL = 1e-12

# Absolute tolerance on every probability and degree compared with the oracle.
TOLERANCE = 1e-9


class NoAnswer(Exception):
    """The model defines no posterior; `cause` names why."""

    def __init__(self, cause: str):
        super().__init__(cause)
        self.cause = cause


SINGULAR = "singular-distance"
CANCELLED = "cancelled-mass"


class Doc:
    """A network document indexed for lookups: CPT rows by parent outcomes."""

    def __init__(self, doc: dict):
        self.names = [v["name"] for v in doc["variables"]]
        self.outcomes = {v["name"]: list(v["outcomes"]) for v in doc["variables"]}
        self.parents: dict[str, list[str]] = {name: [] for name in self.names}
        for parent, child in doc.get("edges", []):
            self.parents[child].append(parent)
        self.rows = {
            name: {
                tuple(row["given"][p] for p in self.parents[name]): {
                    o: float(v) for o, v in row["dist"].items()
                }
                for row in rows
            }
            for name, rows in doc["cpts"].items()
        }

    def entries(self, assignment: dict[str, str]) -> list[float]:
        return [
            self.rows[name][tuple(assignment[p] for p in self.parents[name])][assignment[name]]
            for name in self.names
        ]


def completion_terms(
    doc: Doc, query: str, evidence: dict[str, str]
) -> dict[str, list[tuple[float, float]]]:
    """Query outcome -> (joint, amplitude product) per completion of the unobserved
    variables, completions in declared outcome order."""
    free = [n for n in doc.names if n != query and n not in evidence]
    terms = {}
    for outcome in doc.outcomes[query]:
        rows = []
        for combo in itertools.product(*(doc.outcomes[n] for n in free)):
            assignment = dict(evidence)
            assignment[query] = outcome
            assignment.update(zip(free, combo))
            entries = doc.entries(assignment)
            rows.append((math.prod(entries), math.prod(math.sqrt(e) for e in entries)))
        terms[outcome] = rows
    return terms


def pairwise_sum(magnitudes: list[float]) -> float:
    """sum_{i<j} m_i * m_j by prefix sums; every term is nonnegative."""
    prefix = 0.0
    terms = []
    for m in magnitudes:
        terms.append(m * prefix)
        prefix += m
    return math.fsum(terms)


def normalize(masses: dict[str, float]) -> dict[str, float]:
    total = math.fsum(masses.values())
    if total <= 0.0:
        raise NoAnswer(CANCELLED)
    return {k: v / total for k, v in masses.items()}


def classical(terms: dict[str, list[tuple[float, float]]]) -> dict[str, float]:
    return normalize({o: math.fsum(j for j, _ in rows) for o, rows in terms.items()})


def quantum(terms: dict[str, list[tuple[float, float]]], degree: float) -> dict[str, float]:
    masses = {}
    for outcome, rows in terms.items():
        mags = [m for _, m in rows]
        mass = math.fsum(m * m for m in mags) + 2.0 * degree * pairwise_sum(mags)
        masses[outcome] = max(mass, 0.0)
    return normalize(masses)


def belief_distance(alpha: float, beta: float) -> float:
    """B = |a + (a - b) / |a + b - 1||, with a the argument nearer 0.5."""
    if abs(alpha - 0.5) > abs(beta - 0.5):
        alpha, beta = beta, alpha
    denominator = abs(alpha + beta - 1.0)
    if denominator < SINGULAR_TOL:
        if alpha == beta:
            return 0.5
        raise NoAnswer(SINGULAR)
    return abs(alpha + (alpha - beta) / denominator)


def auto_degree(terms: dict[str, list[tuple[float, float]]]) -> float:
    """Belief Degree sum B * log2(B / (2^1 - 1)) over the outcomes' distances,
    clamped to [-1, 1]; needs exactly one unobserved variable (two completions)."""
    distances = []
    for rows in terms.values():
        (_, alpha), (_, beta) = rows
        distances.append(belief_distance(alpha, beta))
    raw = math.fsum(b * math.log2(b) for b in distances if b > 0.0)
    return min(1.0, max(-1.0, raw))


def scenario_answer(row: dict) -> tuple[float, float, float]:
    """(classical, quantum, degree) Pr(P2 = Defect) for a two-player scenario row.

    P1 declares (Cooperate, Defect) with prior (1 - prior, prior); P2 declares
    (Defect, Cooperate). The classical answer is the closed form
    prior * p_dd + (1 - prior) * p_dc.
    """
    prior = row["prior_defect"]
    p_dd = row["p_defect_given_defect"]
    p_dc = row["p_defect_given_cooperate"]
    classical_defect = prior * p_dd + (1.0 - prior) * p_dc
    a_c, a_d = math.sqrt(1.0 - prior), math.sqrt(prior)
    terms = {
        "Defect": [(0.0, a_c * math.sqrt(p_dc)), (0.0, a_d * math.sqrt(p_dd))],
        "Cooperate": [(0.0, a_c * math.sqrt(1.0 - p_dc)), (0.0, a_d * math.sqrt(1.0 - p_dd))],
    }
    degree = auto_degree(terms)
    return classical_defect, quantum(terms, degree)["Defect"], degree


def is_distribution(probabilities) -> bool:
    probs = list(probabilities)
    return all(0.0 <= p <= 1.0 for p in probs) and abs(math.fsum(probs) - 1.0) <= TOLERANCE


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE
