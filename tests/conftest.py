"""Shared fixtures: sample networks, a random-network strategy, a decimal oracle for
posteriors, a subprocess environment and call counters."""

from __future__ import annotations

import decimal
import itertools
import math
import os
import sys
from decimal import Decimal
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from qlbn import bayesnet
from qlbn.bayesnet import Network, network_from_dict
from qlbn.quantum import AmplitudeNetwork, amplitudes_from_network

ROOT = Path(__file__).resolve().parent.parent

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


@st.composite
def binary_net_docs(draw: st.DrawFn) -> dict:
    """A random binary network of up to 4 variables with grid-valued CPTs.

    Variables are declared in a random order, so a child may come before its
    parents. A node's two parents may be listed against declaration order, a
    CPT's rows come in any order, and a CPT row may list F before T, against the
    declared outcome order T, F.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    names = [f"V{i}" for i in range(n)]
    edges: list[list[str]] = []
    parents: dict[str, list[str]] = {nm: [] for nm in names}
    for i in range(1, n):
        for j in range(i):
            if len(parents[names[i]]) < 2 and draw(st.booleans()):
                parents[names[i]].append(names[j])
        if draw(st.booleans()):
            parents[names[i]].reverse()
        edges.extend([parent, names[i]] for parent in parents[names[i]])
    cpts: dict[str, list[dict]] = {}
    for nm in names:
        rows = []
        for combo in itertools.product(["T", "F"], repeat=len(parents[nm])):
            p = draw(st.sampled_from(GRID))
            dist = {"T": p, "F": 1 - p}
            if draw(st.booleans()):
                dist = {"F": 1 - p, "T": p}
            rows.append({"given": dict(zip(parents[nm], combo)), "dist": dist})
        cpts[nm] = draw(st.permutations(rows))
    return {
        "variables": [{"name": nm, "outcomes": ["T", "F"]} for nm in draw(st.permutations(names))],
        "edges": edges,
        "cpts": cpts,
    }


def completions(
    net: Network, fixed: Mapping[str, str], free: tuple[str, ...]
) -> Iterator[dict[str, str]]:
    """All full assignments extending `fixed` over the `free` variables, in declared order."""
    domains = [net.outcomes(name) for name in free]
    for combo in itertools.product(*domains):
        full = dict(fixed)
        full.update(zip(free, combo))
        yield full


def table_entry(net: Network, name: str, *family: str) -> float:
    """The classical table's entry for `name` at its family labels: the
    parents' outcomes in declared parent order, then its own."""
    _, values = net.table[net.positions[name]]
    return values[family if len(family) > 1 else family[0]]


def draw_query_and_evidence(
    names: list[str], data: st.DataObject
) -> tuple[str, dict[str, str]]:
    """A query among names and, for each other name, evidence T, F or none at random."""
    query = data.draw(st.sampled_from(names))
    evidence = {
        nm: pick
        for nm in names
        if nm != query
        for pick in [data.draw(st.sampled_from([None, "T", "F"]))]
        if pick is not None
    }
    return query, evidence


# Exact enough to serve as the oracle for float posteriors: 60 significant digits.
ORACLE = decimal.Context(prec=60)


def decimal_posterior(
    doc: dict, query: str, evidence: Mapping[str, str], degree: float | None = None
) -> tuple[dict[str, Decimal] | None, Decimal]:
    """The oracle for a network document's posterior: infer's formula when degree is
    None, else posterior's at that degree, over every completion in decimal at 60
    digits, each amplitude the Decimal.sqrt of its CPT entry.

    Returns the probability of each query outcome, or None when the floor at zero
    leaves no mass, and the condition number kappa: the largest (q + 2|d|ꞏs2) / |u|
    over the outcomes, with q the sum of squared amplitude products, s2 the sum of
    their pairwise products and u = q + 2dꞏs2 (infinite when some u is 0, and 1 for
    infer, whose sums have no negative terms).
    """
    outcomes = {v["name"]: v["outcomes"] for v in doc["variables"]}
    free = [name for name in outcomes if name != query and name not in evidence]

    def entry(name: str, full: Mapping[str, str]) -> Decimal:
        for row in doc["cpts"][name]:
            if all(full[parent] == label for parent, label in row["given"].items()):
                return Decimal(row["dist"][full[name]])
        raise AssertionError(f"no CPT row of {name!r} matches {full}")

    with decimal.localcontext(ORACLE):
        joints: dict[str, list[Decimal]] = {}
        amplitudes: dict[str, list[Decimal]] = {}
        for outcome in outcomes[query]:
            joints[outcome], amplitudes[outcome] = [], []
            for combo in itertools.product(*(outcomes[name] for name in free)):
                full = {**evidence, query: outcome, **dict(zip(free, combo))}
                entries = [entry(name, full) for name in outcomes]
                joints[outcome].append(math.prod(entries, start=Decimal(1)))
                roots = [e.sqrt() for e in entries]
                amplitudes[outcome].append(math.prod(roots, start=Decimal(1)))
        if degree is None:
            totals = {outcome: sum(js, Decimal(0)) for outcome, js in joints.items()}
            total = sum(totals.values(), Decimal(0))
            return {o: t / total for o, t in totals.items()}, Decimal(1)
    return decimal_from_products(amplitudes, degree)


def decimal_from_products(
    amplitudes: Mapping[str, Sequence[Decimal | float]], degree: float
) -> tuple[dict[str, Decimal] | None, Decimal]:
    """posterior's formula, the floor at zero included, over given amplitude products
    per outcome, in decimal at 60 digits; returns what decimal_posterior returns.
    Float products enter exactly, so this is the exact posterior of the products
    that posterior itself reads."""
    with decimal.localcontext(ORACLE):
        d = Decimal(degree)
        masses, kappa = {}, Decimal(0)
        for outcome, floats in amplitudes.items():
            ms = [Decimal(m) for m in floats]
            q = sum([m * m for m in ms], Decimal(0))
            s2 = sum([a * b for a, b in itertools.combinations(ms, 2)], Decimal(0))
            u = q + 2 * d * s2
            kappa = max(kappa, (q + 2 * abs(d) * s2) / abs(u) if u else Decimal("Infinity"))
            masses[outcome] = max(u, Decimal(0))
        total = sum(masses.values(), Decimal(0))
        if not total:
            return None, kappa
        return {o: u / total for o, u in masses.items()}, kappa


def ulps(actual: float, exact: Decimal) -> float:
    """|actual - exact| in units in the last place of the float nearest exact."""
    return float(abs(Decimal(actual) - exact)) / math.ulp(float(exact))


# Two-player game: P1 declares Cooperate first so outcome vectors read as
# (cooperating opponent, defecting opponent); P2 declares Defect first.
GAME_DOC = {
    "variables": [
        {"name": "P1", "outcomes": ["Cooperate", "Defect"]},
        {"name": "P2", "outcomes": ["Defect", "Cooperate"]},
    ],
    "edges": [["P1", "P2"]],
    "cpts": {
        "P1": [{"given": {}, "dist": {"Cooperate": 0.5, "Defect": 0.5}}],
        "P2": [
            {"given": {"P1": "Cooperate"}, "dist": {"Defect": 0.74, "Cooperate": 0.26}},
            {"given": {"P1": "Defect"}, "dist": {"Defect": 0.87, "Cooperate": 0.13}},
        ],
    },
}


def scenario_doc(scenario) -> dict:
    """The network document of one game scenario, as the file parse reads it: the
    reference that scenario_to_network's compiled game is checked against."""

    def row(given: dict[str, str], defect: float) -> dict:
        return {"given": given, "dist": {"Defect": defect, "Cooperate": 1.0 - defect}}

    return {
        "variables": [
            {"name": "P1", "outcomes": ["Cooperate", "Defect"]},
            {"name": "P2", "outcomes": ["Defect", "Cooperate"]},
        ],
        "edges": [["P1", "P2"]],
        "cpts": {
            "P1": [row({}, scenario.prior_defect)],
            "P2": [
                row({"P1": "Cooperate"}, scenario.p_defect_given_cooperate),
                row({"P1": "Defect"}, scenario.p_defect_given_defect),
            ],
        },
    }


def _coin_row(given: dict[str, str], p: float) -> dict:
    return {"given": given, "dist": {"T": p, "F": 1.0 - p}}


def tiny_evidence_doc(children: str, given_t: float = 1e-200, given_f: float = 1e-200) -> dict:
    """A fair coin A and children that each show T with probability given_t when A
    shows T and given_f when it shows F: evidence that two children show T has a
    probability near 1e-400, below the smallest float, and every amplitude product
    of a query given it squares to below the smallest float too."""
    rows = [_coin_row({"A": "T"}, given_t), _coin_row({"A": "F"}, given_f)]
    return {
        "variables": [{"name": name, "outcomes": ["T", "F"]} for name in "A" + children],
        "edges": [["A", child] for child in children],
        "cpts": {"A": [_coin_row({}, 0.5)], **{child: rows for child in children}},
    }


# Three coins B <- A -> C on which degree -0.5 floors the mass of B=F, and only
# that mass, to zero.
CLAMPING_DOC = {
    "variables": [{"name": name, "outcomes": ["T", "F"]} for name in "ABC"],
    "edges": [["A", "B"], ["A", "C"]],
    "cpts": {"A": [_coin_row({}, 0.1)],
             "B": [_coin_row({"A": "T"}, 0.1), _coin_row({"A": "F"}, 0.9)],
             "C": [_coin_row({"A": "T"}, 0.1), _coin_row({"A": "F"}, 0.1)]},
}


# Two data servers, the second mirroring the first imperfectly.
SERVERS_DOC = {
    "variables": [
        {"name": "S1", "outcomes": ["T", "F"]},
        {"name": "S2", "outcomes": ["T", "F"]},
    ],
    "edges": [["S1", "S2"]],
    "cpts": {
        "S1": [{"given": {}, "dist": {"T": 0.9, "F": 0.1}}],
        "S2": [
            {"given": {"S1": "T"}, "dist": {"T": 0.7, "F": 0.3}},
            {"given": {"S1": "F"}, "dist": {"T": 0.3, "F": 0.7}},
        ],
    },
}


@pytest.fixture
def game_net() -> Network:
    return network_from_dict(GAME_DOC)


@pytest.fixture
def game_amps(game_net: Network) -> AmplitudeNetwork:
    return amplitudes_from_network(game_net)


@pytest.fixture
def servers_net() -> Network:
    return network_from_dict(SERVERS_DOC)


def chain_doc(names: list[str]) -> dict:
    """A binary chain names[0] -> names[1] -> ... with T-first outcomes."""
    cpts = {names[0]: [{"given": {}, "dist": {"T": 0.6, "F": 0.4}}]}
    for parent, child in zip(names, names[1:]):
        cpts[child] = [
            {"given": {parent: "T"}, "dist": {"T": 0.7, "F": 0.3}},
            {"given": {parent: "F"}, "dist": {"T": 0.2, "F": 0.8}},
        ]
    return {
        "variables": [{"name": name, "outcomes": ["T", "F"]} for name in names],
        "edges": [list(edge) for edge in zip(names, names[1:])],
        "cpts": cpts,
    }


def uniform_chain_doc(names: list[str]) -> dict:
    """chain_doc with every CPT row at one half."""
    doc = chain_doc(names)
    for rows in doc["cpts"].values():
        for row in rows:
            row["dist"] = {"T": 0.5, "F": 0.5}
    return doc


def refuse_json_constant(name: str) -> None:
    """A json.loads parse_constant: RFC 8259 has no NaN or Infinity, which json.dumps
    prints for such floats."""
    raise AssertionError(f"{name} is not JSON")


def src_env() -> dict[str, str]:
    """This process's environment with the checkout's src/ first on PYTHONPATH, so
    a subprocess imports the qlbn under test."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def rebind(monkeypatch: pytest.MonkeyPatch, original, replacement) -> None:
    """Put `replacement` at every loaded qlbn module attribute that holds `original`,
    as the benchmark's tracer rebinds names, so calls made inside the package reach
    it too."""
    for name, module in list(sys.modules.items()):
        if name == "qlbn" or name.startswith("qlbn."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def amplitude_enumerations(monkeypatch: pytest.MonkeyPatch) -> list[str]:
    """The query of each completion_products call over an amplitude table, in call
    order; classical enumerations, over the network's own table, are not listed."""
    original, queries = bayesnet.completion_products, []

    def counted(net, table, query, evidence):
        if table is not net.table:
            queries.append(query)
        return original(net, table, query, evidence)

    rebind(monkeypatch, original, counted)
    return queries


@pytest.fixture
def no_enumeration(monkeypatch: pytest.MonkeyPatch) -> None:
    """Fail at once, instead of running, when anything starts an enumeration."""

    def refused(net, table, query, evidence):
        raise AssertionError(f"enumerated the completions of {query!r}")

    rebind(monkeypatch, bayesnet.completion_products, refused)


@pytest.fixture
def unobserved_checks(monkeypatch: pytest.MonkeyPatch) -> list[str]:
    """The query of each bayesnet.unobserved call, in call order."""
    original, queries = bayesnet.unobserved, []

    def counted(net, query, evidence):
        queries.append(query)
        return original(net, query, evidence)

    rebind(monkeypatch, original, counted)
    return queries


@pytest.fixture
def no_network_parse(monkeypatch: pytest.MonkeyPatch) -> None:
    """Fail at once, instead of parsing, when anything builds a network from a document."""

    def refused(doc):
        raise AssertionError("parsed a network document")

    rebind(monkeypatch, bayesnet.network_from_dict, refused)
