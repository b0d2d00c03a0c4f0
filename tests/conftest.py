"""Shared fixtures: sample networks, a random-network strategy, a subprocess
environment and call counters."""

from __future__ import annotations

import itertools
import os
import sys
from pathlib import Path
from typing import Iterator, Mapping

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
