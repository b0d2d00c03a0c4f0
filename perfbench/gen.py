"""Seeded inputs for the benchmark workloads.

Everything here is derived from (workload, seed) through one random.Random
stream, so the same seed gives byte-identical inputs on every run. The program
under test only ever sees what these functions return: network documents in
the JSON file format, scenario rows, and CLI argument lists.

Dump a workload's inputs as JSON:

    python3 perfbench/gen.py --workload chain-enum --seed 7
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

OUTCOMES = ("T", "F")
SHAPES = ("chain", "tree")
# CPT entries stay inside (CPT_LOW, CPT_HIGH), so no completion has zero mass.
CPT_LOW, CPT_HIGH = 0.05, 0.95

CHAIN_ENUM_SIZES = range(6, 13)
CHAIN_EVIDENCE_SIZES = range(14, 21)
CHAIN_EVIDENCE_QUERIES_PER_NETWORK = 16

GRID_STEPS = 41
GRID_PRIORS = (0.1, 0.3, 0.5, 0.7, 0.9)

# Shipped commands run by the `cli` workload, each with a label for its digest.
CLI_COMMANDS = (
    ("reproduce", ["reproduce"]),
    ("compare-csv", ["compare", "--format", "csv"]),
    ("predict-json", ["predict", "--scenario", "data/scenarios/literature_games.json",
                      "--format", "json"]),
    ("infer-quantum-verbose", ["infer", "--network", "data/networks/prisoners_average.json",
                               "--query", "P2", "--mode", "quantum", "--verbose"]),
    ("infer-evidence", ["infer", "--network", "data/networks/data_servers.json",
                        "--query", "S2", "--evidence", "S1=T"]),
    ("entropy", ["entropy", "--bba", "data/bba/split_pair.json"]),
)


@dataclass(frozen=True)
class Query:
    """One inference question against network `net` (an index into the network list)."""

    net: int
    n: int
    query: str
    evidence: dict[str, str]
    degree: float | None  # None: the entropy heuristic picks the degree


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _parent(shape: str, i: int) -> int:
    return i - 1 if shape == "chain" else (i - 1) // 2


def _leaves(shape: str, n: int) -> list[int]:
    return [n - 1] if shape == "chain" else [i for i in range(n) if 2 * i + 1 >= n]


def _dist(rng: random.Random) -> dict[str, float]:
    p = round(CPT_LOW + (CPT_HIGH - CPT_LOW) * rng.random(), 6)
    return {OUTCOMES[0]: p, OUTCOMES[1]: round(1.0 - p, 6)}


def network_doc(rng: random.Random, shape: str, n: int) -> dict:
    """A chain (X(i-1) -> Xi) or heap-ordered binary tree of n binary variables."""
    names = [f"X{i}" for i in range(n)]
    edges = []
    cpts = {names[0]: [{"given": {}, "dist": _dist(rng)}]}
    for i in range(1, n):
        parent = names[_parent(shape, i)]
        edges.append([parent, names[i]])
        cpts[names[i]] = [{"given": {parent: o}, "dist": _dist(rng)} for o in OUTCOMES]
    return {
        "variables": [{"name": name, "outcomes": list(OUTCOMES)} for name in names],
        "edges": edges,
        "cpts": cpts,
    }


def chain_enum(seed: int) -> tuple[list[dict], list[Query]]:
    """Networks of 6..12 nodes; per network one query without evidence and one
    with a single evidence variable, at the root or a leaf, at a fixed degree
    in [0, 1]. Every seed has the same mix of sizes, so costs compare across seeds."""
    rng = rng_for("chain-enum", seed)
    docs: list[dict] = []
    queries: list[Query] = []
    for n in CHAIN_ENUM_SIZES:
        for shape in SHAPES:
            docs.append(network_doc(rng, shape, n))
            for n_evidence in (0, 1):
                query = f"X{rng.choice([0, rng.choice(_leaves(shape, n))])}"
                others = [f"X{i}" for i in range(n) if f"X{i}" != query]
                observed = sorted(rng.sample(others, n_evidence), key=others.index)
                evidence = {name: rng.choice(OUTCOMES) for name in observed}
                queries.append(Query(len(docs) - 1, n, query, evidence, rng.random()))
    rng.shuffle(queries)
    return docs, queries


def chain_evidence(seed: int) -> tuple[list[dict], list[Query]]:
    """Networks of 14..20 nodes; each query leaves exactly one variable besides
    the query unobserved, so there are two completions per query outcome."""
    rng = rng_for("chain-evidence", seed)
    docs: list[dict] = []
    queries: list[Query] = []
    for n in CHAIN_EVIDENCE_SIZES:
        for shape in SHAPES:
            docs.append(network_doc(rng, shape, n))
            names = [f"X{i}" for i in range(n)]
            for _ in range(CHAIN_EVIDENCE_QUERIES_PER_NETWORK):
                query, free = rng.sample(names, 2)
                evidence = {
                    name: rng.choice(OUTCOMES) for name in names if name not in (query, free)
                }
                queries.append(Query(len(docs) - 1, n, query, evidence, None))
    rng.shuffle(queries)
    return docs, queries


def scenario_grid(seed: int) -> list[dict]:
    """The whole 41 x 41 conditional grid x 5 priors in seeded order, each row
    with a seeded observed rate in (0, 1]. Every seed covers the same rows,
    singular and fully ignorant ones included."""
    rng = rng_for("scenario-grid", seed)
    rows = []
    last = GRID_STEPS - 1
    for i in range(GRID_STEPS):
        for j in range(GRID_STEPS):
            for prior in GRID_PRIORS:
                rows.append({
                    "name": f"grid-{i}-{j}-{prior}",
                    "p_defect_given_defect": i / last,
                    "p_defect_given_cooperate": j / last,
                    "prior_defect": prior,
                    "observed_unknown": 1.0 - rng.random(),
                })
    rng.shuffle(rows)
    return rows


def cli_commands(seed: int) -> list[tuple[str, list[str]]]:
    """The shipped commands in a seeded order."""
    commands = list(CLI_COMMANDS)
    rng_for("cli", seed).shuffle(commands)
    return commands


def main() -> None:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli", "scenario-grid", "chain-enum", "chain-evidence"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.workload == "cli":
        out: object = cli_commands(args.seed)
    elif args.workload == "scenario-grid":
        out = scenario_grid(args.seed)
    else:
        docs, queries = (chain_enum if args.workload == "chain-enum" else chain_evidence)(args.seed)
        out = {"networks": docs, "queries": [asdict(q) for q in queries]}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
