"""Discrete Bayesian networks with inference by joint enumeration.

Networks here are small (a handful of nodes), so posteriors are computed by
summing the full joint over completions of the unobserved variables rather
than by variable elimination. The full joint of an assignment a is the
product over variables X of Pr(X = a[X] | parents(X) = a[parents]).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping

from .belief import DiscreteDistribution
from .errors import (
    IncompleteAssignmentError,
    InconsistentEvidenceError,
    NetworkDefinitionError,
    QueryInEvidenceError,
    UnknownVariableError,
    ValidationError,
    read_json,
    shape_errors,
)

# An assignment maps variable names to outcome labels.
Assignment = Mapping[str, str]

# CPT row key: the parents' outcome labels, in declared parent order.
ParentKey = tuple[str, ...]


@dataclass(frozen=True)
class Variable:
    """A named variable with at least two distinct outcome labels."""

    name: str
    outcomes: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.outcomes, list):
            object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if len(self.outcomes) < 2:
            raise NetworkDefinitionError(
                f"variable {self.name!r} needs at least two outcomes, got {self.outcomes}"
            )
        if len(set(self.outcomes)) != len(self.outcomes):
            raise NetworkDefinitionError(
                f"variable {self.name!r} has duplicate outcomes {self.outcomes}"
            )


@dataclass(frozen=True)
class Network:
    """A directed acyclic network of discrete variables with one CPT per variable.

    Fields:
        variables: the variables, in declaration order.
        parents: variable name -> parent names, in declared (edge) order.
        cpts: variable name -> {parent outcome combination -> distribution}.

    Construction validates the structure: every parent exists, the graph is
    acyclic, and every variable has exactly one CPT row per combination of
    parent outcomes. Treat instances as immutable.
    """

    variables: tuple[Variable, ...]
    parents: dict[str, tuple[str, ...]]
    cpts: dict[str, dict[ParentKey, DiscreteDistribution]]

    def __post_init__(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise NetworkDefinitionError(f"duplicate variable names in {names}")
        by_name = {v.name: v for v in self.variables}
        for child, parent_names in self.parents.items():
            if child not in by_name:
                raise NetworkDefinitionError(f"edge child {child!r} is not a declared variable")
            for p in parent_names:
                if p not in by_name:
                    raise NetworkDefinitionError(f"edge parent {p!r} is not a declared variable")
            if len(set(parent_names)) != len(parent_names):
                raise NetworkDefinitionError(f"variable {child!r} lists a parent twice")
        self._check_acyclic()
        for v in self.variables:
            rows = self.cpts.get(v.name)
            if rows is None:
                raise NetworkDefinitionError(f"variable {v.name!r} has no CPT")
            expected = set(
                itertools.product(*(by_name[p].outcomes for p in self.parents.get(v.name, ())))
            )
            if set(rows) != expected:
                missing = sorted(expected - set(rows))
                extra = sorted(set(rows) - expected)
                raise NetworkDefinitionError(
                    f"CPT for {v.name!r} mismatches its parents: missing rows {missing}, "
                    f"unexpected rows {extra}"
                )
            for key, dist in rows.items():
                if set(dist.labels) != set(v.outcomes):
                    raise NetworkDefinitionError(
                        f"CPT row {v.name!r}|{key} covers {dist.labels}, expected {v.outcomes}"
                    )

    def _check_acyclic(self) -> None:
        remaining = {v.name: set(self.parents.get(v.name, ())) for v in self.variables}
        while remaining:
            roots = [n for n, ps in remaining.items() if not ps]
            if not roots:
                raise NetworkDefinitionError(
                    f"the network contains a cycle through {sorted(remaining)}"
                )
            for n in roots:
                del remaining[n]
            for ps in remaining.values():
                ps.difference_update(roots)

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise UnknownVariableError(f"no variable named {name!r}")

    def outcomes(self, name: str) -> tuple[str, ...]:
        return self.variable(name).outcomes

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)


# A value table has the CPT layout: variable name -> {parent key -> one value
# per outcome, in the variable's declared outcome order}.
ValueTable = dict[str, dict[ParentKey, tuple[float, ...]]]


def value_table(net: Network, f: Callable[[float], float]) -> ValueTable:
    """The network's CPTs with f applied to every entry (float: the classical table)."""
    return {
        v.name: {
            key: tuple(f(dist.prob(o)) for o in v.outcomes)
            for key, dist in net.cpts[v.name].items()
        }
        for v in net.variables
    }


def table_product(net: Network, table: ValueTable, assignment: Assignment) -> float:
    """Product in declared variable order of table values; the assignment is not checked."""
    product = 1.0
    for v in net.variables:
        key = tuple(assignment[p] for p in net.parents.get(v.name, ()))
        product *= table[v.name][key][v.outcomes.index(assignment[v.name])]
    return product


def _check_assignment_names(net: Network, assignment: Assignment) -> None:
    outcomes = {v.name: v.outcomes for v in net.variables}
    for name, outcome in assignment.items():
        if name not in outcomes:
            raise UnknownVariableError(f"no variable named {name!r}")
        if outcome not in outcomes[name]:
            raise UnknownVariableError(
                f"{outcome!r} is not an outcome of {name!r} {outcomes[name]}"
            )


def check_complete(net: Network, assignment: Assignment) -> None:
    """Raise unless assignment gives every variable, and nothing else, one of its outcomes."""
    _check_assignment_names(net, assignment)
    missing = [n for n in net.names() if n not in assignment]
    if missing:
        raise IncompleteAssignmentError(f"assignment misses variables {missing}")


def full_joint(net: Network, assignment: Assignment) -> float:
    """Probability of a complete assignment: the product of CPT entries."""
    check_complete(net, assignment)
    return table_product(net, value_table(net, float), assignment)


def completions(
    net: Network, fixed: Assignment, free: tuple[str, ...]
) -> Iterator[dict[str, str]]:
    """All full assignments extending `fixed` over the `free` variables, in declared order."""
    domains = [net.outcomes(name) for name in free]
    for combo in itertools.product(*domains):
        full = dict(fixed)
        full.update(zip(free, combo))
        yield full


def completion_products(
    net: Network, table: ValueTable, query: str, evidence: Assignment
) -> dict[str, list[float]]:
    """Table products per query outcome, one per completion of the unobserved variables.

    The one enumeration behind classical and quantum-like inference; query and
    evidence are checked once, up front. Lists follow declared outcome orders.
    """
    if query in evidence:
        raise QueryInEvidenceError(f"query {query!r} already appears in the evidence")
    query_outcomes = net.outcomes(query)
    _check_assignment_names(net, evidence)
    free = tuple(n for n in net.names() if n != query and n not in evidence)
    return {
        outcome: [
            table_product(net, table, a)
            for a in completions(net, {**evidence, query: outcome}, free)
        ]
        for outcome in query_outcomes
    }


def infer(net: Network, query: str, evidence: Assignment) -> DiscreteDistribution:
    """Posterior distribution of `query` given `evidence`, by enumeration.

    Sums the full joint over completions of the unobserved variables for each
    query outcome, then normalizes. Raises InconsistentEvidenceError when the
    evidence itself has probability zero.
    """
    products = completion_products(net, value_table(net, float), query, evidence)
    totals = [math.fsum(joints) for joints in products.values()]
    normalizer = math.fsum(totals)
    if normalizer <= 0.0:
        raise InconsistentEvidenceError(f"evidence {dict(evidence)!r} has probability zero")
    return DiscreteDistribution(tuple(products), tuple(t / normalizer for t in totals))


def event_probability(net: Network, predicate: Callable[[dict[str, str]], bool]) -> float:
    """Probability of the event selected by `predicate` over full assignments."""
    table = value_table(net, float)
    return math.fsum(
        table_product(net, table, a) for a in completions(net, {}, net.names()) if predicate(a)
    )


# --- network files ----------------------------------------------------------
#
# {
#   "variables": [{"name": "S1", "outcomes": ["T", "F"]}, ...],
#   "edges": [["S1", "S2"], ...],
#   "cpts": {"S2": [{"given": {"S1": "T"}, "dist": {"T": 0.7, "F": 0.3}}, ...], ...}
# }
#
# Probabilities may be JSON numbers or decimal strings; both parse with
# correctly rounded decimal-to-binary conversion.


def _as_probability(value: object, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise NetworkDefinitionError(f"{context}: probability must be a number, got {value!r}")
    try:
        return float(value)
    except ValueError:
        raise NetworkDefinitionError(f"{context}: cannot parse probability {value!r}") from None


def network_from_dict(doc: Mapping) -> Network:
    """Build a Network from the parsed JSON structure described above.

    Content of the wrong shape raises NetworkDefinitionError, as bad values do.
    """
    try:
        raw_vars = doc["variables"]
        raw_cpts = doc["cpts"]
    except (KeyError, TypeError):
        raise NetworkDefinitionError("network definition needs 'variables' and 'cpts'") from None
    with shape_errors(NetworkDefinitionError):
        variables = tuple(
            Variable(str(v["name"]), tuple(str(o) for o in v["outcomes"])) for v in raw_vars
        )
        parents: dict[str, tuple[str, ...]] = {v.name: () for v in variables}
        for edge in doc.get("edges", []):
            if len(edge) != 2:
                raise NetworkDefinitionError(f"edge {edge!r} must be a [parent, child] pair")
            parent, child = str(edge[0]), str(edge[1])
            if child not in parents:
                raise NetworkDefinitionError(f"edge child {child!r} is not a declared variable")
            parents[child] = parents[child] + (parent,)
        cpts: dict[str, dict[ParentKey, DiscreteDistribution]] = {}
        for name, rows in raw_cpts.items():
            table: dict[ParentKey, DiscreteDistribution] = {}
            for row in rows:
                given = row.get("given", {})
                key = tuple(str(given[p]) for p in parents.get(str(name), ()) if p in given)
                if len(key) != len(given):
                    raise NetworkDefinitionError(
                        f"CPT row for {name!r} conditions on non-parents: {sorted(given)}"
                    )
                dist = row["dist"]
                labels = tuple(str(lb) for lb in dist)
                try:
                    probs = tuple(
                        _as_probability(dist[lb], f"CPT {name!r} given {dict(given)!r}")
                        for lb in dist
                    )
                    table[key] = DiscreteDistribution(labels, probs)
                except ValidationError as exc:
                    raise NetworkDefinitionError(
                        f"CPT row for {name!r} given {dict(given)!r} is invalid: {exc}"
                    ) from None
            cpts[str(name)] = table
    return Network(variables, parents, cpts)


def load_network(path: str | Path) -> Network:
    """Read a network definition file; malformed content raises NetworkDefinitionError."""
    return read_json(path, network_from_dict, NetworkDefinitionError)
