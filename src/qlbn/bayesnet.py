"""Discrete Bayesian networks with inference by joint enumeration.

The full joint of an assignment a is the product over variables X of
Pr(X = a[X] | parents(X) = a[parents]); posteriors sum it over the
completions of the unobserved variables. That enumeration is the one engine
behind classical and quantum-like inference, and it runs on a compiled value
table: per variable, in declared order, an itemgetter that picks the
variable's family (its parents in declared order, then itself) out of a
positional list of outcome labels, and a dict from those family labels to a
value f(p) of the CPT entry p. A completion then costs one dict lookup per
variable, and its product multiplies the values in declared variable order
starting from 1.0, so every float is bit-identical to full_joint's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from .belief import DiscreteDistribution
from .errors import (
    IncompleteAssignmentError,
    InconsistentEvidenceError,
    NetworkDefinitionError,
    QueryInEvidenceError,
    UnknownVariableError,
    ValidationError,
    parse_number,
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
    parent outcomes. Validation also compiles the CPTs for value_table, which
    is why instances must be treated as immutable.
    """

    variables: tuple[Variable, ...]
    parents: dict[str, tuple[str, ...]]
    cpts: dict[str, dict[ParentKey, DiscreteDistribution]]
    # Set by validation: variable name -> declared position, and per variable,
    # in declared order, (family getter, family label keys, CPT entries) with
    # keys and entries flat and aligned (see value_table).
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)
    _families: tuple[tuple[Callable, tuple, tuple[float, ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        positions = {v.name: i for i, v in enumerate(self.variables)}
        if len(positions) != len(self.variables):
            names = [v.name for v in self.variables]
            raise NetworkDefinitionError(f"duplicate variable names in {names}")
        object.__setattr__(self, "_positions", positions)
        for child, parent_names in self.parents.items():
            if child not in positions:
                raise NetworkDefinitionError(f"edge child {child!r} is not a declared variable")
            for p in parent_names:
                if p not in positions:
                    raise NetworkDefinitionError(f"edge parent {p!r} is not a declared variable")
            if len(set(parent_names)) != len(parent_names):
                raise NetworkDefinitionError(f"variable {child!r} lists a parent twice")
        self._check_acyclic()
        families = []
        for position, v in enumerate(self.variables):
            rows = self.cpts.get(v.name)
            if rows is None:
                raise NetworkDefinitionError(f"variable {v.name!r} has no CPT")
            parent_positions = [positions[p] for p in self.parents.get(v.name, ())]
            expected = set(
                itertools.product(*(self.variables[i].outcomes for i in parent_positions))
            )
            if rows.keys() != expected:
                missing = sorted(expected - set(rows))
                extra = sorted(set(rows) - expected)
                raise NetworkDefinitionError(
                    f"CPT for {v.name!r} mismatches its parents: missing rows {missing}, "
                    f"unexpected rows {extra}"
                )
            outcomes = set(v.outcomes)
            keys: list = []
            entries: list[float] = []
            for key, dist in rows.items():
                if set(dist.labels) != outcomes:
                    raise NetworkDefinitionError(
                        f"CPT row {v.name!r}|{key} covers {dist.labels}, expected {v.outcomes}"
                    )
                keys += [(*key, label) for label in dist.labels] if key else dist.labels
                entries += dist.probabilities
            getter = itemgetter(*parent_positions, position)
            families.append((getter, tuple(keys), tuple(entries)))
        object.__setattr__(self, "_families", tuple(families))

    def _check_acyclic(self) -> None:
        # Kahn's algorithm: what is never placed lies on a cycle or below one.
        unplaced = {v.name: len(self.parents.get(v.name, ())) for v in self.variables}
        children: dict[str, list[str]] = {name: [] for name in unplaced}
        for child, parent_names in self.parents.items():
            for p in parent_names:
                children[p].append(child)
        ready = [name for name, count in unplaced.items() if count == 0]
        while ready:
            name = ready.pop()
            del unplaced[name]
            for child in children[name]:
                unplaced[child] -= 1
                if unplaced[child] == 0:
                    ready.append(child)
        if unplaced:
            raise NetworkDefinitionError(
                f"the network contains a cycle through {sorted(unplaced)}"
            )

    def variable(self, name: str) -> Variable:
        position = self._positions.get(name)
        if position is None:
            raise UnknownVariableError(f"no variable named {name!r}")
        return self.variables[position]

    def outcomes(self, name: str) -> tuple[str, ...]:
        return self.variable(name).outcomes

    def names(self) -> tuple[str, ...]:
        return tuple(self._positions)


# A value table holds one factor per variable, in declared variable order. A
# factor is a getter that picks the variable's family labels (its parents in
# declared order, then itself) out of a positional label list, and the values
# f(p) keyed by those labels: a bare label for a root, a tuple otherwise.
Factor = tuple[Callable[[Sequence[str]], object], dict[object, float]]
ValueTable = tuple[Factor, ...]


def value_table(net: Network, f: Callable[[float], float]) -> ValueTable:
    """The network's CPTs with f applied to every entry (float: the classical table)."""
    return tuple((get, dict(zip(keys, map(f, entries)))) for get, keys, entries in net._families)


def table_product(table: ValueTable, labels: Sequence[str]) -> float:
    """Product in declared variable order of the table values for one outcome
    label per variable, given in declared variable order; labels are not checked."""
    product = 1.0
    for get, values in table:
        product *= values[get(labels)]
    return product


def _check_assignment_names(net: Network, assignment: Assignment) -> None:
    for name, outcome in assignment.items():
        outcomes = net.outcomes(name)
        if outcome not in outcomes:
            raise UnknownVariableError(f"{outcome!r} is not an outcome of {name!r} {outcomes}")


def check_complete(net: Network, assignment: Assignment) -> None:
    """Raise unless assignment gives every variable, and nothing else, one of its outcomes."""
    _check_assignment_names(net, assignment)
    missing = [n for n in net.names() if n not in assignment]
    if missing:
        raise IncompleteAssignmentError(f"assignment misses variables {missing}")


def full_joint(net: Network, assignment: Assignment) -> float:
    """Probability of a complete assignment: the product of CPT entries."""
    check_complete(net, assignment)
    return table_product(value_table(net, float), [assignment[n] for n in net.names()])


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
    evidence are checked once, up front. Lists follow declared outcome orders,
    and completions run as `completions` yields them.
    """
    if query in evidence:
        raise QueryInEvidenceError(f"query {query!r} already appears in the evidence")
    query_outcomes = net.outcomes(query)
    _check_assignment_names(net, evidence)
    labels = [evidence.get(v.name) for v in net.variables]
    at_query = net._positions[query]
    free = [
        i for i, v in enumerate(net.variables) if v.name != query and v.name not in evidence
    ]
    domains = [net.variables[i].outcomes for i in free]
    products: dict[str, list[float]] = {}
    for outcome in query_outcomes:
        labels[at_query] = outcome
        row = products[outcome] = []
        for combo in itertools.product(*domains):
            for i, label in zip(free, combo):
                labels[i] = label
            row.append(table_product(table, labels))
    return products


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
    names = net.names()
    return math.fsum(
        table_product(table, [a[n] for n in names])
        for a in completions(net, {}, names)
        if predicate(a)
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
            Variable(str(v["name"]), tuple([str(o) for o in v["outcomes"]])) for v in raw_vars
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
            parent_names = parents.get(str(name), ())
            table: dict[ParentKey, DiscreteDistribution] = {}
            for row in rows:
                given = row.get("given", {})
                key = tuple([str(given[p]) for p in parent_names if p in given])
                if len(key) != len(given):
                    raise NetworkDefinitionError(
                        f"CPT row for {name!r} conditions on non-parents: {sorted(given)}"
                    )
                dist = row["dist"]
                labels = tuple([str(lb) for lb in dist])
                try:
                    probs = tuple([parse_number(dist[lb], NetworkDefinitionError) for lb in dist])
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
