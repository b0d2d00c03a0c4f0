"""Discrete Bayesian networks with inference by joint enumeration.

The full joint of an assignment a is the product over variables X of
Pr(X = a[X] | parents(X) = a[parents]); posteriors sum it over the
completions of the unobserved variables. That enumeration is the one engine
behind classical and quantum-like inference, and it runs on a compiled value
table: per variable, in declared order, an itemgetter that picks the
variable's family (its parents in declared order, then itself) out of a
positional list of outcome labels, and a dict from those family labels to a
value of the CPT entry p: p itself in the classical table, sqrt(p) in the
amplitude table. A query multiplies the factors that come before the first one
reading an unobserved label once, into an observed prefix; each completion then
costs one dict lookup per remaining variable, continuing that product in
declared variable order. The multiplications are those of full_joint, from 1.0
in declared order, so every float is bit-identical to full_joint's.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .belief import MASS_SUM_TOL, DiscreteDistribution
from .errors import (
    InconsistentEvidenceError,
    ValidationError,
    parse_number,
    read_json,
    shape_errors,
)

# An assignment maps variable names to outcome labels.
Assignment = Mapping[str, str]


class _VariableFields(NamedTuple):
    name: str
    outcomes: tuple[str, ...]


class Variable(_VariableFields):
    """A named variable with at least two distinct outcome labels."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks copies too

    def __new__(cls, name: str, outcomes: tuple[str, ...]) -> Variable:
        if len(outcomes) < 2:
            raise ValidationError(
                f"variable {name!r} needs at least two outcomes, got {outcomes}"
            )
        if len(set(outcomes)) != len(outcomes):
            raise ValidationError(f"variable {name!r} has duplicate outcomes {outcomes}")
        return tuple.__new__(cls, (name, outcomes))


# A value table holds one factor per variable, in declared variable order. A
# factor is a getter that picks the variable's family labels (its parents in
# declared order, then itself) out of a positional label list, and the values
# of its CPT entries keyed by those labels: a bare label for a root, a tuple
# otherwise.
Factor = tuple[Callable[[Sequence[str]], object], dict[object, float]]
ValueTable = tuple[Factor, ...]


class Network(NamedTuple):
    """A directed acyclic network of discrete variables with one CPT per variable.

    Fields:
        variables: the variables, in declaration order.
        parents: variable name -> parent names, in declared (edge) order.
        table: the classical value table, whose values are the CPT entries p.
        positions: variable name -> declared position.

    Build through network_from_dict, which validates the definition and
    compiles it, or bind new values into a built network with _replace(table=...),
    as scenario_to_network does. Fields cannot be reassigned, the dicts must be
    treated as immutable, and networks compare and hash by identity.
    """

    variables: tuple[Variable, ...]
    parents: dict[str, tuple[str, ...]]
    table: ValueTable
    positions: dict[str, int]

    # The table holds itemgetters, and equal values do not make two parses one network.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __repr__(self) -> str:
        return f"Network(variables={self.variables!r}, parents={self.parents!r})"

    def outcomes(self, name: str) -> tuple[str, ...]:
        position = self.positions.get(name)
        if position is None:
            raise ValidationError(f"no variable named {name!r}")
        return self.variables[position].outcomes


def table_product(table: ValueTable, labels: Sequence[str]) -> float:
    """Product in declared variable order of the table values for one outcome
    label per variable, given in declared variable order; labels are not checked."""
    product = 1.0
    for get, values in table:
        product *= values[get(labels)]
    return product


def _positional_labels(net: Network, assignment: Assignment) -> list[str | None]:
    """Each variable's assigned outcome in declared order, None where unassigned."""
    variables, positions = net.variables, net.positions
    labels: list[str | None] = [None] * len(variables)
    for name, outcome in assignment.items():
        position = positions.get(name)
        if position is None:
            raise ValidationError(f"no variable named {name!r}")
        outcomes = variables[position].outcomes
        if outcome not in outcomes:
            raise ValidationError(f"{outcome!r} is not an outcome of {name!r} {outcomes}")
        labels[position] = outcome
    return labels


def check_complete(net: Network, assignment: Assignment) -> list[str]:
    """The outcomes in declared order; raises unless every variable, and nothing else, has one."""
    labels = _positional_labels(net, assignment)
    missing = [v.name for v, label in zip(net.variables, labels) if label is None]
    if missing:
        raise ValidationError(f"assignment misses variables {missing}")
    return labels


def full_joint(net: Network, assignment: Assignment) -> float:
    """Probability of a complete assignment: the product of CPT entries."""
    return table_product(net.table, check_complete(net, assignment))


def unobserved(net: Network, query: str, evidence: Assignment) -> tuple[list, int, list[int]]:
    """After checking the query and the evidence, the evidence as positional labels, the
    query's position and the positions left unobserved: what every query enumerates."""
    if query in evidence:
        raise ValidationError(f"query {query!r} already appears in the evidence")
    net.outcomes(query)  # raises for an unknown query
    labels = _positional_labels(net, evidence)
    at_query = net.positions[query]
    free = []
    for i, label in enumerate(labels):
        if label is None and i != at_query:
            free.append(i)
    return labels, at_query, free


def completion_products(
    net: Network, table: ValueTable, query: str, evidence: Assignment
) -> dict[str, list[float]]:
    """Table products per query outcome, one per completion of the unobserved variables.

    The one enumeration behind classical and quantum-like inference; query and
    evidence are checked once, up front. Lists follow declared outcome orders, and
    completions run as itertools.product yields the unobserved variables' outcomes.
    The factors before the first one that reads an unobserved label (still None, and
    a key holding None is in no table) multiply once into prefix; each completion
    continues from prefix over the rest, so every product keeps table_product's bits.
    """
    labels, at_query, free = unobserved(net, query, evidence)
    prefix, start = 1.0, 0
    for get, values in table:
        value = values.get(get(labels))
        if value is None:
            break
        prefix *= value
        start += 1
    rest = table[start:]
    variables = net.variables
    domains = [variables[i].outcomes for i in free]
    products: dict[str, list[float]] = {}
    for outcome in variables[at_query].outcomes:
        labels[at_query] = outcome
        row = products[outcome] = []
        for combo in itertools.product(*domains):
            for i, label in zip(free, combo):
                labels[i] = label
            product = prefix
            for get, values in rest:
                product *= values[get(labels)]
            row.append(product)
    return products


def infer(net: Network, query: str, evidence: Assignment) -> DiscreteDistribution:
    """Posterior distribution of `query` given `evidence`, by enumeration.

    Sums the full joint over completions of the unobserved variables for each
    query outcome, then normalizes. Raises InconsistentEvidenceError when the
    evidence itself has probability zero.
    """
    products = completion_products(net, net.table, query, evidence)
    totals = [math.fsum(joints) for joints in products.values()]
    normalizer = math.fsum(totals)
    if normalizer <= 0.0:
        raise InconsistentEvidenceError(f"evidence {dict(evidence)!r} has probability zero")
    return DiscreteDistribution(tuple(products), tuple([t / normalizer for t in totals]))


# --- network files ----------------------------------------------------------
#
# {
#   "variables": [{"name": "S1", "outcomes": ["T", "F"]}, ...],
#   "edges": [["S1", "S2"], ...],
#   "cpts": {"S2": [{"given": {"S1": "T"}, "dist": {"T": 0.7, "F": 0.3}}, ...], ...}
# }
#
# Each declared variable, and no other, has a CPT: one row per combination of its
# parents' outcomes, each listing exactly its outcomes. Entries may be JSON numbers
# or decimal strings; both parse with correctly rounded decimal-to-binary conversion.


def network_from_dict(doc: Mapping) -> Network:
    """Build a Network from the parsed JSON structure described above.

    One validating pass compiles each CPT row straight into the classical
    table. Content of the wrong shape raises ValidationError, as bad values do.
    When every edge points forward in declared order the order itself shows the
    graph is acyclic, so only an edge that points backward or to its own variable
    sends the graph through the cycle check.
    """
    try:
        raw_vars = doc["variables"]
        raw_cpts = doc["cpts"]
    except (KeyError, TypeError):
        raise ValidationError("network definition needs 'variables' and 'cpts'") from None
    # Plain loops build every per-variable and per-row piece: before Python 3.12 each
    # comprehension is a function call of its own.
    with shape_errors():
        variables = []
        positions: dict[str, int] = {}
        for raw in raw_vars:
            name, outcomes = str(raw["name"]), raw["outcomes"]
            if not isinstance(outcomes, list):
                raise ValidationError(
                    f"variable {name!r} needs a list of outcomes, got {outcomes!r}"
                )
            labels = ()
            for outcome in outcomes:
                labels += (str(outcome),)
            positions[name] = len(variables)
            variables.append(Variable(name, labels))
        if len(positions) != len(variables):
            raise ValidationError(
                f"duplicate variable names in {[v.name for v in variables]}"
            )
        parents: dict[str, tuple[str, ...]] = dict.fromkeys(positions, ())
        forward = True
        for edge in doc.get("edges", []):
            if not isinstance(edge, list) or len(edge) != 2:
                raise ValidationError(f"edge {edge!r} must be a [parent, child] pair")
            parent, child = str(edge[0]), str(edge[1])
            if child not in parents:
                raise ValidationError(f"edge child {child!r} is not a declared variable")
            if parent not in parents:
                raise ValidationError(f"edge parent {parent!r} is not a declared variable")
            if parent in parents[child]:
                raise ValidationError(f"variable {child!r} lists a parent twice")
            parents[child] += (parent,)
            if positions[parent] >= positions[child]:
                forward = False
        if not forward:
            _check_acyclic(parents)
        for name in raw_cpts.keys():
            if name not in positions:
                raise ValidationError(f"CPT variable {name!r} is not a declared variable")
        table = []
        # parent outcome lists -> their combinations; every root shares the one empty one
        combo_sets: dict[tuple, set] = {(): {()}}
        for position, v in enumerate(variables):
            rows = raw_cpts.get(v.name)
            if rows is None:
                raise ValidationError(f"variable {v.name!r} has no CPT")
            parent_names = parents[v.name]
            indices, domains = [], ()
            for p in parent_names:
                at = positions[p]
                indices.append(at)
                domains += (variables[at].outcomes,)
            combos = combo_sets.get(domains)
            if combos is None:
                combos = combo_sets[domains] = set(itertools.product(*domains))
            getter = itemgetter(*indices, position)
            table.append((getter, _compile_cpt(v, parent_names, combos, rows)))
    return Network(tuple(variables), parents, tuple(table), positions)


def _check_acyclic(parents: Mapping[str, tuple[str, ...]]) -> None:
    # Kahn's algorithm: what is never placed lies on a cycle or below one.
    unplaced = {name: len(parent_names) for name, parent_names in parents.items()}
    children: dict[str, list[str]] = {name: [] for name in parents}
    for child, parent_names in parents.items():
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
        raise ValidationError(f"the network contains a cycle through {sorted(unplaced)}")


def _row_key(given: Mapping, parent_names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple([str(given[p]) for p in parent_names if p in given])


def _compile_cpt(v: Variable, parent_names: tuple[str, ...], combos: set, rows) -> dict:
    """The CPT rows of v as its classical-table values, keyed by family labels.

    Each row is checked once, its key against combos, the set of parent outcome
    combinations, and its entries in one pass that parses and stores each. A
    parse error anywhere in the row outranks an entry out of range, so the
    first such entry is raised only after the pass. Rows are counted against
    combos; a repeated row shows as a table that did not grow.
    """
    outcomes = set(v.outcomes)
    width = len(v.outcomes)
    values: dict[object, float] = {}
    for count, row in enumerate(rows, 1):
        given = row.get("given", {})
        key = ()
        for p in parent_names:
            if p in given:
                key += (str(given[p]),)
        if len(key) != len(given):
            raise ValidationError(
                f"CPT row for {v.name!r} conditions on non-parents: {sorted(given)}"
            )
        if key not in combos:
            raise _row_mismatch(v.name, parent_names, combos, rows)
        dist = row["dist"]
        entries = []
        outside = None
        try:
            # Indexing by label, unlike dist.items(), keeps a list dist's TypeError.
            for label in dist:
                p = dist[label]
                if p.__class__ is not float:
                    p = parse_number(p)
                if not 0.0 <= p <= 1.0 and outside is None:
                    outside = ValidationError(
                        f"probability {p!r} for {str(label)!r} is outside [0, 1]"
                    )
                entries.append(p)
                values[key + (str(label),) if key else str(label)] = p
            if outside is not None:
                raise outside
            total = math.fsum(entries)
            if abs(total - 1.0) > MASS_SUM_TOL:
                raise ValidationError(f"probabilities sum to {total!r}, expected 1")
        except ValidationError as exc:
            raise ValidationError(
                f"CPT row for {v.name!r} given {dict(given)!r} is invalid: {exc}"
            ) from None
        if dist.keys() != outcomes:
            labels = tuple(map(str, dist))
            if sorted(labels) != sorted(v.outcomes):
                raise ValidationError(
                    f"CPT row {v.name!r}|{key} covers {labels}, expected {v.outcomes}"
                )
        if len(values) != count * width:
            raise ValidationError(
                f"CPT for {v.name!r} lists the row given {dict(given)!r} twice"
            )
    if len(values) != width * len(combos):
        raise _row_mismatch(v.name, parent_names, combos, rows)
    return values


def _row_mismatch(name: str, parent_names: tuple, combos: set, rows) -> ValidationError:
    keys = {_row_key(row.get("given", {}), parent_names) for row in rows}
    return ValidationError(
        f"CPT for {name!r} mismatches its parents: missing rows {sorted(combos - keys)}, "
        f"unexpected rows {sorted(keys - combos)}"
    )


def load_network(path: str | Path) -> Network:
    """Read a network definition file; malformed content raises ValidationError."""
    return read_json(path, network_from_dict)
