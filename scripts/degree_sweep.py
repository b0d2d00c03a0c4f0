"""Sweep the interference degree over [-1, 1] for one game condition.

For each fixed degree the script reports the predicted defection rate and its
relative fit error against the observed rate, as CSV. The row the entropy
heuristic would pick is appended with source=heuristic, so the sweep shows
where the automatic degree lands on the curve. Degrees whose interference
cancels all probability mass produce empty prediction fields.
"""

from __future__ import annotations

import argparse
import csv
import sys

from qlbn.errors import NegativeUnnormalizedMassError
from qlbn.heuristic import degree_for_query
from qlbn.quantum import amplitudes_from_network, quantum_infer
from qlbn.scenarios import (
    DEFECT,
    PLAYER_TWO,
    fit_error,
    load_builtin,
    load_scenarios,
    scenario_to_network,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario", help="scenario JSON file (default: built-in dataset)"
    )
    parser.add_argument(
        "--name", default="Average", help="scenario name to sweep (default: Average)"
    )
    parser.add_argument("--steps", type=int, default=81,
                        help="number of sweep points (default: 81)")
    parser.add_argument("--out", help="CSV output path (default: stdout)")
    args = parser.parse_args()

    scenarios = (
        load_scenarios(args.scenario) if args.scenario else load_builtin().scenarios
    )
    by_name = {s.name: s for s in scenarios}
    if args.name not in by_name:
        print(f"error: no scenario named {args.name!r}; "
              f"available: {sorted(by_name)}", file=sys.stderr)
        return 1
    if args.steps < 2:
        print("error: --steps must be at least 2", file=sys.stderr)
        return 1
    scenario = by_name[args.name]

    anet = amplitudes_from_network(scenario_to_network(scenario))
    auto = degree_for_query(anet, PLAYER_TWO)

    def evaluate(degree: float) -> tuple[str, str]:
        try:
            prediction = quantum_infer(
                anet, PLAYER_TWO, {}, degree
            ).probability(DEFECT)
        except NegativeUnnormalizedMassError:
            return "", ""
        return repr(prediction), repr(fit_error(prediction, scenario.observed_unknown))

    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["degree", "prediction", "fit_error", "source"])
    for i in range(args.steps):
        degree = -1.0 + 2.0 * i / (args.steps - 1)
        writer.writerow([repr(degree), *evaluate(degree), "sweep"])
    writer.writerow([repr(auto.value), *evaluate(auto.value), "heuristic"])
    if args.out:
        sink.close()
        print(f"wrote {args.out} ({args.steps} sweep rows plus the heuristic row)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
