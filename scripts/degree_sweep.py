"""Sweep the interference degree over [-1, 1] for one game condition.

For each fixed degree the script reports the predicted defection rate and its
relative fit error against the observed rate, as CSV. The row the entropy
heuristic would pick is appended with source=heuristic, so the sweep shows
where the automatic degree lands on the curve. Degrees whose interference
cancels all probability mass produce empty prediction fields.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from qlbn.errors import NegativeUnnormalizedMassError
from qlbn.heuristic import outcome_pairs, pair_degree
from qlbn.quantum import amplitudes_from_network, completion_magnitudes, posterior
from qlbn.scenarios import (
    DEFECT,
    PLAYER_TWO,
    Table,
    fit_error,
    load_builtin,
    load_scenarios,
    render_csv,
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
    magnitudes = completion_magnitudes(anet, PLAYER_TWO, {})
    auto = pair_degree(outcome_pairs(magnitudes))

    def evaluate(degree: float) -> tuple[float | None, float | None]:
        try:
            prediction = posterior(PLAYER_TWO, magnitudes, degree).probability(DEFECT)
        except NegativeUnnormalizedMassError:
            return None, None
        return prediction, fit_error(prediction, scenario.observed_unknown)

    degrees = [-1.0 + 2.0 * i / (args.steps - 1) for i in range(args.steps)]
    rows = [(degree, *evaluate(degree), "sweep") for degree in degrees]
    rows.append((auto.value, *evaluate(auto.value), "heuristic"))
    keys = ("degree", "prediction", "fit_error", "source")
    text = render_csv(Table(tuple((key, key) for key in keys), tuple(rows)))
    if args.out:
        try:
            Path(args.out).write_text(text, newline="")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.out} ({args.steps} sweep rows plus the heuristic row)")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
