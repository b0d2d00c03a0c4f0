"""Command-line front end.

Commands:
    entropy    Shannon and Deng entropy of a belief-assignment file.
    infer      classical or quantum-like posterior for one query.
    predict    evaluate scenarios from a file.
    compare    scenarios plus published model columns and mean fit errors.
    reproduce  run the built-in dataset and verify every published value.
    sweep      one condition's prediction at fixed degrees across [-1, 1], as CSV.

Exit codes: 0 success, 1 validation error, 2 inference error, 3 a
reproduction check missed its published value.

A belief-assignment file is JSON like
    {"frame": ["a", "b", "c"], "masses": {"a": 0.5, "b,c": 0.5}}
where the frame is a list, each mass key joins the focal set's labels with
commas and values are numbers or decimal strings, never booleans.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bayesnet import infer, load_network
from .belief import Frame, shannon_entropy, deng_entropy, validate_bba
from .errors import (
    GoldenMismatchError,
    InferenceError,
    NegativeUnnormalizedMassError,
    QlbnError,
    SingularDenominatorError,
    ValidationError,
    parse_number,
    read_json,
)
from .heuristic import belief_distance, outcome_pairs, pair_degree, weighable_magnitudes
from .quantum import OutcomeMass, amplitudes_from_network, completion_magnitudes, posterior
from .scenarios import (
    DEFECT,
    PLAYER_TWO,
    Table,
    fit_error,
    load_builtin,
    load_scenarios,
    render_csv,
    render_report_csv,
    render_report_table,
    render_reproduction,
    report_to_dict,
    run_comparison,
    run_reproduction,
    scenario_to_network,
    write_reproduction,
)


class _Parser(argparse.ArgumentParser):
    # Usage problems are validation errors: keep exit code 1 for them.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qlbn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_entropy = sub.add_parser("entropy", help="entropies of a belief-assignment file")
    p_entropy.add_argument("--bba", required=True, help="belief-assignment JSON file")

    p_infer = sub.add_parser("infer", help="posterior for one query variable")
    p_infer.add_argument("--network", required=True, help="network JSON file")
    p_infer.add_argument("--query", required=True, help="query variable name")
    p_infer.add_argument(
        "--evidence", action="append", default=[], metavar="VAR=OUTCOME",
        help="observed variable (repeatable)",
    )
    p_infer.add_argument("--mode", choices=("classical", "quantum"), default="classical")
    p_infer.add_argument(
        "--degree", default="auto",
        help="interference degree policy: auto, zero, or fixed:<value>",
    )
    p_infer.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_infer.add_argument("--verbose", action="store_true",
                         help="show the interference trace in quantum mode")

    p_predict = sub.add_parser("predict", help="evaluate scenarios from a file")
    p_predict.add_argument("--scenario", required=True, help="scenario JSON file")
    p_predict.add_argument("--format", choices=("table", "csv", "json"), default="table")

    p_compare = sub.add_parser(
        "compare", help="scenarios beside published model columns"
    )
    p_compare.add_argument(
        "--scenario", help="scenario JSON file (default: built-in dataset)"
    )
    p_compare.add_argument("--format", choices=("table", "csv", "json"), default="table")

    p_repro = sub.add_parser(
        "reproduce", help="run the built-in dataset and verify published values"
    )
    p_repro.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_repro.add_argument("--out", help="directory for the report and CSV series")

    p_sweep = sub.add_parser("sweep", help="one condition at fixed degrees across [-1, 1]")
    p_sweep.add_argument("--scenario", help="scenario JSON file (default: built-in dataset)")
    p_sweep.add_argument(
        "--name", default="Average", help="scenario name to sweep (default: Average)"
    )
    p_sweep.add_argument("--steps", type=int, default=81,
                         help="number of sweep points (default: 81)")
    p_sweep.add_argument("--out", help="CSV output path (default: stdout)")
    return parser


def _parse_evidence(items: list[str]) -> dict[str, str]:
    evidence: dict[str, str] = {}
    for item in items:
        name, sep, outcome = item.partition("=")
        if not sep or not name or not outcome:
            raise ValidationError(f"evidence {item!r} is not of the form VAR=OUTCOME")
        if name in evidence:
            raise ValidationError(f"evidence names {name!r} twice")
        evidence[name] = outcome
    return evidence


def _parse_degree(spec: str) -> float | None:
    """None means the entropy heuristic decides; a float is used as given."""
    if spec == "auto":
        return None
    if spec == "zero":
        return 0.0
    if spec.startswith("fixed:"):
        try:
            value = float(spec[len("fixed:"):])
        except ValueError:
            raise ValidationError(f"cannot parse degree {spec!r}") from None
        if not -1.0 <= value <= 1.0:
            raise ValidationError(f"fixed degree {value!r} is outside [-1, 1]")
        return value
    raise ValidationError(
        f"degree policy {spec!r} is not auto, zero, or fixed:<value>"
    )


def _bba_from_json(doc: object):
    if not isinstance(doc, dict) or "frame" not in doc or "masses" not in doc:
        raise ValidationError("expected an object with 'frame' and 'masses'")
    elements = doc["frame"]
    if not isinstance(elements, list):
        raise ValidationError(f"the frame needs a list of labels, got {elements!r}")
    frame = Frame(tuple(str(e) for e in elements))
    raw = {}
    for key, value in doc["masses"].items():
        labels = tuple(part.strip() for part in str(key).split(",") if part.strip())
        try:
            mass = parse_number(value, ValidationError)
        except ValidationError:
            raise ValidationError(f"mass {value!r} for {key!r} is not a number") from None
        raw[labels] = raw.get(labels, 0.0) + mass
    return validate_bba(raw, frame)


def cmd_entropy(args: argparse.Namespace) -> int:
    bba = read_json(args.bba, _bba_from_json)
    parts = []
    if bba.is_bayesian():
        parts.append(f"shannon={shannon_entropy(bba.singleton_distribution()):.5f}")
    parts.append(f"deng={deng_entropy(bba):.5f}")
    print(" ".join(parts))
    return 0


def _csv(keys: tuple[str, ...], rows) -> str:
    return render_csv(Table(tuple((key, key) for key in keys), tuple(rows)))


def _print_distribution(items, fmt: str, query: str) -> None:
    """Print (outcome, probability) pairs as an aligned table, csv or json."""
    if fmt == "table":
        width = max(len(lb) for lb, _ in items)
        for lb, p in items:
            print(f"{lb.ljust(width)}  {p:.5f}")
    elif fmt == "csv":
        print(_csv(("outcome", "probability"), items), end="")
    else:
        print(json.dumps({"query": query, "distribution": dict(items)}, indent=2))


def cmd_infer(args: argparse.Namespace) -> int:
    evidence = _parse_evidence(args.evidence)
    fixed = _parse_degree(args.degree)
    net = load_network(args.network)
    if args.mode == "classical":
        dist = infer(net, args.query, evidence)
        _print_distribution(dist.items(), args.format, args.query)
        return 0

    enumerate_ = weighable_magnitudes if fixed is None else completion_magnitudes
    magnitudes = enumerate_(amplitudes_from_network(net), args.query, evidence)
    pairs = outcome_pairs(magnitudes)
    degree_value, degree_raw = pair_degree(pairs) if fixed is None else (fixed, fixed)
    if args.verbose:
        if not pairs:
            print("vectors: unavailable for this structure")
        for pair in pairs:
            try:
                distance = f"{belief_distance(pair.alpha, pair.beta):.5f}"
            except SingularDenominatorError:
                distance = "singular"  # a fixed degree does not depend on it
            print(f"vector {pair.outcome}: alpha={pair.alpha:.5f} "
                  f"beta={pair.beta:.5f} distance={distance}")
        print(f"degree: raw={degree_raw:.5f} value={degree_value:.5f} ({args.degree})")
    result = posterior(args.query, magnitudes, degree_value)
    if args.verbose:
        for om in result.outcomes:
            clamp = " (clamped to 0)" if om.clamped else ""
            print(f"mass {om.outcome}: classical={om.classical_part:.5f} "
                  f"interference={om.interference_part:.5f} "
                  f"unnormalized={om.unnormalized:.5f}{clamp}")
        print(f"normalizer={result.normalizer:.5f}")
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    elif args.format == "csv":
        rows = (om._replace(clamped=str(om.clamped)) for om in result.outcomes)
        print(_csv(OutcomeMass._fields, rows), end="")
    else:
        _print_distribution(
            [(om.outcome, om.probability) for om in result.outcomes], "table", args.query
        )
    return 0


def _emit_report(report, fmt: str) -> None:
    if fmt == "table":
        print(render_report_table(report))
    elif fmt == "csv":
        print(render_report_csv(report), end="")
    else:
        print(json.dumps(report_to_dict(report), indent=2))


def cmd_predict(args: argparse.Namespace) -> int:
    _emit_report(run_comparison(load_scenarios(args.scenario)), args.format)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    data = load_builtin()
    scenarios = load_scenarios(args.scenario) if args.scenario else data.scenarios
    _emit_report(run_comparison(scenarios, data.literature()), args.format)
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    result = run_reproduction()
    print(render_reproduction(result, args.format), end="")
    if args.out:
        write_reproduction(result, args.out)
    if not result.all_passed():
        raise GoldenMismatchError(result.failures())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    # Cancelled mass leaves a row's prediction and fit error empty.
    scenarios = load_scenarios(args.scenario) if args.scenario else load_builtin().scenarios
    by_name = {s.name: s for s in scenarios}
    if args.name not in by_name:
        raise ValidationError(f"no scenario named {args.name!r}; available: {sorted(by_name)}")
    if args.steps < 2:
        raise ValidationError("--steps must be at least 2")
    scenario = by_name[args.name]
    anet = amplitudes_from_network(scenario_to_network(scenario))
    magnitudes = completion_magnitudes(anet, PLAYER_TWO, {})
    auto = pair_degree(outcome_pairs(magnitudes))

    def row(degree: float, source: str) -> tuple:
        try:
            prediction = posterior(PLAYER_TWO, magnitudes, degree).probability(DEFECT)
        except NegativeUnnormalizedMassError:
            return degree, None, None, source
        return degree, prediction, fit_error(prediction, scenario.observed_unknown), source

    degrees = [-1.0 + 2.0 * i / (args.steps - 1) for i in range(args.steps)]
    rows = [row(degree, "sweep") for degree in degrees] + [row(auto.value, "heuristic")]
    text = _csv(("degree", "prediction", "fit_error", "source"), rows)
    if not args.out:
        print(text, end="")
        return 0
    try:
        with open(args.out, "w", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out}: {exc}") from None
    print(f"wrote {args.out} ({args.steps} sweep rows plus the heuristic row)")
    return 0


_COMMANDS = {
    "entropy": cmd_entropy,
    "infer": cmd_infer,
    "predict": cmd_predict,
    "compare": cmd_compare,
    "reproduce": cmd_reproduce,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except GoldenMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QlbnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
