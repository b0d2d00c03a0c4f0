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
"""

from __future__ import annotations

import argparse
import json
import sys

# Each command imports the modules it runs, so no command compiles the others.
from .errors import (
    GoldenMismatchError,
    QlbnError,
    SingularDenominatorError,
    ValidationError,
    read_json,
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


def cmd_entropy(args: argparse.Namespace) -> None:
    from .belief import bba_from_json, deng_entropy, shannon_entropy

    bba = read_json(args.bba, bba_from_json)
    parts = []
    if bba.is_bayesian():
        parts.append(f"shannon={shannon_entropy(bba.singleton_distribution()):.5f}")
    parts.append(f"deng={deng_entropy(bba):.5f}")
    print(" ".join(parts))


def cmd_infer(args: argparse.Namespace) -> None:
    from .bayesnet import infer, load_network

    evidence = _parse_evidence(args.evidence)
    fixed = _parse_degree(args.degree)
    net = load_network(args.network)
    if args.mode == "classical":
        distribution = dict(infer(net, args.query, evidence).items())
        doc = {"query": args.query, "distribution": distribution}
        rows = [{"outcome": o, "probability": p} for o, p in doc["distribution"].items()]
    else:
        from .heuristic import belief_distance, pair_degree, weighable_magnitudes
        from .quantum import amplitudes_from_network, completion_magnitudes, posterior

        enumerate_ = weighable_magnitudes if fixed is None else completion_magnitudes
        magnitudes = enumerate_(amplitudes_from_network(net), args.query, evidence)
        degree, raw = pair_degree(args.query, magnitudes) if fixed is None else (fixed, fixed)
        result = posterior(args.query, magnitudes, degree)
        if args.verbose:
            # Only the table shares stdout with the trace, so CSV and JSON stay parseable.
            trace = sys.stdout if args.format == "table" else sys.stderr
            vectors = [(o, *mags) for o, mags in magnitudes.items() if len(mags) == 2]
            if not vectors:
                print("vectors: unavailable for this structure", file=trace)
            for outcome, alpha, beta in vectors:
                try:
                    distance = f"{belief_distance(alpha, beta):.5f}"
                except SingularDenominatorError:
                    distance = "singular"  # a fixed degree does not depend on it
                print(f"vector {outcome}: alpha={alpha:.5f} "
                      f"beta={beta:.5f} distance={distance}", file=trace)
            print(f"degree: raw={raw:.5f} value={degree:.5f} ({args.degree})", file=trace)
            for om in result.outcomes:
                clamp = " (clamped to 0)" if om.clamped else ""
                print(f"mass {om.outcome}: classical={om.classical_part:.5f} "
                      f"interference={om.interference_part:.5f} "
                      f"unnormalized={om.unnormalized:.5f}{clamp}", file=trace)
            print(f"normalizer={result.normalizer:.5f}", file=trace)
        doc = result.to_dict()
        rows = doc["outcomes"]
    # The table and the CSV project the rows of the document that JSON prints whole.
    if args.format == "table":
        width = max(len(row["outcome"]) for row in rows)
        for row in rows:
            print(f"{row['outcome'].ljust(width)}  {row['probability']:.5f}")
    elif args.format == "csv":
        from .table import Table, render_csv

        columns = tuple((key, key) for key in rows[0])
        print(render_csv(Table(columns, tuple(tuple(row.values()) for row in rows))), end="")
    else:
        print(json.dumps(doc, indent=2))


def _emit_report(report: dict, fmt: str) -> None:
    from .scenarios import render_report_csv, render_report_table

    if fmt == "table":
        print(render_report_table(report))
    elif fmt == "csv":
        print(render_report_csv(report), end="")
    else:
        print(json.dumps(report, indent=2))


def cmd_predict(args: argparse.Namespace) -> None:
    from .scenarios import load_scenarios, run_comparison

    _emit_report(run_comparison(load_scenarios(args.scenario)), args.format)


def cmd_compare(args: argparse.Namespace) -> None:
    from .scenarios import load_builtin, load_scenarios, run_comparison

    data = load_builtin()
    scenarios = load_scenarios(args.scenario) if args.scenario else data.scenarios
    _emit_report(run_comparison(scenarios, data.literature()), args.format)


def cmd_reproduce(args: argparse.Namespace) -> None:
    from .scenarios import render_reproduction, run_reproduction, write_reproduction

    result = run_reproduction()
    print(render_reproduction(result, args.format), end="")
    if args.out:
        write_reproduction(result, args.out)
    failures = [f"{g['label']}: expected {g['expected']} +- {g['tolerance']}, got {g['actual']!r}"
                for g in result["goldens"] if not g["passed"]]
    if failures:
        raise GoldenMismatchError(failures)


def cmd_sweep(args: argparse.Namespace) -> None:
    from .scenarios import load_builtin, load_scenarios, sweep
    from .table import render_csv

    scenarios = load_scenarios(args.scenario) if args.scenario else load_builtin().scenarios
    matches = [i for i, s in enumerate(scenarios) if s.name == args.name]
    if not matches:
        names = sorted({s.name for s in scenarios})
        raise ValidationError(f"no scenario named {args.name!r}; available: {names}")
    if len(matches) > 1:
        raise ValidationError(f"scenario name {args.name!r} is repeated, in rows {matches}")
    if args.steps < 2:
        raise ValidationError("--steps must be at least 2")
    degrees = [-1.0 + 2.0 * i / (args.steps - 1) for i in range(args.steps)]
    text = render_csv(sweep(scenarios[matches[0]], degrees))
    if not args.out:
        print(text, end="")
        return
    try:
        with open(args.out, "w", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out}: {exc}") from None
    print(f"wrote {args.out} ({args.steps} sweep rows plus the heuristic row)")


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
        _COMMANDS[args.command](args)
    except QlbnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0
