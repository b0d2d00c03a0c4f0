"""Two-player game scenarios: build networks, predict the unobserved round, compare fits.

A scenario fixes the second player's defection probability conditional on each
first-player move plus the observed defection rate when the first move stays
unknown. The classical prediction averages the conditionals over the prior;
the quantum-like prediction runs the interference pipeline with the
entropy-based degree. Fit errors are relative: |predicted - observed| / observed.

The built-in dataset bundles the published benchmark rows (conditions,
observed rates, and two earlier models' printed predictions). Three rows of
the published comparison table came from per-experiment conditionals that
were never published; those appear as constants-only rows and are never
recomputed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .bayesnet import Network, infer, network_from_dict
from .errors import ValidationError, parse_number, read_json
from .heuristic import BeliefDegree, outcome_pairs, pair_degree
from .quantum import amplitudes_from_network, completion_magnitudes, posterior
from .table import Table, render_csv, render_text

PLAYER_ONE = "P1"
PLAYER_TWO = "P2"
DEFECT = "Defect"
COOPERATE = "Cooperate"

# Golden tolerances for the reproduction checks.
TOL_CLASSICAL = 1e-4
TOL_PREDICTION = 5e-4
TOL_FIT = 1e-3
TOL_COMPARISON = 5e-3

# The published scenario columns, checked column by column before the comparison
# rows: (literature.json key, golden label, PredictionRecord field, tolerance).
_PUBLISHED_COLUMNS = (
    ("reported_classical", "classical prediction", "classical_prediction", TOL_CLASSICAL),
    ("reported_prediction", "quantum prediction", "quantum_prediction", TOL_PREDICTION),
    ("reported_fit_error", "fit error", "fit_error_quantum", TOL_FIT),
)

_MODEL_TITLES = {
    "qpdt": "QPDT",
    "dynamic_heuristic": "dynamic heuristic",
    "belief_degree": "belief degree",
}


class _ScenarioFields(NamedTuple):
    # name comes first and payoff_note last; every field between is a probability.
    name: str
    p_defect_given_defect: float
    p_defect_given_cooperate: float
    observed_unknown: float
    prior_defect: float = 0.5
    payoff_note: str | None = None


_NUMBER_KEYS = _ScenarioFields._fields[1:-1]


class Scenario(_ScenarioFields):
    """One game condition: conditionals, prior, and the observed unknown-move rate."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks copies too

    # Takes the fields' own arguments, so their defaults are declared once.
    def __new__(cls, *args, **kwargs) -> Scenario:
        self = _ScenarioFields.__new__(cls, *args, **kwargs)
        numbers = [parse_number(getattr(self, label)) for label in _NUMBER_KEYS]
        for label, value in zip(_NUMBER_KEYS, numbers):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{self.name!r}: {label} = {value!r} is outside [0, 1]")
        if not numbers[2]:  # observed_unknown, which both fit errors divide by
            raise ValidationError(
                f"{self.name!r}: observed_unknown = {numbers[2]!r} leaves the relative fit "
                "errors undefined"
            )
        return _ScenarioFields.__new__(cls, self.name, *numbers, self.payoff_note)


# The game's structure, checked and compiled once; each CPT row lists Defect, then Cooperate.
_GAME = network_from_dict({
    "variables": [{"name": PLAYER_ONE, "outcomes": [COOPERATE, DEFECT]},
                  {"name": PLAYER_TWO, "outcomes": [DEFECT, COOPERATE]}],
    "edges": [[PLAYER_ONE, PLAYER_TWO]],
    "cpts": {PLAYER_ONE: [{"given": {}, "dist": {DEFECT: 0.5, COOPERATE: 0.5}}],
             PLAYER_TWO: [{"given": {PLAYER_ONE: move}, "dist": {DEFECT: 0.5, COOPERATE: 0.5}}
                          for move in (COOPERATE, DEFECT)]},
})


def scenario_to_network(scenario: Scenario) -> Network:
    """Two-node network P1 -> P2 for one scenario.

    P1 declares Cooperate first, so downstream outcome-vector pairs read as
    (cooperating opponent, defecting opponent); P2 declares Defect first, the
    outcome every report leads with.
    """
    rows = ((scenario.prior_defect,),
            (scenario.p_defect_given_cooperate, scenario.p_defect_given_defect))
    table = tuple([
        (get, dict(zip(keys, [p for d in row for p in (d, 1.0 - d)])))
        for (get, keys), row in zip(_GAME.table, rows)
    ])
    return _GAME._replace(table=table)


def fit_error(predicted: float, observed: float) -> float:
    """Relative error |predicted - observed| / observed; observed must be in (0, 1]."""
    if not 0.0 < observed <= 1.0:
        raise ValidationError(f"relative fit error undefined for observed {observed!r}")
    return abs(predicted - observed) / observed


class PredictionRecord(NamedTuple):
    """Everything one scenario produced, plus optional published model columns."""

    scenario: Scenario
    classical_prediction: float
    quantum_prediction: float
    degree: BeliefDegree
    fit_error_classical: float
    fit_error_quantum: float
    literature_comparisons: dict[str, tuple[float, float]] | None = None


def predict_unknown(
    scenario: Scenario,
    literature: Mapping[str, tuple[float, float]] | None = None,
) -> PredictionRecord:
    """Classical and quantum-like defection predictions for the unknown-move round."""
    net = scenario_to_network(scenario)
    classical = infer(net, PLAYER_TWO, {}).prob(DEFECT)
    magnitudes = completion_magnitudes(amplitudes_from_network(net), PLAYER_TWO, {})
    degree = pair_degree(outcome_pairs(magnitudes))
    quantum = posterior(PLAYER_TWO, magnitudes, degree.value).probability(DEFECT)
    return PredictionRecord(
        scenario=scenario,
        classical_prediction=classical,
        quantum_prediction=quantum,
        degree=degree,
        fit_error_classical=fit_error(classical, scenario.observed_unknown),
        fit_error_quantum=fit_error(quantum, scenario.observed_unknown),
        literature_comparisons=dict(literature) if literature else None,
    )


class ComparisonReport(NamedTuple):
    """Per-scenario records plus arithmetic-mean fit errors per model column."""

    records: tuple[PredictionRecord, ...]
    average_fit_classical: float
    average_fit_quantum: float
    average_fit_literature: dict[str, float]


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def run_comparison(
    scenarios: Sequence[Scenario],
    literature: Mapping[str, Mapping[str, tuple[float, float]]] | None = None,
) -> ComparisonReport:
    """Evaluate every scenario and average the fit-error columns.

    Args:
        scenarios: conditions to evaluate, reported in input order.
        literature: scenario name -> {model -> (predicted, fit_error)} published
            columns to carry alongside, averaged over the rows that have them.
    """
    if not scenarios:
        raise ValidationError("need at least one scenario to compare")
    literature = literature or {}
    records = tuple(
        predict_unknown(s, literature.get(s.name)) for s in scenarios
    )
    model_errors: dict[str, list[float]] = {}
    for record in records:
        for model, (_, err) in (record.literature_comparisons or {}).items():
            model_errors.setdefault(model, []).append(err)
    return ComparisonReport(
        records=records,
        average_fit_classical=_mean([r.fit_error_classical for r in records]),
        average_fit_quantum=_mean([r.fit_error_quantum for r in records]),
        average_fit_literature={m: _mean(errs) for m, errs in model_errors.items()},
    )


# --- scenario files -----------------------------------------------------------
#
# A scenario file is a JSON list of objects with keys name,
# p_defect_given_defect, p_defect_given_cooperate, observed_unknown and the
# optional prior_defect and payoff_note. Probabilities may be numbers or
# decimal strings.

_OPTIONAL_KEYS = set(_ScenarioFields._field_defaults)
_REQUIRED_KEYS = set(_ScenarioFields._fields) - _OPTIONAL_KEYS


def scenarios_from_json(doc: object) -> list[Scenario]:
    if not isinstance(doc, list):
        raise ValidationError("a scenario file must contain a JSON list")
    if not doc:
        raise ValidationError("no scenarios to evaluate")
    out: list[Scenario] = []
    for i, row in enumerate(doc):
        if not isinstance(row, dict):
            raise ValidationError(f"scenario {i}: expected an object, got {row!r}")
        keys = set(row)
        missing = _REQUIRED_KEYS - keys
        unknown = keys - _REQUIRED_KEYS - _OPTIONAL_KEYS
        if missing or unknown:
            raise ValidationError(
                f"scenario {i}: missing keys {sorted(missing)}, unknown keys {sorted(unknown)}"
            )
        try:
            out.append(Scenario(**{**row, "name": str(row["name"])}))
        except ValidationError as exc:
            raise ValidationError(f"scenario {i}: {exc}") from None
    return out


def load_scenarios(path: str | Path) -> list[Scenario]:
    return read_json(path, scenarios_from_json)


# --- built-in dataset --------------------------------------------------------


class Table3Row(NamedTuple):
    """One published comparison-table row: the earlier models' printed columns
    plus this model's prediction. The built-in dataset holds the printed
    prediction (basis 'published'); run_reproduction recomputes it for the rows
    whose scenario_name links a built-in scenario (basis 'computed')."""

    name: str
    observed: float
    models: dict[str, tuple[float, float]]
    prediction: float
    prediction_fit: float
    basis: str
    scenario_name: str | None


class PublishedValue(NamedTuple):
    """One printed number the reproduction must land on: the PredictionRecord
    field it checks for the named scenario, and the check's tolerance."""

    label: str
    scenario: str
    field: str
    value: float
    tolerance: float


class BuiltinDataset(NamedTuple):
    """The bundled published tables, parsed once by load_builtin: published lists
    what run_reproduction checks, in order; the mean fit errors are keyed by model."""

    scenarios: tuple[Scenario, ...]
    published: tuple[PublishedValue, ...]
    comparison_rows: tuple[Table3Row, ...]
    reported_average_fit_errors: dict[str, float]

    def literature(self) -> dict[str, dict[str, tuple[float, float]]]:
        """Scenario name -> published model columns, over the linked comparison rows."""
        return {r.scenario_name: r.models for r in self.comparison_rows if r.scenario_name}


_LITERATURE = Path(__file__).with_name("data") / "literature.json"


def load_builtin() -> BuiltinDataset:
    """Parse the bundled literature.json; malformed content raises ValidationError."""
    return read_json(_LITERATURE, _builtin_from_json)


def _builtin_from_json(doc: dict) -> BuiltinDataset:
    # every scenario carries the file's payoff note
    note = doc.get("payoff_note")
    rows = doc["scenarios"]
    comparison_rows = tuple(
        Table3Row(
            name=row["name"],
            observed=row["observed"],
            models={m: (v[0], v[1]) for m, v in row["models"].items()},
            prediction=row["reported_prediction"],
            prediction_fit=row["reported_fit_error"],
            basis="published",
            scenario_name=row["scenario"],
        )
        for row in doc["comparison_rows"]
    )
    return BuiltinDataset(
        scenarios=tuple(
            Scenario(**{key: row[key] for key in _REQUIRED_KEYS}, payoff_note=note)
            for row in rows
        ),
        published=(
            *(PublishedValue(f"{label} ({row['name']})", row["name"], field, row[key], tolerance)
              for key, label, field, tolerance in _PUBLISHED_COLUMNS
              for row in rows
              if key in row),
            *(PublishedValue(f"comparison prediction ({row.name})", row.scenario_name,
                             "quantum_prediction", row.prediction, TOL_COMPARISON)
              for row in comparison_rows
              if row.scenario_name),
        ),
        comparison_rows=comparison_rows,
        reported_average_fit_errors=dict(doc["reported_average_fit_errors"]),
    )


# --- reproduction -------------------------------------------------------------


class GoldenCheck(NamedTuple):
    """One published value the pipeline must land on within tolerance."""

    label: str
    expected: float
    actual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.actual - self.expected) <= self.tolerance


class ReproductionResult(NamedTuple):
    comparison: ComparisonReport
    table3: tuple[Table3Row, ...]
    goldens: tuple[GoldenCheck, ...]

    def failures(self) -> list[str]:
        return [
            f"{g.label}: expected {g.expected} +- {g.tolerance}, got {g.actual!r}"
            for g in self.goldens
            if not g.passed
        ]


def run_reproduction() -> ReproductionResult:
    """Evaluate the built-in dataset, check every published value, and put the
    computed prediction into each comparison row that links a scenario."""
    data = load_builtin()
    comparison = run_comparison(data.scenarios, data.literature())
    by_name = {rec.scenario.name: rec for rec in comparison.records}
    goldens = tuple(
        GoldenCheck(p.label, p.value, getattr(by_name[p.scenario], p.field), p.tolerance)
        for p in data.published
    )
    table3: list[Table3Row] = []
    for row in data.comparison_rows:
        if row.scenario_name:
            record = by_name[row.scenario_name]
            row = row._replace(
                prediction=record.quantum_prediction,
                prediction_fit=record.fit_error_quantum,
                basis="computed",
            )
        table3.append(row)
    return ReproductionResult(comparison, tuple(table3), goldens)


# --- rendering ----------------------------------------------------------------


def _model_columns(models: Sequence[str]) -> list[tuple[str, str]]:
    columns = []
    for model in models:
        title = _MODEL_TITLES.get(model, model)
        columns += [(f"{model}_prediction", title), (f"{model}_fit", f"{title} fit")]
    return columns


def _report_table(report: ComparisonReport) -> Table:
    # report_to_dict's record fields but the raw degree, then the published columns;
    # a column's mean is the dict's mean_<column> where there is one
    doc = report_to_dict(report)
    # the models with published columns, in the order records first name them
    models = list(doc["mean_fit_literature"])
    keys = [key for key in doc["records"][0] if key not in ("degree_raw", "literature")]
    blank = {"prediction": None, "fit": None}
    return Table(
        tuple((key, key) for key in keys) + tuple(_model_columns(models)),
        tuple(
            (*(rec[key] for key in keys),
             *(v for m in models for v in rec["literature"].get(m, blank).values()))
            for rec in doc["records"]
        ),
        {
            **{key: doc[f"mean_{key}"] for key in keys if f"mean_{key}" in doc},
            **{f"{m}_fit": fit for m, fit in doc["mean_fit_literature"].items()},
        },
    )


def _table3_models(result: ReproductionResult) -> list[str]:
    return list(result.table3[0].models) if result.table3 else []


def _table3(result: ReproductionResult) -> Table:
    models = _table3_models(result)
    return Table(
        (("condition", "condition"), ("observed", "observed"), *_model_columns(models),
         ("prediction", "this model"), ("prediction_fit", "fit"), ("basis", "basis")),
        tuple(
            (row.name, row.observed, *(v for m in models for v in row.models[m]),
             row.prediction, row.prediction_fit, row.basis)
            for row in result.table3
        ),
        {
            **{f"{m}_fit": _mean([row.models[m][1] for row in result.table3])
               for m in models},
            "prediction_fit": _mean([row.prediction_fit for row in result.table3]),
        },
    )


def render_report_table(report: ComparisonReport) -> str:
    """Aligned text table of a comparison report, 5 decimals per number."""
    return render_text(_report_table(report))


def render_report_csv(report: ComparisonReport) -> str:
    """CSV of a comparison report; floats keep full round-trip precision."""
    return render_csv(_report_table(report))


def report_to_dict(report: ComparisonReport) -> dict:
    return {
        "records": [
            {
                "scenario": r.scenario.name,
                "observed": r.scenario.observed_unknown,
                "classical": r.classical_prediction,
                "quantum": r.quantum_prediction,
                "degree": r.degree.value,
                "degree_raw": r.degree.raw,
                "fit_classical": r.fit_error_classical,
                "fit_quantum": r.fit_error_quantum,
                "literature": {
                    m: {"prediction": p, "fit": e}
                    for m, (p, e) in (r.literature_comparisons or {}).items()
                },
            }
            for r in report.records
        ],
        "mean_fit_classical": report.average_fit_classical,
        "mean_fit_quantum": report.average_fit_quantum,
        "mean_fit_literature": dict(report.average_fit_literature),
    }


def render_table3(result: ReproductionResult) -> str:
    """Aligned text table of the published-models comparison."""
    return render_text(_table3(result))


def render_table3_csv(result: ReproductionResult) -> str:
    """CSV of the published-models comparison; unlike the text table, no mean row."""
    return render_csv(_table3(result)._replace(mean=None))


def render_observed_vs_predicted_csv(report: ComparisonReport) -> str:
    """Bar-chart-shaped series: one row per scenario, observed next to both models."""
    keys = ("scenario", "observed", "classical", "quantum")
    return render_csv(_report_table(report).select({k: k for k in keys}))


def render_model_comparison_csv(result: ReproductionResult) -> str:
    """Bar-chart-shaped series over the comparison rows, all models side by side."""
    models = _table3_models(result)
    return render_csv(_table3(result).select({
        "condition": "condition",
        "observed": "observed",
        **{f"{m}_prediction": m for m in models},
        "prediction": "belief_degree",
    }))


def render_reproduction(result: ReproductionResult, fmt: str) -> str:
    """The whole reproduction as `qlbn reproduce` prints it: table, csv or json.

    The table form is also the text of report.txt.
    """
    if fmt == "json":
        return json.dumps(
            {
                "comparison": report_to_dict(result.comparison),
                "published_models": [
                    {
                        "condition": row.name,
                        "observed": row.observed,
                        "models": {m: {"prediction": p, "fit": e}
                                   for m, (p, e) in row.models.items()},
                        "prediction": row.prediction,
                        "prediction_fit": row.prediction_fit,
                        "basis": row.basis,
                    }
                    for row in result.table3
                ],
                "goldens": [{**g._asdict(), "passed": g.passed} for g in result.goldens],
            },
            indent=2,
        ) + "\n"
    if fmt == "csv":
        return render_report_csv(result.comparison) + "\n" + render_table3_csv(result)
    golden_lines = "".join(
        f"{'PASS' if g.passed else 'FAIL'}  {g.label}: expected {g.expected} "
        f"+- {g.tolerance}, got {g.actual:.6f}\n"
        for g in result.goldens
    )
    return (
        "benchmark predictions\n" + render_report_table(result.comparison)
        + "\n\npublished-model comparison\n" + render_table3(result)
        + "\n\ngolden checks\n" + golden_lines
    )


def write_reproduction(result: ReproductionResult, out: str | Path) -> None:
    """Write report.txt and the four CSV series of a reproduction into directory out."""
    files = {
        "table2.csv": render_report_csv(result.comparison),
        "table3.csv": render_table3_csv(result),
        "observed_vs_predicted.csv": render_observed_vs_predicted_csv(result.comparison),
        "model_comparison.csv": render_model_comparison_csv(result),
        "report.txt": render_reproduction(result, "table"),
    }
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc}") from None
