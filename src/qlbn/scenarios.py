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

import math
import sys
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .bayesnet import Network, infer, network_from_dict
from .errors import (InferenceError, NegativeUnnormalizedMassError, ValidationError, parse_number,
                     read_json)
from .heuristic import BeliefDegree, pair_degree
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
# rows: (literature.json key, golden label, comparison record key, tolerance).
_PUBLISHED_COLUMNS = (
    ("reported_classical", "classical prediction", "classical", TOL_CLASSICAL),
    ("reported_prediction", "quantum prediction", "quantum", TOL_PREDICTION),
    ("reported_fit_error", "fit error", "fit_quantum", TOL_FIT),
)

_MODEL_TITLES = {
    "qpdt": "QPDT",
    "dynamic_heuristic": "dynamic heuristic",
    "belief_degree": "belief degree",
}


class _ScenarioFields(NamedTuple):
    # name comes first; every field after it is a probability.
    name: str
    p_defect_given_defect: float
    p_defect_given_cooperate: float
    observed_unknown: float
    prior_defect: float = 0.5


_NUMBER_KEYS = _ScenarioFields._fields[1:]


class Scenario(_ScenarioFields):
    """One game condition: conditionals, prior, and the observed unknown-move rate."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks copies too

    # Takes the fields' own arguments, so their defaults are declared once.
    def __new__(cls, *args, **kwargs) -> Scenario:
        self = _ScenarioFields.__new__(cls, *args, **kwargs)
        if not isinstance(self.name, str):  # the reports print it as text and key on it
            raise ValidationError(f"scenario name {self.name!r} is not a string")
        numbers = [parse_number(getattr(self, label)) for label in _NUMBER_KEYS]
        for label, value in zip(_NUMBER_KEYS, numbers):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{self.name!r}: {label} = {value!r} is outside [0, 1]")
        if numbers[2] < sys.float_info.min:  # both fits divide by it; below this they overflow
            raise ValidationError(
                f"{self.name!r}: observed_unknown = {numbers[2]!r} leaves the relative fit "
                "errors undefined"
            )
        return _ScenarioFields.__new__(cls, self.name, *numbers)


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
    """Relative error |predicted - observed| / observed; observed must lie between the
    smallest normal float and 1, so the error stays finite."""
    if not sys.float_info.min <= observed <= 1.0:
        raise ValidationError(f"relative fit error undefined for observed {observed!r}")
    return abs(predicted - observed) / observed


class PredictionRecord(NamedTuple):
    """Everything one scenario produced."""

    classical_prediction: float
    quantum_prediction: float
    degree: BeliefDegree
    fit_error_classical: float
    fit_error_quantum: float


def predict_unknown(scenario: Scenario) -> PredictionRecord:
    """Classical and quantum-like defection predictions for the unknown-move round."""
    net = scenario_to_network(scenario)
    classical = infer(net, PLAYER_TWO, {}).prob(DEFECT)
    magnitudes = completion_magnitudes(amplitudes_from_network(net), PLAYER_TWO, {})
    degree = pair_degree(PLAYER_TWO, magnitudes)
    quantum = posterior(PLAYER_TWO, magnitudes, degree.value).probability(DEFECT)
    return PredictionRecord(
        classical_prediction=classical,
        quantum_prediction=quantum,
        degree=degree,
        fit_error_classical=fit_error(classical, scenario.observed_unknown),
        fit_error_quantum=fit_error(quantum, scenario.observed_unknown),
    )


def sweep(scenario: Scenario, degrees: Sequence[float]) -> Table:
    """The quantum-like prediction and fit error at each degree, then at the heuristic's,
    from one enumeration; both stay empty where interference cancels all mass."""
    net = scenario_to_network(scenario)
    magnitudes = completion_magnitudes(amplitudes_from_network(net), PLAYER_TWO, {})
    auto = pair_degree(PLAYER_TWO, magnitudes)

    def row(degree: float, source: str) -> tuple:
        try:
            prediction = posterior(PLAYER_TWO, magnitudes, degree).probability(DEFECT)
        except NegativeUnnormalizedMassError:
            return degree, None, None, source
        return degree, prediction, fit_error(prediction, scenario.observed_unknown), source

    rows = [row(degree, "sweep") for degree in degrees] + [row(auto.value, "heuristic")]
    columns = ("degree", "prediction", "fit_error", "source")
    return Table(tuple((key, key) for key in columns), tuple(rows))


def _mean(values: Sequence[float]) -> float:
    try:
        return math.fsum(values) / len(values)
    except OverflowError:  # finite values whose sum passes the largest float
        return math.fsum([v / len(values) for v in values])


def run_comparison(
    scenarios: Sequence[Scenario],
    literature: Mapping[str, Mapping[str, Mapping[str, float]]] | None = None,
) -> dict:
    """The document `predict` and `compare --format json` print: a record per
    scenario, in input order, then the arithmetic-mean fit error of each column over
    the records that have it. A scenario whose prediction raises InferenceError keeps
    its record with every predicted cell None, and the document ends in a "failures"
    list naming it and the cause; when no scenario predicts, the first one's error
    propagates.

    Args:
        scenarios: conditions to evaluate.
        literature: scenario name -> {model -> {"prediction", "fit"}} published
            cells to carry in the records, averaged over the records that have them.
    """
    if not scenarios:
        raise ValidationError("need at least one scenario to compare")
    literature = literature or {}
    records, failures = [], []
    for scenario in scenarios:
        try:
            r = predict_unknown(scenario)
        except InferenceError as exc:
            failures.append((scenario.name, exc))
            r = PredictionRecord(None, None, BeliefDegree(None, None), None, None)  # all blank
        records.append({
            "scenario": scenario.name,
            "observed": scenario.observed_unknown,
            "classical": r.classical_prediction,
            "quantum": r.quantum_prediction,
            "degree": r.degree.value,
            "degree_raw": r.degree.raw,
            "fit_classical": r.fit_error_classical,
            "fit_quantum": r.fit_error_quantum,
            "literature": dict(literature.get(scenario.name, {})),
        })
    if len(failures) == len(records):
        raise failures[0][1]
    model_errors: dict[str, list[float]] = {}
    for record in records:
        for model, cell in record["literature"].items():
            model_errors.setdefault(model, []).append(cell["fit"])
    predicted = [r for r in records if r["quantum"] is not None]
    report = {
        "records": records,
        "mean_fit_classical": _mean([r["fit_classical"] for r in predicted]),
        "mean_fit_quantum": _mean([r["fit_quantum"] for r in predicted]),
        "mean_fit_literature": {m: _mean(errs) for m, errs in model_errors.items()},
    }
    if failures:
        report["failures"] = [{"scenario": name, "error": str(exc)} for name, exc in failures]
    return report


def check_predicted(report: dict) -> None:
    """Raise InferenceError naming every failed scenario of a run_comparison document
    and its cause; a document without failures passes."""
    if failures := report.get("failures"):
        raise InferenceError("no prediction for " + "; ".join(
            f"scenario {f['scenario']!r}: {f['error']}" for f in failures))


# --- scenario files -----------------------------------------------------------
#
# A scenario file is a JSON list of objects with keys name,
# p_defect_given_defect, p_defect_given_cooperate, observed_unknown and the
# optional prior_defect. Names are strings, unique within the file, since the
# reports key on them. Probabilities may be numbers or decimal strings.

_OPTIONAL_KEYS = set(_ScenarioFields._field_defaults)
_REQUIRED_KEYS = set(_ScenarioFields._fields) - _OPTIONAL_KEYS


def scenarios_from_json(doc: object) -> list[Scenario]:
    if not isinstance(doc, list):
        raise ValidationError("a scenario file must contain a JSON list")
    if not doc:
        raise ValidationError("no scenarios to evaluate")
    out: dict[str, Scenario] = {}
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
            scenario = Scenario(**row)
        except ValidationError as exc:
            raise ValidationError(f"scenario {i}: {exc}") from None
        if scenario.name in out:
            raise ValidationError(f"scenario name {scenario.name!r} is repeated")
        out[scenario.name] = scenario
    return list(out.values())


def load_scenarios(path: str | Path) -> list[Scenario]:
    return read_json(path, scenarios_from_json)


# --- built-in dataset --------------------------------------------------------


class PublishedValue(NamedTuple):
    """One printed number the reproduction must land on: the run_comparison
    record key it checks for the named scenario, and the check's tolerance."""

    label: str
    scenario: str
    field: str
    value: float
    tolerance: float


class BuiltinDataset(NamedTuple):
    """The bundled published tables, parsed once by load_builtin: published lists
    what run_reproduction checks, in order; comparison_rows are table 3's printed
    rows, each model a {"prediction", "fit"} cell, and links[i] names the scenario
    that recomputes row i and no other, or is None."""

    scenarios: tuple[Scenario, ...]
    published: tuple[PublishedValue, ...]
    comparison_rows: tuple[dict, ...]
    links: tuple[str | None, ...]

    def literature(self) -> dict[str, dict[str, dict[str, float]]]:
        """Scenario name -> published model cells, over the linked comparison rows."""
        return {link: row["models"] for row, link in zip(self.comparison_rows, self.links)
                if link}


_LITERATURE = Path(__file__).with_name("data") / "literature.json"


def load_builtin() -> BuiltinDataset:
    """Parse the bundled literature.json; malformed content raises ValidationError."""
    return read_json(_LITERATURE, _builtin_from_json)


def _builtin_from_json(doc: dict) -> BuiltinDataset:
    # a scenario row is a scenario-file row plus the published columns
    rows, table3 = doc["scenarios"], doc["comparison_rows"]
    if not table3:
        raise ValidationError("comparison_rows is empty")
    names = [row["name"] for row in rows]
    links = tuple(row["scenario"] for row in table3)
    for row, link in zip(table3, links):  # run_reproduction reads each link, _table3 row 0's models
        name = row["name"]
        if link is not None and link not in names:
            raise ValidationError(f"comparison row {name!r} links {link!r}, which no scenario names")
        if link is not None and (first := table3[links.index(link)]) is not row:
            raise ValidationError(
                f"comparison rows {first['name']!r} and {name!r} both link {link!r}"
            )
        if missing := [m for m in table3[0]["models"] if m not in row["models"]]:
            raise ValidationError(f"comparison row {name!r} lacks the models {missing}")
    # scenarios_from_json checks the scenario names; the reports print these as text
    if odd := [row["name"] for row in table3 if not isinstance(row["name"], str)]:
        raise ValidationError(f"comparison row name {odd[0]!r} is not a string")
    comparison_rows = tuple(map(_comparison_row, table3))
    published = {key for key, *_ in _PUBLISHED_COLUMNS}
    return BuiltinDataset(
        scenarios=tuple(scenarios_from_json([{k: v for k, v in row.items() if k not in published}
                                             for row in rows])),
        published=(
            *(PublishedValue(f"{label} ({row['name']})", row["name"], field,
                             _number(f"scenario {row['name']!r}: {key}", row[key]), tolerance)
              for key, label, field, tolerance in _PUBLISHED_COLUMNS
              for row in rows
              if key in row),
            *(PublishedValue(f"comparison prediction ({row['condition']})", link,
                             "quantum", row["prediction"], TOL_COMPARISON)
              for row, link in zip(comparison_rows, links)
              if link),
        ),
        comparison_rows=comparison_rows,
        links=links,
    )


def _comparison_row(row: dict) -> dict:
    where = f"comparison row {row['name']!r}"
    return {
        "condition": row["name"],
        "observed": _number(f"{where}: observed", row["observed"]),
        "models": {m: {"prediction": _number(f"{where}: {m} prediction", v[0]),
                       "fit": _number(f"{where}: {m} fit", v[1])}
                   for m, v in row["models"].items()},
        "prediction": _number(f"{where}: reported_prediction", row["reported_prediction"]),
        "prediction_fit": _number(f"{where}: reported_fit_error", row["reported_fit_error"]),
        "basis": "published",
    }


def _number(where: str, value: object) -> float:
    """parse_number, its message prefixed with where the value sits in the file."""
    try:
        return parse_number(value)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


# --- reproduction -------------------------------------------------------------


def run_reproduction() -> dict:
    """The document `reproduce --format json` prints: the built-in dataset's
    comparison; table 3's rows, each that links a scenario with the computed
    prediction; and a golden check of every published value."""
    data = load_builtin()
    comparison = run_comparison(data.scenarios, data.literature())
    check_predicted(comparison)  # every golden reads a prediction
    by_name = {record["scenario"]: record for record in comparison["records"]}
    goldens = []
    for p in data.published:
        actual = by_name[p.scenario][p.field]
        goldens.append({"label": p.label, "expected": p.value, "actual": actual,
                        "tolerance": p.tolerance,
                        "passed": abs(actual - p.value) <= p.tolerance})
    published_models = [
        {
            **row,
            "prediction": by_name[link]["quantum"],
            "prediction_fit": by_name[link]["fit_quantum"],
            "basis": "computed",
        } if link else row
        for row, link in zip(data.comparison_rows, data.links)
    ]
    return {"comparison": comparison, "published_models": published_models, "goldens": goldens}


# --- rendering ----------------------------------------------------------------


def _model_table(keys: Sequence[str], titles: Mapping[str, str], docs: Sequence[Mapping],
                 cell: str, mean: Mapping[str, float]) -> Table:
    """One row per doc, built column by column: one column per key, titled by titles or
    else by the key, except that the {model: {"prediction", "fit"}} dict under key cell
    spreads into a prediction and a fit column for each model, in the order the docs
    first name the models, both empty where a doc lacks the model."""
    models = list(dict.fromkeys(model for doc in docs for model in doc[cell]))
    blank = {"prediction": None, "fit": None}
    columns, rows = [], [[] for _ in docs]
    for key in keys:
        if key != cell:
            columns.append((key, titles.get(key, key)))
            for row, doc in zip(rows, docs):
                row.append(doc[key])
            continue
        for model in models:
            title = _MODEL_TITLES.get(model, model)
            columns += [(f"{model}_prediction", title), (f"{model}_fit", f"{title} fit")]
            for row, doc in zip(rows, docs):
                found = doc[cell].get(model, blank)
                row += found["prediction"], found["fit"]
    return Table(tuple(columns), tuple(map(tuple, rows)), mean)


def _report_table(report: dict) -> Table:
    # run_comparison's records but the raw degree, their published columns spread per
    # model; a column's mean is the document's mean_<column> where there is one
    keys = [key for key in report["records"][0] if key != "degree_raw"]
    return _model_table(keys, {}, report["records"], "literature", {
        **{key: report[f"mean_{key}"] for key in keys if f"mean_{key}" in report},
        **{f"{m}_fit": fit for m, fit in report["mean_fit_literature"].items()},
    })


def _table3(rows: Sequence[dict]) -> Table:
    titles = {"prediction": "this model", "prediction_fit": "fit"}
    return _model_table(list(rows[0]), titles, rows, "models", {
        **{f"{m}_fit": _mean([row["models"][m]["fit"] for row in rows])
           for m in rows[0]["models"]},
        "prediction_fit": _mean([row["prediction_fit"] for row in rows]),
    })


def render_report_table(report: dict) -> str:
    """Aligned text table of a run_comparison document, 5 decimals per number."""
    return render_text(_report_table(report))


def render_report_csv(report: dict) -> str:
    """CSV of a run_comparison document; floats keep full round-trip precision."""
    return render_csv(_report_table(report))


def render_table3(result: dict) -> str:
    """Aligned text table of a reproduction's published-models comparison."""
    return render_text(_table3(result["published_models"]))


def render_table3_csv(result: dict) -> str:
    """CSV of the published-models comparison; unlike the text table, no mean row."""
    return render_csv(_table3(result["published_models"])._replace(mean=None))


def render_observed_vs_predicted_csv(report: dict) -> str:
    """Bar-chart-shaped series: one row per scenario, observed next to both models."""
    keys = ("scenario", "observed", "classical", "quantum")
    rows = tuple(tuple(record[key] for key in keys) for record in report["records"])
    return render_csv(Table(tuple((key, key) for key in keys), rows))


def render_model_comparison_csv(result: dict) -> str:
    """Bar-chart-shaped series over the comparison rows, all models side by side."""
    rows = result["published_models"]
    models = list(rows[0]["models"])
    keys = ("condition", "observed", *models, "belief_degree")
    cells = tuple((row["condition"], row["observed"],
                   *(row["models"][m]["prediction"] for m in models), row["prediction"])
                  for row in rows)
    return render_csv(Table(tuple((key, key) for key in keys), cells))


def render_reproduction(result: dict) -> str:
    """The run_reproduction document as `qlbn reproduce` prints it in text, which is
    also the text of report.txt."""
    golden_lines = "".join(
        f"{'PASS' if g['passed'] else 'FAIL'}  {g['label']}: expected {g['expected']} "
        f"+- {g['tolerance']}, got {g['actual']:.6f}\n"
        for g in result["goldens"]
    )
    return (
        "benchmark predictions\n" + render_report_table(result["comparison"])
        + "\n\npublished-model comparison\n" + render_table3(result)
        + "\n\ngolden checks\n" + golden_lines
    )


def write_reproduction(result: dict, out: str | Path) -> None:
    """Write report.txt and the four CSV series of a run_reproduction document into
    directory out."""
    files = {
        "table2.csv": render_report_csv(result["comparison"]),
        "table3.csv": render_table3_csv(result),
        "observed_vs_predicted.csv": render_observed_vs_predicted_csv(result["comparison"]),
        "model_comparison.csv": render_model_comparison_csv(result),
        "report.txt": render_reproduction(result),
    }
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc}") from None
