"""The error surface: one validation error, four named inference causes, and one
exit code per family."""

from __future__ import annotations

import ast
import builtins
import importlib
import re
from pathlib import Path

import pytest

from qlbn import errors

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"

INFERENCE_CAUSES = {
    "InconsistentEvidenceError",
    "NegativeUnnormalizedMassError",
    "UnsupportedStructureError",
    "SingularDenominatorError",
}

# Read from the source, as test_perfbench_spans reads the workloads' names, so the
# bench is never imported.
BENCH_CAUSES = re.findall(
    r'"(\w+)":', re.search(r"CAUSES = \{(.*?)\}", WORKLOADS.read_text(), re.S).group(1)
)


def test_validation_error_has_no_subclasses():
    assert errors.ValidationError.__subclasses__() == []


def test_validation_error_is_a_value_error():
    assert issubclass(errors.ValidationError, ValueError)


def test_no_raise_names_a_builtin_exception_other_than_system_exit():
    found = []
    for path in sorted((ROOT / "src" / "qlbn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised = getattr(builtins, getattr(exc, "id", ""), None)
            if isinstance(raised, type) and issubclass(raised, BaseException) \
                    and raised is not SystemExit:
                found.append(f"{path.name}:{node.lineno} {exc.id}")
    assert found == []


def test_inference_error_has_exactly_the_four_causes():
    assert {c.__name__ for c in errors.InferenceError.__subclasses__()} == INFERENCE_CAUSES


def test_bench_reads_causes_by_name():
    assert BENCH_CAUSES


@pytest.mark.parametrize("name", BENCH_CAUSES)
def test_bench_cause_is_an_inference_error(name: str):
    cause = getattr(errors, name, None)
    assert isinstance(cause, type) and issubclass(cause, errors.InferenceError)


def test_each_family_has_its_exit_code():
    assert [errors.ValidationError.exit_code, errors.InferenceError.exit_code,
            errors.GoldenMismatchError.exit_code] == [1, 2, 3]


@pytest.mark.parametrize(
    "module_name",
    ["qlbn", "qlbn.errors", "qlbn.belief", "qlbn.bayesnet", "qlbn.quantum",
     "qlbn.heuristic", "qlbn.scenarios", "qlbn.cli"],
)
def test_removed_validation_classes_are_gone(module_name: str):
    module = importlib.import_module(module_name)
    removed = (
        "EmptySetMassError", "MassOutOfRangeError", "MassSumMismatchError",
        "UnknownElementError", "NetworkDefinitionError", "UnknownVariableError",
        "IncompleteAssignmentError", "QueryInEvidenceError", "NonBinaryVariableError",
        "ZeroObservedError",
    )
    assert [name for name in removed if hasattr(module, name)] == []
