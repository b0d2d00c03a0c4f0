"""Exception types raised across the package.

Two families matter to callers: ValidationError for rejected inputs
(bad masses, malformed networks, unusable arguments) and InferenceError
for failures that surface while computing on inputs that validated fine.
The command line maps the families to distinct exit codes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, TypeVar

_T = TypeVar("_T")


class QlbnError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QlbnError):
    """An input violates its contract."""


class InferenceError(QlbnError):
    """A computation on valid inputs cannot produce a result."""


# --- belief assignments and entropy ---------------------------------------


class EmptySetMassError(ValidationError):
    """The empty set carries nonzero mass."""


class MassOutOfRangeError(ValidationError):
    """A mass or probability lies outside [0, 1]."""


class MassSumMismatchError(ValidationError):
    """Masses or probabilities do not sum to 1 within tolerance."""


class UnknownElementError(ValidationError):
    """A focal set mentions an element missing from the frame."""


# --- networks and classical inference --------------------------------------


class NetworkDefinitionError(ValidationError):
    """A network description is structurally invalid."""


class UnknownVariableError(ValidationError):
    """A query, evidence item, or assignment names no declared variable."""


class IncompleteAssignmentError(ValidationError):
    """A joint-probability request leaves some variable unassigned."""


class QueryInEvidenceError(ValidationError):
    """The query variable also appears in the evidence."""


class InconsistentEvidenceError(InferenceError):
    """The evidence has probability zero, so no posterior exists."""


# --- quantum-like inference -------------------------------------------------


class NonBinaryVariableError(ValidationError):
    """Amplitude networks require every variable to be binary."""


class NegativeUnnormalizedMassError(InferenceError):
    """Interference drove all outcome masses to zero or below."""


class UnsupportedStructureError(InferenceError):
    """The interference heuristic takes at most one unobserved non-query variable."""


class SingularDenominatorError(InferenceError):
    """Belief-distance denominator |alpha + beta - 1| vanishes for alpha != beta."""


# --- scenarios and reporting ------------------------------------------------


class ZeroObservedError(ValidationError):
    """Relative fit error is undefined for an observed value of zero."""


class GoldenMismatchError(QlbnError):
    """One or more reproduction checks exceeded tolerance."""

    def __init__(self, failures: list[str]):
        self.failures = list(failures)
        super().__init__("golden check failed: " + "; ".join(self.failures))


# --- input files --------------------------------------------------------------


class shape_errors:
    """Context manager that turns a missing key or a wrong-typed value met
    while parsing into error."""

    def __init__(self, error: type[ValidationError] = ValidationError) -> None:
        self.error = error

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: object, exc: BaseException | None, traceback: object) -> None:
        if isinstance(exc, KeyError):
            raise self.error(f"missing key {exc}") from None
        if isinstance(exc, (TypeError, AttributeError)):
            raise self.error(f"unexpected structure: {exc}") from None


def parse_number(value: object, error: type[ValidationError]) -> float:
    """A JSON number or decimal string as a float; anything else, bool included,
    raises error. The message names only the value; callers add the context."""
    if value.__class__ is float:  # the common case needs no checks or conversion
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise error(f"expected a number, got {value!r}")
    try:
        return float(value)
    except ValueError:
        raise error(f"cannot parse number {value!r}") from None


def read_json(
    path: str | Path,
    parse: Callable[[object], _T],
    error: type[ValidationError] = ValidationError,
) -> _T:
    """Read the JSON file at path and build a value from it with parse.

    Every way the file can fail raises error with a message that names the
    path: it cannot be read, it is not JSON, parse rejects it with a
    ValidationError, or its content has the wrong shape for parse (see
    shape_errors).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None
    try:
        with shape_errors(error):
            return parse(json.loads(text))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except ValidationError as exc:
        raise error(f"{path}: {exc}") from None
