"""Exception types raised across the package.

Two families matter to callers: ValidationError for rejected inputs
(bad masses, malformed networks, unusable arguments) and InferenceError
for failures that surface while computing on inputs that validated fine.
Each family carries the exit code the command line returns for it.
"""

from __future__ import annotations

import json
import os
from typing import Callable, TypeVar

_T = TypeVar("_T")


class QlbnError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class ValidationError(QlbnError, ValueError):
    """An input violates its contract; a ValueError too, as builtin argument checks are."""


class InferenceError(QlbnError):
    """A computation on valid inputs cannot produce a result."""

    exit_code = 2


# --- networks and classical inference --------------------------------------


class InconsistentEvidenceError(InferenceError):
    """The evidence has probability zero, so no posterior exists."""


# --- quantum-like inference -------------------------------------------------


class NegativeUnnormalizedMassError(InferenceError):
    """Interference drove all outcome masses to zero or below."""


class UnsupportedStructureError(InferenceError):
    """The interference heuristic takes at most one unobserved non-query variable."""


class SingularDenominatorError(InferenceError):
    """Belief-distance denominator |alpha + beta - 1| vanishes for alpha != beta."""


# --- scenarios and reporting ------------------------------------------------


class GoldenMismatchError(QlbnError):
    """One or more reproduction checks exceeded tolerance."""

    exit_code = 3


# --- input files --------------------------------------------------------------


class shape_errors:
    """Context manager that turns a missing key, a wrong-typed value or a list too
    short met while parsing into ValidationError."""

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: object, exc: BaseException | None, traceback: object) -> None:
        if isinstance(exc, KeyError):
            raise ValidationError(f"missing key {exc}") from None
        if isinstance(exc, (TypeError, AttributeError, IndexError)):
            raise ValidationError(f"unexpected structure: {exc}") from None


def parse_number(value: object) -> float:
    """A JSON number or decimal string as a float; anything else, bool included,
    raises ValidationError. The message names only the value; callers add the context."""
    if value.__class__ is float:  # the common case needs no checks or conversion
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValidationError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except ValueError:
        raise ValidationError(f"cannot parse number {value!r}") from None
    except OverflowError:  # an integer beyond the largest float
        raise ValidationError(f"number {value!r} is too large for a float") from None


def read_json(path: str | os.PathLike[str], parse: Callable[[object], _T]) -> _T:
    """Read the JSON file at path and build a value from it with parse.

    Every way the file can fail raises ValidationError with a message that names the
    path: it cannot be read, it is not JSON, parse rejects it with a
    ValidationError, or its content has the wrong shape for parse (see
    shape_errors).
    """
    try:
        # Bytes decode faster than a text-mode read; the universal-newline translation
        # that mode would apply runs only when the file holds a carriage return.
        with open(os.fspath(path), "rb") as f:
            text = f.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # too many digits, or too deep a nesting
        raise ValidationError(f"{path}: {exc}") from None
    try:
        with shape_errors():
            return parse(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
