"""The benchmark's traced run wraps qlbn functions by name; every name must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans_module()


@pytest.mark.parametrize(
    "module_name, attr",
    [
        (module_name, attr)
        for table in (SPANS.SPANNED, SPANS.COUNTED)
        for module_name, names in table.items()
        for attr in names
    ],
)
def test_traced_name_resolves(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
