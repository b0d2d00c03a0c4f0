"""The benchmark's traced run wraps qlbn functions by name, and its workloads call
qlbn by name; every name must exist."""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


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


# qlbn.<name> and state["qlbn"].<name>, as the workloads spell the package
WORKLOAD_NAMES = sorted(set(re.findall(
    r'\b(?:qlbn|state\["qlbn"\])\.(\w+)', (PERFBENCH / "workloads.py").read_text()
)))


def test_workloads_call_names():
    assert {"Scenario", "predict_unknown", "degree_for_query"} <= set(WORKLOAD_NAMES)


@pytest.mark.parametrize("attr", WORKLOAD_NAMES)
def test_workload_name_resolves(attr: str):
    import qlbn.cli  # the cli workload loads the submodule too

    assert hasattr(qlbn, attr), f"qlbn.{attr} is gone"
