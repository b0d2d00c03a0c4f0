"""The README's library code runs as printed and gives the values its comments show."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_python_blocks_run_in_order_and_print_the_values_shown(monkeypatch):
    assert len(BLOCKS) >= 2
    monkeypatch.chdir(ROOT)
    namespace: dict[str, object] = {}
    for block in BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
    net, degree, result, record = (namespace[k] for k in ("net", "degree", "result", "record"))
    assert round(namespace["infer"](net, "P2", {}).prob("Defect"), 3) == 0.805
    assert round(degree.value, 4) == -0.9421
    assert round(result.probability("Defect"), 4) == 0.6925
    assert record.quantum_prediction == result.probability("Defect")
