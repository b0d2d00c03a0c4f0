"""Neither the package nor its scripts import anything outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNTIME = sorted((ROOT / "src" / "qlbn").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    """Top-level module names of every absolute import in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.name)
def test_imports_only_stdlib_and_qlbn(path: Path):
    foreign = [
        name
        for name in _absolute_imports(path)
        if name != "qlbn" and name not in sys.stdlib_module_names
    ]
    assert not foreign, f"{path.name} imports {foreign}"
