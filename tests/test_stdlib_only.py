"""The package imports nothing outside the standard library,
and importing the command line loads no module that only costs start-up time."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qlbn").glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    """Top-level module names of every absolute import in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_imports_only_stdlib_and_qlbn(path: Path):
    foreign = [
        name
        for name in _absolute_imports(path)
        if name != "qlbn" and name not in sys.stdlib_module_names
    ]
    assert not foreign, f"{path.name} imports {foreign}"


def test_package_does_not_import_dataclasses():
    importers = [path.name for path in PACKAGE if "dataclasses" in _absolute_imports(path)]
    assert not importers, f"{importers} import dataclasses"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    """Each of them costs milliseconds at every command's start-up."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = "import sys, qlbn.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
