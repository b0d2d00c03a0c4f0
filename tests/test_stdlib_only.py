"""The package imports nothing outside the standard library, and each command
loads only the modules it runs: nothing that only costs start-up time."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env
from qlbn import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qlbn").glob("*.py"))

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "bayesnet": ["Network", "Variable", "infer", "load_network", "network_from_dict"],
    "belief": ["BeliefAssignment", "DiscreteDistribution", "deng_entropy", "shannon_entropy"],
    "heuristic": ["BeliefDegree", "belief_degree", "belief_distance", "degree_for_query",
                  "pair_degree", "weighable_magnitudes"],
    "quantum": ["AmplitudeNetwork", "QuantumInferenceResult", "amplitudes_from_network",
                "completion_magnitudes", "interference_sum", "posterior", "quantum_infer"],
    "scenarios": ["PredictionRecord", "Scenario", "fit_error", "load_builtin",
                  "predict_unknown", "run_comparison", "run_reproduction",
                  "scenario_to_network"],
}

INFER = ["infer", "--network", "data/networks/prisoners_average.json", "--query", "P2"]
ENTROPY = ["entropy", "--bba", "data/bba/split_pair.json"]
# One run of every command, with paths relative to the checkout.
SHIPPED = [
    ENTROPY,
    INFER + ["--format", "csv"],
    INFER + ["--mode", "quantum", "--verbose", "--format", "json"],
    ["predict", "--scenario", "data/scenarios/literature_games.json"],
    ["compare", "--format", "csv"],
    ["reproduce", "--format", "json"],
    ["sweep", "--steps", "5"],
]


def _probe(code: str, *flags: str) -> str:
    """What `code` prints in a fresh interpreter, started with flags, that imports the
    qlbn under test."""
    result = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, cwd=ROOT,
        env=src_env(),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _loaded_after_commands(argvs: list[list[str]], names: set[str]) -> str:
    """Which of `names` are loaded once every argv has run through qlbn.cli.main,
    each to exit code 0 with its output discarded."""
    return _probe(
        "import contextlib, io, sys, qlbn.cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert qlbn.cli.main(argv) == 0, argv\n"
        f"print(sorted({names!r} & set(sys.modules)))"
    )


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


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_parses_as_declared_minimum_python(path: Path):
    """pyproject.toml declares requires-python >= 3.10: no later syntax."""
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_package_does_not_import_dataclasses():
    importers = [path.name for path in PACKAGE if "dataclasses" in _absolute_imports(path)]
    assert not importers, f"{importers} import dataclasses"


def test_shipped_runs_every_command():
    assert {argv[0] for argv in SHIPPED} == set(cli._COMMANDS)


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    """Each of them costs milliseconds at every command's start-up. The commands
    import their modules as they run, so the probe runs every one of them."""
    assert _loaded_after_commands(SHIPPED, {"dataclasses", "inspect"}) == "[]\n"


def test_shipped_commands_leave_graphlib_unloaded():
    """Every shipped network, and the game network each scenario binds, declares its
    edges forward, which shows it acyclic: only a backward edge or a self-loop loads
    graphlib for the cycle check."""
    assert _loaded_after_commands(SHIPPED, {"graphlib"}) == "[]\n"


def test_package_import_loads_no_module_of_the_package():
    probe = "import sys, qlbn; print(sorted(m for m in sys.modules if m.startswith('qlbn.')))"
    assert _probe(probe) == "[]\n"


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (INFER, {"qlbn.scenarios", "csv"}),
        (INFER + ["--format", "json"], {"qlbn.scenarios", "csv"}),
        (INFER + ["--mode", "quantum", "--verbose"], {"qlbn.scenarios", "csv"}),
        (INFER + ["--mode", "quantum", "--format", "json"], {"qlbn.scenarios", "csv"}),
        (INFER + ["--format", "csv"], {"qlbn.scenarios", "qlbn.quantum", "qlbn.heuristic"}),
        (INFER + ["--mode", "quantum", "--format", "csv"], {"qlbn.scenarios"}),
        (ENTROPY, {"qlbn.bayesnet", "qlbn.quantum", "qlbn.heuristic", "qlbn.scenarios"}),
    ],
    ids=["infer", "infer-json", "infer-quantum-verbose", "infer-quantum-json", "infer-csv",
         "infer-quantum-csv", "entropy"],
)
def test_command_leaves_modules_it_does_not_run_unloaded(argv: list[str], unloaded: set[str]):
    assert _loaded_after_commands([argv], unloaded) == "[]\n"


def test_every_exported_name_is_its_modules_object():
    """Through `from qlbn import *` and attribute reads alike, in a fresh interpreter
    where no name is bound yet; afterwards each is a plain attribute of the package."""
    probe = (
        "import importlib, qlbn\n"
        "from qlbn import *\n"
        f"for module, names in {EXPORTS!r}.items():\n"
        "    source = importlib.import_module('qlbn.' + module)\n"
        "    for name in names:\n"
        "        assert globals()[name] is getattr(source, name), name\n"
        "        assert vars(qlbn)[name] is getattr(qlbn, name) is getattr(source, name), name\n"
        "print(sorted(qlbn.__all__))"
    )
    assert _probe(probe) == f"{sorted(name for names in EXPORTS.values() for name in names)}\n"


def test_a_name_loads_only_the_module_that_defines_it():
    """A library caller that reads no scenarios name never compiles scenarios, table or
    csv; each name read is its module's object, and other modules' names stay unbound."""
    probe = (
        "import sys, qlbn\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('qlbn.') or m == 'csv')\n"
        "assert qlbn.load_network is sys.modules['qlbn.bayesnet'].load_network\n"
        "assert 'posterior' not in vars(qlbn) and 'Scenario' not in vars(qlbn)\n"
        "print(loaded())\n"
        "assert qlbn.posterior is sys.modules['qlbn.quantum'].posterior\n"
        "assert 'Scenario' not in vars(qlbn)\n"
        "print(loaded())\n"
        "assert qlbn.Scenario is sys.modules['qlbn.scenarios'].Scenario\n"
        "print(loaded())\n"
    )
    assert _probe(probe).splitlines() == [
        "['qlbn.bayesnet', 'qlbn.belief', 'qlbn.errors']",
        "['qlbn.bayesnet', 'qlbn.belief', 'qlbn.errors', 'qlbn.quantum']",
        "['csv', 'qlbn.bayesnet', 'qlbn.belief', 'qlbn.errors', 'qlbn.heuristic', "
        "'qlbn.quantum', 'qlbn.scenarios', 'qlbn.table']",
    ]


def test_an_unknown_name_raises_attribute_error_naming_it():
    """Both on the first lookup and on later ones, and neither loads a module."""
    probe = (
        "import sys, qlbn\n"
        "for _ in range(2):\n"
        "    try:\n"
        "        qlbn.nope\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
        "print(sorted(m for m in sys.modules if m.startswith('qlbn.')))\n"
    )
    assert _probe(probe) == "module 'qlbn' has no attribute 'nope'\n" * 2 + "[]\n"


def test_dir_lists_every_export_and_loads_nothing():
    """dir(qlbn) answers from __all__, so listing the names compiles no module."""
    probe = (
        "import sys, qlbn\n"
        "print(sorted(set(qlbn.__all__) - set(dir(qlbn))))\n"
        "print(sorted(m for m in sys.modules if m.startswith('qlbn.')))"
    )
    assert _probe(probe) == "[]\n[]\n"


def test_a_probe_for_an_unknown_name_loads_nothing():
    probe = (
        "import sys, qlbn\n"
        "print(hasattr(qlbn, 'nope'), sorted(m for m in sys.modules if m.startswith('qlbn.')))"
    )
    assert _probe(probe) == "False []\n"


def test_importing_a_submodule_from_the_package_loads_only_what_it_imports():
    """`from qlbn import bayesnet` first looks bayesnet up as a name of the package;
    that lookup loads nothing, and the import then loads bayesnet as
    `import qlbn.bayesnet` does."""
    probe = (
        "import sys\n"
        "from qlbn import bayesnet\n"
        "assert bayesnet is sys.modules['qlbn.bayesnet']\n"
        "print(sorted(m for m in sys.modules if m.startswith('qlbn.') or m == 'csv'))"
    )
    assert _probe(probe) == "['qlbn.bayesnet', 'qlbn.belief', 'qlbn.errors']\n"


def test_cli_import_leaves_pathlib_unloaded():
    """Without the site hook, which may load pathlib itself, no module the command line
    imports at start-up loads it: paths are annotated as str or os.PathLike."""
    probe = "import sys, qlbn.cli\nprint('pathlib' in sys.modules)"
    assert _probe(probe, "-S") == "False\n"
