"""The README's library code and commands run as printed and give the values its
comments show."""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def _shell_commands() -> list[tuple[str, str]]:
    """Each `qlbn` command of the README's sh blocks, its backslash continuations
    joined, and the stdout that the `# ` lines right after it show."""
    commands: list[tuple[str, list[str]]] = []
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S):
        shown = None
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("qlbn "):
                shown = []
                commands.append((line, shown))
            elif shown is not None and line.startswith("# "):
                shown.append(line[2:])
            else:
                shown = None
    return [(command, "".join(f"{line}\n" for line in shown)) for command, shown in commands]


COMMANDS = _shell_commands()


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


def test_the_commands_show_every_subcommand_and_two_outputs():
    assert {command.split()[1] for command, _ in COMMANDS} == {
        "entropy", "infer", "predict", "compare", "reproduce", "sweep"
    }
    assert [shown for _, shown in COMMANDS if shown] == [
        "deng=1.79248\n", "T  0.70000\nF  0.30000\n"
    ]


@pytest.mark.parametrize("command, shown", COMMANDS, ids=[command for command, _ in COMMANDS])
def test_shell_commands_exit_zero_and_print_what_is_shown(tmp_path: Path, command: str,
                                                          shown: str):
    # results/ and sweep.csv land in tmp_path, beside a link to the checkout's data/
    (tmp_path / "data").symlink_to(ROOT / "data")
    result = subprocess.run(
        [sys.executable, "-m", "qlbn", *shlex.split(command)[1:]],
        capture_output=True, text=True, cwd=tmp_path, env=src_env(),
    )
    assert result.returncode == 0, result.stderr
    if shown:
        assert result.stdout == shown
