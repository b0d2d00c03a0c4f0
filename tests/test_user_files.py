"""Every user input file the commands read ends in a result or in one `error:` line:
a mutated copy of each file under data/ never ends in a traceback."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import ROOT, src_env
from qlbn.cli import main

DATA = ROOT / "data"
HUGE = "1" + "0" * 400  # 10**400: a JSON integer beyond the largest float

# Each data file, with the runs of every command that reads its kind of file; the
# file's path goes where "{}" stands.
_INFER = [
    [*mode, *verbose]
    for mode in (["--mode", "classical"], ["--mode", "quantum"])
    for verbose in ([], ["--verbose"])
]
_SCENARIO_RUNS = [["predict", "--scenario", "{}"], ["compare", "--scenario", "{}"],
                  ["sweep", "--scenario", "{}", "--steps", "3"]]
USER_FILES = {
    "networks/prisoners_average.json":
        [["infer", "--network", "{}", "--query", "P2", *run] for run in _INFER],
    "networks/data_servers.json":
        [["infer", "--network", "{}", "--query", "S2", *run] for run in _INFER],
    "scenarios/literature_games.json": _SCENARIO_RUNS,
    "bba/split_pair.json": [["entropy", "--bba", "{}"]],
    "bba/single_certain.json": [["entropy", "--bba", "{}"]],
}

# Replacement values: every JSON type, strings that are and are not numbers, and the
# numbers at the edges of the float range. NaN and infinity are written as the
# NaN and Infinity tokens that Python's json module reads.
POOL = [None, True, False, "", "x", "0.5", [], {}, 0, -0.0, 1e308, math.nan, math.inf,
        10**400]


def test_every_data_file_has_its_runs():
    assert sorted(USER_FILES) == sorted(
        str(p.relative_to(DATA)) for p in DATA.rglob("*.json")
    )


def _paths(doc, prefix=()):
    """The path of every value in doc, the document itself first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, (*prefix, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutated(draw: st.DrawFn, doc):
    """doc after one to three mutations, each at a path drawn from its current shape:
    replace a value from POOL, delete a key or an item, add a key, or duplicate an
    item of a list."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        # a replacement, which reaches every value of POOL, is drawn as often as the
        # three changes of shape together
        kind = draw(st.sampled_from(["replace"] * 3 + ["delete", "add", "duplicate"]))
        value = copy.deepcopy(draw(st.sampled_from(POOL)))  # POOL's [] and {} stay empty
        if kind == "replace":
            leaves = [p for p in paths if not isinstance(_at(doc, p), (dict, list))]
            path = draw(st.sampled_from(leaves or paths))
            if not path:
                doc = value
                continue
            _at(doc, path[:-1])[path[-1]] = value
        elif kind == "delete" and len(paths) > 1:
            path = draw(st.sampled_from(paths[1:]))
            del _at(doc, path[:-1])[path[-1]]
        elif kind == "add":
            dicts = [p for p in paths if isinstance(_at(doc, p), dict)]
            if dicts:
                target = _at(doc, draw(st.sampled_from(dicts)))
                target[draw(st.sampled_from(["x", "name", "given", "a", "P1"]))] = value
        elif kind == "duplicate":
            lists = [p for p in paths if isinstance(_at(doc, p), list) and _at(doc, p)]
            if lists:
                target = _at(doc, draw(st.sampled_from(lists)))
                index = draw(st.integers(0, len(target) - 1))
                target.insert(index, copy.deepcopy(target[index]))
    return doc


def _run(argv: list[str]) -> tuple[int, str]:
    """cli.main's exit code and stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


ORIGINALS = {name: json.loads((DATA / name).read_text()) for name in USER_FILES}
# The data files with one observed rate written as 10**400, which once ended predict,
# compare and sweep in an OverflowError traceback.
OVERFLOWING = copy.deepcopy(ORIGINALS)
OVERFLOWING["scenarios/literature_games.json"][0]["observed_unknown"] = 10**400


@example(docs=OVERFLOWING)
@given(docs=st.fixed_dictionaries({name: _mutated(doc) for name, doc in ORIGINALS.items()}))
def test_mutated_user_files_end_in_a_result_or_one_error_line(docs):
    with tempfile.TemporaryDirectory() as tmp:
        for name, runs in USER_FILES.items():
            path = os.path.join(tmp, Path(name).name)
            with open(path, "w") as f:
                json.dump(docs[name], f)
            for run in runs:
                argv = [path if arg == "{}" else arg for arg in run]
                code, err = _run(argv)
                assert code in (0, 1, 2), (argv, code, err)
                if code:
                    lines = err.splitlines()
                    assert lines and lines[-1].startswith("error: "), (argv, err)
                    assert sum(line.startswith("error:") for line in lines) == 1, (argv, err)
                    assert "Traceback" not in err, (argv, err)


# Where each kind of file holds a number that parse_number reads, and its command.
NUMBER_FIELDS = {
    "network": ("networks/prisoners_average.json", ("cpts", "P2", 0, "dist", "Defect"),
                ["infer", "--query", "P2", "--network"]),
    "scenario": ("scenarios/literature_games.json", (0, "observed_unknown"),
                 ["predict", "--scenario"]),
    "bba": ("bba/split_pair.json", ("masses", "a"), ["entropy", "--bba"]),
}


@pytest.mark.parametrize("digits", [HUGE, "9" * 5000], ids=["401 digits", "5000 digits"])
@pytest.mark.parametrize("kind", list(NUMBER_FIELDS))
def test_an_integer_too_large_for_a_float_is_one_error_line(tmp_path, kind, digits):
    """A 5000-digit integer is also past the interpreter's int-to-str digit limit,
    which json.loads enforces."""
    name, field, command = NUMBER_FIELDS[kind]
    doc = copy.deepcopy(ORIGINALS[name])
    _at(doc, field[:-1])[field[-1]] = "HUGE"
    path = tmp_path / Path(name).name
    path.write_text(json.dumps(doc).replace('"HUGE"', digits))
    result = subprocess.run(
        [sys.executable, "-m", "qlbn", *command, str(path)],
        capture_output=True, text=True, cwd=ROOT, env=src_env(),
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {path}: ")
    assert result.stderr.count("\n") == 1
    if digits == HUGE:
        assert HUGE in result.stderr


@pytest.mark.parametrize("run", [["entropy", "--bba"], ["predict", "--scenario"],
                                 ["infer", "--query", "P2", "--network"]],
                         ids=["bba", "scenario", "network"])
def test_nesting_deeper_than_the_recursion_limit_is_one_error_line(tmp_path, run):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    result = subprocess.run(
        [sys.executable, "-m", "qlbn", *run, str(path)],
        capture_output=True, text=True, cwd=ROOT, env=src_env(),
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {path}: maximum recursion depth exceeded")
    assert result.stderr.count("\n") == 1
