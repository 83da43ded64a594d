"""The README's CLI commands and library example run as written."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gmrfinfo.cli import build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
CODE_BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README, flags=re.M | re.S)
COMMANDS = [shlex.split(line)[1:] for lang, body in CODE_BLOCKS if lang == "sh"
            for line in body.splitlines() if line.startswith("gmrfinfo ")]


def test_every_command_has_an_example():
    assert sorted(argv[0] for argv in COMMANDS) == sorted(build_parser()[1])


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_cli_example_runs(capfd, tmp_path, argv):
    path = tmp_path / "out.csv"
    code = main([*argv, "--output", str(path)])  # the last --output wins
    captured = capfd.readouterr()
    assert code == 0, captured.err
    assert len(path.read_text().splitlines()) >= 2
    assert (tmp_path / "out.csv.meta.json").is_file()


def test_library_example_runs():
    (example,) = [body for lang, body in CODE_BLOCKS if lang == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    assert len(out.getvalue().splitlines()) == 3


def test_runtime_needs_only_numpy():
    # pyproject.toml declares numpy as the one runtime dependency; scipy, mpmath and hypothesis
    # are test-only, so the tests' oracles stay independent of the library
    (example,) = [body for lang, body in CODE_BLOCKS if lang == "python"]
    script = "\n".join([
        "import importlib, pkgutil, sys",
        "import gmrfinfo",
        "for info in pkgutil.iter_modules(gmrfinfo.__path__):",
        "    importlib.import_module('gmrfinfo.' + info.name)",
        example,
        "print(sorted({'scipy', 'mpmath', 'hypothesis'} & {m.split('.')[0] for m in sys.modules}))",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert len(out.splitlines()) == 4  # the example's three lines, then no test-only module
    assert out.splitlines()[-1] == "[]"
