"""The examples in the package's docstrings and README, run as tests."""

import contextlib
import doctest
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import skeincalc
from skeincalc.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

MODULES = sorted(m.name for m in pkgutil.iter_modules(skeincalc.__path__, "skeincalc."))

# Modules whose docstrings carry examples; each must run at least one.
WITH_EXAMPLES = {"skeincalc.coeffs", "skeincalc.chebyshev", "skeincalc.handlebody",
                 "skeincalc.torusknot"}


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
    assert result.attempted > 0 or name not in WITH_EXAMPLES


def test_readme_quick_start():
    # the quick start prints one value after each "# " comment line that
    # follows a print; run it and compare what it prints with those lines
    code = re.search(r"## Quick start\n\n```python\n(.*?)```", README, re.S).group(1)
    lines = code.splitlines()
    documented = [after[2:] for before, after in zip(lines, lines[1:])
                  if before.startswith("print(") and after.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert documented and out.getvalue().splitlines() == documented


def _timings(text):
    """text with the run times masked: "(5 ms)" and "elapsed_ms": 4.2."""
    text = re.sub(r"\(\d+ ms\)", "(- ms)", text)
    return re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": -', text)


def test_readme_command_examples(capsys):
    # each "$ skeincalc ..." line of a README block, run through main, prints
    # the lines below it: an "error:" line on standard error with exit code 2,
    # anything else on standard output with exit code 0
    blocks = re.findall(r"```\n(\$ skeincalc .*?)```", README, re.S)
    examples = [chunk.splitlines() for block in blocks for chunk in block.strip().split("\n\n")]
    assert len(examples) == 4
    for command, *documented in examples:
        code = main(shlex.split(command)[2:])
        out, err = capsys.readouterr()
        if documented[0].startswith("error:"):
            assert (code, out, err.splitlines()) == (2, "", documented), command
        else:
            assert (code, err) == (0, ""), command
            assert _timings(out).splitlines() == [_timings(line) for line in documented], command


def test_readme_json_report_example(capsys):
    # the report README shows is the one verify writes, timings masked
    documented = re.search(r"```json\n(\{\n\"suite\".*?)```", README, re.S).group(1)
    assert main(["verify", "--suite", "handle-slide", "--p-max", "1", "--n-max", "2",
                 "--json", "-"]) == 0
    assert _timings(capsys.readouterr().out) == _timings(documented)
