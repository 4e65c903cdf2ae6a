"""The examples in the package's docstrings and README's quick start, run as tests."""

import contextlib
import doctest
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import skeincalc

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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    lines = code.splitlines()
    documented = [after[2:] for before, after in zip(lines, lines[1:])
                  if before.startswith("print(") and after.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert documented and out.getvalue().splitlines() == documented
