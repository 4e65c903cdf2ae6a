"""The examples in the package's docstrings, run as tests."""

import doctest
import importlib
import pkgutil

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
