"""Package-wide checks on the public names."""

import importlib
import pkgutil

import pytest

import nlcs

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(nlcs.__path__, "nlcs.")
                 if m.name != "nlcs.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_the_checked_modules_declare_their_names():
    # the check above reads __all__, so it must find the modules that have one
    declared = [n for n in MODULES if hasattr(importlib.import_module(n), "__all__")]
    assert {"nlcs.dictlearn", "nlcs.measurements", "nlcs.solvers"} <= set(declared)
