"""Each module imports cleanly when it is the first one loaded.

The package ``__init__`` fixes one import order, which can hide a cycle
between two modules; here each ``addcyc.<module>`` is imported in a fresh
interpreter with the package's ``__init__`` bypassed, so only the module's
own import graph runs.
"""

import importlib.util
import pkgutil
import subprocess
import sys

import pytest

PACKAGE_DIRS = list(importlib.util.find_spec("addcyc").submodule_search_locations)
MODULES = sorted(m.name for m in pkgutil.iter_modules(PACKAGE_DIRS) if m.name != "__main__")

IMPORT_FIRST = """
import importlib, sys, types
pkg = types.ModuleType("addcyc")
pkg.__path__ = {dirs!r}
sys.modules["addcyc"] = pkg
importlib.import_module("addcyc.{name}")
"""


def test_every_module_is_listed():
    assert {"gf", "linalg", "bilinear", "structure", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first(name):
    proc = subprocess.run([sys.executable, "-c", IMPORT_FIRST.format(dirs=PACKAGE_DIRS, name=name)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
