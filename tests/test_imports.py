"""Each module imports cleanly when it is the first one loaded.

The package ``__init__`` fixes one import order, which can hide a cycle
between two modules; here each ``addcyc.<module>`` is imported in a fresh
interpreter with the package's ``__init__`` bypassed, so only the module's
own import graph runs.  The main computations also run in a fresh
interpreter without importing ``numpy.ma``, which ``np.unique``,
``np.setdiff1d`` and ``np.isin`` load and which costs every cold call, or
sympy, whose import alone took longer than the rest of ``import addcyc``.
"""

import importlib
import importlib.util
import os
import pathlib
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


def test_bench_layers_resolve():
    """Every layer the bench tracer wraps (``bench/layers.py``, loaded by
    path) is still defined in the package, so traced runs
    keep working when the package is refactored."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.LAYERS
    for modname, attr, _, _ in layers.LAYERS:
        owner = importlib.import_module(f"addcyc.{modname}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert leaf in vars(owner), f"addcyc.{modname}.{attr}"


NO_MASKED_ARRAYS = """
import sys
import addcyc
assert "sympy" not in sys.modules, "import addcyc imported sympy"
from addcyc import classify, codes, refdata, structure
from addcyc.bilinear import context
list(classify.enumerate_codes(7, 4, "so", complete=True))
classify.brute_force_oracle(7, 3, "sd")
row = refdata.row_for(3, 7)
codes.min_distance(codes.cyclic_span(row.generator, context(7, 3, paper=True)))
structure.build_atlas(13, 3)
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
assert "sympy" not in sys.modules, "sympy was imported"
"""


def test_main_paths_do_not_import_numpy_ma():
    """Nor sympy, which only the tests use as a reference."""
    env = dict(os.environ)
    src = str(pathlib.Path(PACKAGE_DIRS[0]).parent)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
